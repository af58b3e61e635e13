"""``python -m ferns``: the command line of :mod:`ferns.cli`."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
