"""The command line through ``cli.main``: byte-for-byte goldens and exit codes.

Each golden case runs from inside ``tests/golden`` and compares standard
output with ``tests/golden/<name>.out``.  The fern inputs under
``tests/golden/inputs`` are fixed files: three fiber outputs, one of them
contracted to a plane, a smooth fern on F_2^3 modulo that plane, and two
broken trees.  The rejection cases load a broken tree, exit 1 and pin
standard error in ``tests/golden/<name>.err``: a smooth F_3^2 fern over
GF(27) with one mark moved, and a graft-built F_3^2 fern over GF(3) with
two marks swapped.  After a change that is meant to alter the output,
regenerate the goldens with ``PYTHONPATH=src python tests/test_cli.py``
and review the diff.
"""

import contextlib
import io
import json
import os
import time
from pathlib import Path

import pytest

from ferns import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "fiber_q3_zero": "fiber --p 3 --n 2 --t 0",
    "fiber_gf4_basis": "fiber --p 2 --m 2 --n 3 --t 0;0,1 --basis 0,0,1;0,1,0;1,1,0",
    "fiber_gf256_n2": "fiber --p 2 --m 8 --n 2 --t 0",
    "fiber_gf81_n3": "fiber --p 3 --m 4 --n 3 --t 0;0",
    "classify_gf4_n3": "classify --in inputs/gf4_n3.json",
    "classify_gf2_n3": "classify --in inputs/gf2_n3.json",
    "classify_smooth": "classify --in inputs/gf4_n2_smooth.json",
    "contract_gf4_n3": "contract --in inputs/gf4_n3.json --subspace 1,0,0;0,1,0",
    "contract_gf2_line": "contract --in inputs/gf2_n3.json --subspace 0,1,1",
    "graft_gf2_n3": ("graft --sub inputs/gf2_plane.json "
                     "--quot inputs/gf2_mod_plane.json --complement 0,0,1"),
    "drinfeld_smooth": "drinfeld --in inputs/gf4_n2_smooth.json",
    "drinfeld_scaled": "drinfeld --in inputs/gf4_n2_smooth.json --scale 1,1",
    "roundtrip_gf4_n2": "roundtrip --p 2 --m 2 --n 2",
    "roundtrip_q3_n2": "roundtrip --p 3 --n 2",
    "census_q3_n2": "census --q 3 --n 2",
    "census_gf8_n2": "census --q 2 --n 2 --m 3",
    "census_q2_n3_strata": "census --q 2 --n 3 --no-oracle",
}

REJECTIONS = {
    "reject_gf27_moved": "classify --in inputs/broken_gf27_moved.json",
    "reject_q3_swapped": "classify --in inputs/broken_q3_swapped.json",
}


def run_cli(argv):
    """Exit code, standard output and standard error of one invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, out, err = run_cli(CASES[name].split())
    assert code == 0, err
    assert out == (GOLDEN / f"{name}.out").read_text()


@pytest.mark.parametrize("name", sorted(REJECTIONS))
def test_rejection_golden(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, out, err = run_cli(REJECTIONS[name].split())
    assert code == 1
    assert out == ""
    assert err == (GOLDEN / f"{name}.err").read_text()


@pytest.mark.parametrize("argv", [
    "census --q 6 --n 2",
    "census --q 2 --n 0",
    "census --q 2 --n 2 --m 0",
    "fiber --p 4 --n 2",
    "fiber --p 2 --n 2 --basis 1,0;1,0",
    "fiber --p 2 --n 2 --basis 1,x",
    "fiber --p 2 --e 9 --n 1",
    "fiber --p 2 --m 17 --n 2 --t 1,1",
])
def test_malformed_parameters_exit_2(argv):
    code, out, err = run_cli(argv.split())
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    "contract --in inputs/gf2_n3.json --subspace 0,0,0",
    ("graft --sub inputs/gf2_plane.json --quot inputs/gf2_mod_plane.json "
     "--complement 1,0,0"),
])
def test_bad_fern_parameters_exit_2(argv, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    code, out, err = run_cli(argv.split())
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("key,value", [("V", {"n": 2, "q": 2}),
                                       ("flag_basis", [[0, 0, 1]])])
def test_mismatched_fern_summary_exit_2(key, value, tmp_path):
    data = json.loads((GOLDEN / "inputs" / "gf2_n3.json").read_text())
    data[key] = value
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["classify", "--in", str(path)])
    assert code == 2, err
    assert out == ""
    assert err.startswith("error: malformed fern JSON") and key in err


@pytest.mark.parametrize("exc,code,prefix", [
    (TypeError("boom"), 3, "internal error: TypeError: boom"),
    (AssertionError("guard"), 1, "failure: AssertionError: guard"),
])
def test_internal_errors_exit_3_and_property_failures_exit_1(
        exc, code, prefix, monkeypatch):
    def broken(args):
        raise exc
    monkeypatch.setattr(cli, "cmd_fiber", broken)
    got, out, err = run_cli("fiber --p 2 --n 2 --t 0".split())
    assert got == code
    assert out == ""
    assert err == prefix + "\n"


def test_census_budget_fails_fast():
    start = time.monotonic()
    code, out, err = run_cli("census --q 2 --n 5".split())
    assert code == 2
    assert time.monotonic() - start < 1.0
    assert out == ""
    assert "--budget" in err and "--no-oracle" in err


if __name__ == "__main__":
    os.chdir(GOLDEN)
    for name, line in CASES.items():
        code, out, err = run_cli(line.split())
        if code != 0:
            raise SystemExit(f"{name} exited {code}: {err}")
        (GOLDEN / f"{name}.out").write_text(out)
    for name, line in REJECTIONS.items():
        code, out, err = run_cli(line.split())
        if code != 1 or out:
            raise SystemExit(f"{name} exited {code} with output {out!r}")
        (GOLDEN / f"{name}.err").write_text(err)
