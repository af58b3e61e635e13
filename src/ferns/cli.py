"""Batch command-line frontend.

Subcommands: census, fiber, classify, roundtrip, contract, graft, drinfeld,
verify.  Everything reads and writes JSON (CSV for census tables), field
elements travel as coefficient lists, and every run is reproducible from
its invocation record; the record is echoed into each JSON artifact.

Exit codes: 0 success, 1 property failure, 2 malformed input, 3 internal
error.  A property failure is a failed guard (``AssertionError``), a tree
that violates the fern axioms (``InvalidFern``), or a census or round trip
that disagrees with its oracle.  Malformed input includes parameters a
constructor rejects (a non-prime p, a q that is not a prime power, n or m
below one, a field larger than the table limit, a chart basis that does
not span, a subspace that is not a step of the fern's space or not a
complement) and a census whose brute-force oracle would exceed
``--budget``.  Any other exception is an internal error, reported on
standard error with an ``internal error:`` prefix.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from . import census as census_mod
from . import jsonio, verify
from .fern import InvalidFern, contract_fern, drinfeld_psi, graft, line_data
from .gf import LinSpace, Subspace, VSpace, field_make
from .universal import (Chart, atlas, chart_coords, chart_point, chart_points,
                        classify, fiber, round_trip)


class UsageError(ValueError):
    """Malformed input (exit code 2)."""


def _checked(build, *args):
    """Call a constructor on command-line parameters; the ValueError it
    raises for a bad parameter is malformed input."""
    try:
        return build(*args)
    except InvalidFern:
        raise  # a property failure: exit code 1
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _parse_element(fld, text: str):
    try:
        coeffs = [int(c) for c in text.split(",")] if text else [0]
    except ValueError as exc:
        raise UsageError(f"bad field element {text!r}") from exc
    return fld.element(coeffs)


def _parse_tuple(fld, text: str, arity: int):
    parts = [p for p in text.split(";")] if text else []
    if len(parts) != arity:
        raise UsageError(f"expected {arity} coordinates, got {len(parts)}")
    return tuple(_parse_element(fld, p) for p in parts)


def _parse_rows(text: str, n: int) -> list:
    """Vectors of length n written as 'a,b,..;c,d,..'."""
    try:
        rows = [tuple(int(c) for c in row.split(",")) for row in text.split(";")]
    except ValueError as exc:
        raise UsageError(f"bad vector list {text!r}") from exc
    if any(len(r) != n for r in rows):
        raise UsageError("vector rows must have length n")
    return rows


def _parse_subspace(vs, text: str) -> Subspace:
    return Subspace.from_vectors(vs, _parse_rows(text, vs.n))


def _load_fern(path: str):
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read fern JSON from {path}: {exc}") from exc
    try:
        return jsonio.fern_from_json(data)
    except InvalidFern:
        raise  # well-formed input violating the axioms: exit code 1
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed fern JSON in {path}: {exc}") from exc


def _emit(args, payload: dict, invocation: dict):
    payload = dict(payload)
    payload["invocation"] = invocation
    text = jsonio.dumps(payload)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _invocation(args) -> dict:
    skip = {"func", "out"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def _field(args):
    return _checked(field_make, args.p, args.e, args.m)


def _chart(args) -> Chart:
    space = LinSpace.full(_checked(VSpace, _field(args), args.n))
    chart = Chart(space)
    if args.basis:
        chart = _checked(Chart, space, _parse_rows(args.basis, args.n))
    return chart


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_census(args) -> int:
    # malformed q, m or n exit 2 before any counting
    fld = _checked(census_mod._field_for, args.q, args.m)
    _checked(VSpace, fld, args.n)
    try:
        report = census_mod.census(args.n, args.q, args.m,
                                   with_oracle=not args.no_oracle,
                                   budget=args.budget)
    except census_mod.BudgetExceeded as exc:
        raise UsageError(f"{exc}; raise --budget or pass --no-oracle") from exc
    text = report.to_csv()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if report.agreement is False:
        print("strata sum disagrees with the brute-force oracle",
              file=sys.stderr)
        return 1
    return 0


def cmd_fiber(args) -> int:
    chart = _chart(args)
    t = _parse_tuple(chart.field, args.t, chart.n - 1)
    try:
        cp = chart_point(chart, t)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    fb = fiber(cp)
    payload = jsonio.fern_to_json(fb)
    payload["stratum"] = cp.stratum.key()
    _emit(args, payload, _invocation(args))
    return 0


def cmd_classify(args) -> int:
    fern = _load_fern(args.infile)
    point = classify(fern)
    payload = {"class_point": jsonio.classpoint_to_json(point)}
    chart = Chart.for_fern(fern)
    payload["chart_flag"] = chart.flag.key()
    payload["chart_basis"] = [list(b) for b in chart.basis]
    payload["t"] = [list(x.coeffs) for x in chart_coords(point, chart)]
    _emit(args, payload, _invocation(args))
    return 0


def cmd_roundtrip(args) -> int:
    space = LinSpace.full(_checked(VSpace, _field(args), args.n))
    charts = atlas(space)
    lines = []
    failures = 0
    for chart in charts:
        for cp in chart_points(chart):
            fb, failure = round_trip(cp, charts)
            failures += 0 if failure is None else 1
            lines.append({
                "flag": chart.flag.key(),
                "t": [list(x.coeffs) for x in cp.t],
                "stratum": cp.stratum.key(),
                "components": len(fb.tree.components),
                "roundtrip_ok": failure is None,
            })
    _emit(args, {"points": lines, "failures": failures}, _invocation(args))
    return 1 if failures else 0


def cmd_contract(args) -> int:
    fern = _load_fern(args.infile)
    w = _parse_subspace(fern.space.vs, args.subspace)
    result = _checked(contract_fern, fern, w)
    _emit(args, jsonio.fern_to_json(result), _invocation(args))
    return 0


def cmd_graft(args) -> int:
    sub_fern = _load_fern(args.sub)
    quot_fern = _load_fern(args.quot)
    complement = _parse_subspace(sub_fern.space.vs, args.complement)
    result = _checked(graft, sub_fern, quot_fern, complement)
    _emit(args, jsonio.fern_to_json(result), _invocation(args))
    return 0


def cmd_drinfeld(args) -> int:
    fern = _load_fern(args.infile)
    ld = line_data(fern)
    if not ld.is_injective():
        print("line datum is not injective (fern is not smooth)",
              file=sys.stderr)
        return 1
    scale = _parse_element(fern.space.field, args.scale) if args.scale else None
    psi = drinfeld_psi(ld, scale)
    payload = {
        "q": psi.q,
        "degree": psi.degree,
        "coefficients": {str(e): list(c.coeffs)
                         for e, c in sorted(psi.coeffs.items())},
        "note": "each coefficient carries a formal factor t",
    }
    _emit(args, payload, _invocation(args))
    return 0


def cmd_verify(args) -> int:
    results = verify.run_all(seed=args.seed, quick=args.quick)
    for r in results:
        print(r.line())
    bad = [r for r in results if not r.ok]
    print(f"{len(results) - len(bad)}/{len(results)} checks passed")
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_field_args(sp):
    sp.add_argument("--p", type=int, default=2, help="prime")
    sp.add_argument("--e", type=int, default=1, help="exponent, q = p^e")
    sp.add_argument("--m", type=int, default=1, help="extension degree")
    sp.add_argument("--n", type=int, required=True, help="dimension")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ferns",
        description="Exact computations with marked trees over finite fields")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("census", help="stratum census with brute-force oracle")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--m", type=int, default=1)
    c.add_argument("--no-oracle", action="store_true")
    c.add_argument("--budget", type=int, default=census_mod.BUDGET)
    c.add_argument("--out")
    c.set_defaults(func=cmd_census)

    f = sub.add_parser("fiber", help="synthesize the fern over a chart point")
    _add_field_args(f)
    f.add_argument("--t", default="", help="semicolon-separated coefficients")
    f.add_argument("--basis", help="chart basis rows, e.g. '1,0;0,1'")
    f.add_argument("--out")
    f.set_defaults(func=cmd_fiber)

    cl = sub.add_parser("classify", help="functional classes of a fern")
    cl.add_argument("--in", dest="infile", required=True)
    cl.add_argument("--out")
    cl.set_defaults(func=cmd_classify)

    r = sub.add_parser("roundtrip", help="sweep charts and verify round trips")
    _add_field_args(r)
    r.add_argument("--out")
    r.set_defaults(func=cmd_roundtrip)

    ct = sub.add_parser("contract", help="contract a fern to a subspace")
    ct.add_argument("--in", dest="infile", required=True)
    ct.add_argument("--subspace", required=True)
    ct.add_argument("--out")
    ct.set_defaults(func=cmd_contract)

    g = sub.add_parser("graft", help="graft a subspace fern onto a quotient fern")
    g.add_argument("--sub", required=True)
    g.add_argument("--quot", required=True)
    g.add_argument("--complement", required=True)
    g.add_argument("--out")
    g.set_defaults(func=cmd_graft)

    d = sub.add_parser("drinfeld", help="additive polynomial of a smooth fern")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--scale", help="normalization scalar, coefficient list")
    d.add_argument("--out")
    d.set_defaults(func=cmd_drinfeld)

    v = sub.add_parser("verify", help="run the full property matrix")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--quick", action="store_true")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, InvalidFern) as exc:
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - anything else is a bug
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
