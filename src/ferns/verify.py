"""The acceptance and property suite, shared by the test suite and the CLI.

Each check returns a :class:`CheckResult`; ``run_all`` executes the whole
matrix.  All randomized checks derive from an explicit seed, so reruns are
reproducible byte for byte.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, List

from . import census as census_mod
from . import curve
from .fern import (LineData, contract_fern, drinfeld_psi, expand_root_product,
                   fern_violations, line_data, reciprocal_data)
from .gf import (INF, GroupElement, LinSpace, Subspace, VSpace,
                 field_make, flags, gaussian_binomial, group_act,
                 group_elements, group_inv, group_mul, subspaces)
from .rand import (injective_linear_marking, random_fern, random_pipeline_fern,
                   random_stable_tree, stabilize_at_random)
from .universal import (Chart, PointEquations, atlas, chart_point,
                        chart_points, component_id, fiber, locate_component,
                        round_trip, section_assignment)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"[{status}] {self.name}: {self.detail} ({self.seconds:.2f}s)"


def _run(name: str, fn: Callable[[], str]) -> CheckResult:
    start = time.monotonic()
    try:
        detail = fn()
        ok = True
    except Exception as exc:  # noqa: BLE001 - the suite reports, not raises
        detail = f"{type(exc).__name__}: {exc}"
        ok = False
    return CheckResult(name, ok, detail, time.monotonic() - start)


def _space(n: int, q: int, m: int) -> LinSpace:
    return LinSpace.full(VSpace(census_mod._field_for(q, m), n))


# ---------------------------------------------------------------------------
# Acceptance criteria
# ---------------------------------------------------------------------------

CENSUS_CASES = [((1, 2, 1), 1), ((2, 2, 1), 3), ((2, 2, 2), 5),
                ((2, 3, 1), 4), ((3, 2, 1), 21)]

ROUNDTRIP_CASES = [(2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 2, 1)]
# added by the full run: 45, 105 and 52 more chart points
ROUNDTRIP_WIDE_CASES = ROUNDTRIP_CASES + [(2, 2, 4), (3, 2, 2), (3, 3, 1)]


def criterion_census() -> str:
    """Stratum sums equal the brute-force counts on the frozen cases."""
    for (n, q, m), expected in CENSUS_CASES:
        report = census_mod.census(n, q, m)
        if report.total != expected or report.oracle_total != expected:
            raise AssertionError(
                f"({n},{q},{m}): strata {report.total}, "
                f"oracle {report.oracle_total}, expected {expected}")
    return f"{len(CENSUS_CASES)} configurations agree with the oracle"


def criterion_roundtrip(cases=ROUNDTRIP_CASES) -> str:
    """Fibers validate, match their stratum, classify back exactly, and
    glue across every chart of the complete-flag atlas that refines their
    flag."""
    total = 0
    for n, q, m in cases:
        space = _space(n, q, m)
        charts = atlas(space)
        for chart in charts:
            for cp in chart_points(chart):
                failure = round_trip(cp, charts)[1]
                if failure is not None:
                    raise AssertionError(f"{failure} at {cp}")
                total += 1
    return f"{total} chart points round-trip"


def criterion_contraction_compat() -> str:
    """Contracting a fiber along the top flag step matches the fiber of the
    truncated coordinates in the one-lower chart."""
    total = 0
    n, q, m = 3, 2, 1
    space = _space(n, q, m)
    for chart in atlas(space):
        w = chart.flag.steps[n - 1]
        sub_space = LinSpace(space.vs, w, space.mod)
        sub_chart = Chart(sub_space, chart.basis[:n - 1])
        for cp in chart_points(chart):
            contracted = contract_fern(fiber(cp), w)
            reference = fiber(chart_point(sub_chart, cp.t[:n - 2]))
            if curve.are_isomorphic(contracted.tree, reference.tree) is None:
                raise AssertionError(f"contraction mismatch at {cp}")
            total += 1
    return f"{total} fibers contract compatibly"


PIPELINE_CONFIGS = [(1, 2, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2),
                    (1, 3, 1), (2, 3, 1), (2, 3, 2), (3, 3, 1)]


def _pipeline_ferns(count: int, seed: int) -> list:
    """(fern, build log) pairs from seeded random pipelines."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n, q, m = PIPELINE_CONFIGS[i % len(PIPELINE_CONFIGS)]
        out.append(random_pipeline_fern(_space(n, q, m), rng))
    return out


def criterion_graft_axioms(ferns: list, seed: int = 0) -> str:
    """Randomly built and contracted ferns validate, and every contraction
    is flag-compatible."""
    rng = random.Random(seed + 1)
    checked = 0
    for fern, log in ferns:
        violations = fern_violations(fern.tree, fern.space)
        if violations:
            raise AssertionError(f"pipeline {log} invalid: {violations}")
        if fern.space.dim > 1:
            steps = fern.space.proper_steps()
            w = rng.choice(steps)
            sub = contract_fern(fern, w)
            if fern.flag.intersect(w).steps != sub.flag.steps:
                raise AssertionError(f"flag compatibility fails for {log}")
        checked += 1
    return f"{checked} pipeline ferns valid and flag-compatible"


def criterion_knudsen(count: int = 200, seed: int = 0) -> str:
    """Stabilize-then-contract identity and contraction order independence.

    The order check keeps between 3 and all but one of the marks, so the
    direct contraction can keep several components and put a forgotten
    mark on one of their nodes, where placing it depends on the order
    unless it is canonical."""
    rng = random.Random(seed + 2)
    fld = field_make(2, 1, 2)
    for i in range(count):
        size = rng.randint(3, 8)
        labels = list(range(1, size + 1))
        tree = random_stable_tree(fld, labels, rng)
        stabilized = stabilize_at_random(tree, size + 1, rng)
        back = curve.contract(stabilized, labels)
        if curve.are_isomorphic(back, tree) is None:
            raise AssertionError(f"stabilize/contract failed at trial {i}")
        if size >= 4:
            keep = rng.sample(labels, rng.randint(3, size - 1))
            forget = [l for l in labels if l not in keep]
            direct = curve.contract(tree, keep)
            for _ in range(2):
                order = forget[:]
                rng.shuffle(order)
                stepwise = tree
                remaining = set(labels)
                for lbl in order:
                    remaining.discard(lbl)
                    stepwise = curve.contract(stepwise, remaining)
                if stepwise != direct:
                    raise AssertionError(f"order dependence at trial {i}")
    return f"{count} stabilization and contraction identities hold"


DRINFELD_CONFIGS = [(1, 2, 1), (1, 2, 2), (2, 2, 2), (2, 2, 3), (3, 2, 3),
                    (1, 3, 1), (1, 3, 2), (2, 3, 2), (2, 3, 3), (3, 3, 3)]


def criterion_drinfeld(count: int = 50, seed: int = 0) -> str:
    """Additive-polynomial shape and kernel for random injective markings."""
    rng = random.Random(seed + 3)
    for i in range(count):
        n, q, m = DRINFELD_CONFIGS[i % len(DRINFELD_CONFIGS)]
        space = _space(n, q, m)
        fld = space.field
        lam = injective_linear_marking(space, rng)
        if lam is None:
            raise AssertionError(f"no injective marking found at trial {i}")
        # oracle: expand prod (x - lambda_v) and scan the exponents
        coeffs = expand_root_product(fld, [lam[v] for v in space.vectors()])
        qpowers = {q ** j for j in range(n + 1)}
        for exp, c in enumerate(coeffs):
            if c and exp not in qpowers:
                raise AssertionError(f"exponent {exp} survives at trial {i}")
        psi = drinfeld_psi(LineData(space, lam))
        if psi.x_coefficient() != fld.one or psi.degree != q ** n:
            raise AssertionError(f"wrong shape at trial {i}")
        roots = {x.coeffs for x in fld.elements()
                 if not psi.evaluate_scalar_part(x)}
        if roots != {lam[v].coeffs for v in space.vectors()}:
            raise AssertionError(f"kernel mismatch at trial {i}")
    return f"{count} additive polynomials verified"


def criterion_reciprocal(ferns: list) -> str:
    """Reciprocal axioms for the pipeline ferns; inverse values on smooth ones."""
    checked = 0
    for fern, log in ferns:
        rd = reciprocal_data(fern)
        space = fern.space
        fld = space.field
        for v in space.vectors():
            if v == space.zero:
                continue
            for c in range(2, space.q):
                lhs = rd.values[space.scale(c, v)]
                rhs = fld.scalar(fld.s_inv[c]) * rd.values[v]
                if lhs != rhs:
                    raise AssertionError(f"scaling axiom fails for {log}")
            for w in space.vectors():
                if w == space.zero:
                    continue
                s = space.add(v, w)
                if s == space.zero:
                    continue
                if rd.values[v] * rd.values[w] != \
                        rd.values[s] * (rd.values[v] + rd.values[w]):
                    raise AssertionError(f"addition axiom fails for {log}")
        if fern.is_smooth():
            ld = line_data(fern)
            products = {(rd.values[v] * ld.values[v]).coeffs
                        for v in space.vectors() if v != space.zero}
            if len(products) != 1:
                raise AssertionError(f"not inverse to the line datum: {log}")
        checked += 1
    return f"{checked} reciprocal data satisfy both axioms"


def criterion_equivariance() -> str:
    """Every marked section and each of its group translates satisfies the
    defining equations, and every vector mark of the closed-form fiber sits
    where its section locates it, exhaustively for dimension 3 over F_2."""
    space = _space(3, 2, 1)
    total = 0
    for chart in atlas(space):
        for cp in chart_points(chart):
            equations = PointEquations(cp)
            marking = fiber(cp).tree.marking
            for u in space.vectors():
                home, pos = locate_component(
                    cp, section_assignment(cp, chart.to_coords(u)))
                if marking[u] != (component_id(chart, home), pos):
                    raise AssertionError(f"mark {u} is off its section at {cp}")
            for u in list(space.vectors()) + [INF]:
                u_b = INF if u == INF else chart.to_coords(u)
                for g in [None] + group_elements(space):
                    assignment = section_assignment(cp, u_b, g=g)
                    if not equations.check(assignment):
                        raise AssertionError(
                            f"equations fail for u={u}, g={g}")
                    total += 1
    return f"{total} section translates satisfy the equations"


# ---------------------------------------------------------------------------
# Module-level invariants (beyond the acceptance criteria)
# ---------------------------------------------------------------------------

def invariant_field_axioms(seed: int = 0) -> str:
    rng = random.Random(seed + 4)
    for p, e, m in [(2, 1, 1), (2, 1, 2), (3, 1, 2), (2, 2, 1), (2, 2, 2),
                    (5, 1, 1), (3, 1, 3), (2, 1, 8), (3, 1, 4), (2, 4, 2)]:
        fld = field_make(p, e, m)
        els = fld.elements()
        for _ in range(1000):
            a, b, c = (rng.choice(els) for _ in range(3))
            if (a + b) + c != a + (b + c):
                raise AssertionError(f"addition is not associative in {fld}")
            if (a * b) * c != a * (b * c):
                raise AssertionError(f"multiplication is not associative in {fld}")
            if a * (b + c) != a * b + a * c:
                raise AssertionError(f"distributivity fails in {fld}")
            if a and a * a.inverse() != fld.one:
                raise AssertionError(f"a * a^-1 != 1 in {fld}")
        fixed = {x.coeffs for x in els if fld.frobenius(x) == x}
        if fixed != {fld.scalars[i].coeffs for i in range(fld.q)}:
            raise AssertionError(f"Frobenius fixed points are not F_q in {fld}")
    return "field axioms and Frobenius fixed subfield hold"


def invariant_subspace_counts() -> str:
    for q, n in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
        vs = VSpace(census_mod._field_for(q, 1), n)
        for d in range(n + 1):
            subs = subspaces(vs, d)
            if not len(subs) == len(set(subs)) == gaussian_binomial(n, d, q):
                raise AssertionError(f"{d}-subspaces of F_{q}^{n} miscounted")
        if len(flags(vs)) != len(_all_chains(vs)):
            raise AssertionError(f"flags of F_{q}^{n} miscounted")
    return "subspace and flag enumerations match their oracles"


def _all_chains(vs) -> list:
    # independent chain oracle: exhaustive spans, then chain DFS
    seen = {}
    vecs = vs.vectors()
    for r in range(vs.n + 1):
        for combo in itertools.combinations(vecs, r):
            w = Subspace.from_vectors(vs, combo)
            seen[w.rows] = w
    lattice = list(seen.values())
    zero = Subspace.zero(vs)
    full = Subspace.full(vs)
    chains = []

    def grow(chain):
        if chain[-1] == full:
            chains.append(tuple(chain))
            return
        for w in lattice:
            if w.dim > chain[-1].dim and w.contains_subspace(chain[-1]):
                grow(chain + [w])

    grow([zero])
    return chains


def invariant_group_laws() -> str:
    for q, n in [(2, 2), (3, 1), (3, 2)]:
        space = _space(n, q, 1)
        G = group_elements(space)
        ident = GroupElement.identity(space)
        for a in G:
            if group_mul(a, group_inv(a)) != ident:
                raise AssertionError(f"a * a^-1 is not the identity for {a}")
            for b in G:
                for w in list(space.vectors()) + [INF]:
                    if group_act(group_mul(a, b), w) != \
                            group_act(a, group_act(b, w)):
                        raise AssertionError(f"(ab).w != a.(b.w) for {a}, {b}")
    return "group laws and the left action hold exhaustively"


def invariant_fern_uniqueness_dim1(seed: int = 0) -> str:
    rng = random.Random(seed + 5)
    for q, m in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        space = _space(1, q, m)
        ferns = [random_fern(space, rng) for _ in range(5)]
        for other in ferns[1:]:
            if curve.are_isomorphic(ferns[0].tree, other.tree) is None:
                raise AssertionError(f"two dimension-1 ferns differ, q={q} m={m}")
    return "dimension-1 ferns are unique up to isomorphism"


def invariant_fiber_injectivity() -> str:
    for n, q, m in [(1, 2, 1), (2, 2, 1), (2, 3, 1), (2, 2, 2), (3, 2, 1)]:
        space = _space(n, q, m)
        for chart in atlas(space):
            fibers = [(cp, fiber(cp)) for cp in chart_points(chart)]
            for i, (cp1, f1) in enumerate(fibers):
                for cp2, f2 in fibers[i + 1:]:
                    if curve.are_isomorphic(f1.tree, f2.tree) is not None:
                        raise AssertionError(
                            f"distinct points {cp1} and {cp2} collide")
    return "distinct chart points give non-isomorphic fibers"


def invariant_census_sweep(limit: int = 256) -> str:
    checked = census_mod.confirm_omega_closed_form(limit)
    return f"closed-form count confirmed on {len(checked)} configurations"


# ---------------------------------------------------------------------------
# The matrix
# ---------------------------------------------------------------------------

def run_all(seed: int = 0, quick: bool = False) -> List[CheckResult]:
    count = 40 if quick else 200
    dcount = 20 if quick else 50
    # built once, by whichever of the two checks that share them runs first
    ferns = functools.cache(lambda: _pipeline_ferns(count, seed))
    checks = [
        ("census agreement", criterion_census),
        ("main theorem round trip", lambda: criterion_roundtrip(
            ROUNDTRIP_CASES if quick else ROUNDTRIP_WIDE_CASES)),
        ("contraction compatibility", criterion_contraction_compat),
        ("fern axioms under grafting",
         lambda: criterion_graft_axioms(ferns(), seed)),
        ("stabilize/contract algebra", lambda: criterion_knudsen(count, seed)),
        ("additive polynomial shape", lambda: criterion_drinfeld(dcount, seed)),
        ("reciprocal axioms", lambda: criterion_reciprocal(ferns())),
        ("equation equivariance", criterion_equivariance),
        ("field axioms", lambda: invariant_field_axioms(seed)),
        ("subspace enumeration", invariant_subspace_counts),
        ("group laws", invariant_group_laws),
        ("dimension-1 uniqueness", lambda: invariant_fern_uniqueness_dim1(seed)),
        ("fiber injectivity", invariant_fiber_injectivity),
        ("census closed form sweep",
         lambda: invariant_census_sweep(64 if quick else 256)),
    ]
    return [_run(name, fn) for name, fn in checks]
