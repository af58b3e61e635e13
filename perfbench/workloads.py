"""The four workloads: seeded inputs, one op per input, and output checks.

A workload's ``setup`` builds everything an op needs from the seed, its
``run`` performs one op through the ferns package's public functions, and
its ``check`` returns the problems it finds in the op's output, using
``oracles`` for every expected value.  The ferns modules arrive as a
namespace ``F`` so that a fresh import can be set up more than once in a
process.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field
from typing import List

import oracles


@dataclass
class State:
    """What one setup produced: the ops of a round and what checks need."""

    ops: list
    value_field: object  # the field whose arithmetic the gf timings use
    field_build_ms: float
    problems: List[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def _make_fields(F, specs):
    """Build the workload's fields; returns them and the milliseconds spent."""
    t0 = time.perf_counter_ns()
    out = [F.gf.field_make(p, e, m) for p, e, m in specs]
    return out, (time.perf_counter_ns() - t0) / 1e6


def _prime_power(q: int):
    for p in range(2, q + 1):
        if q % p == 0:
            e, rest = 0, q
            while rest % p == 0:
                rest //= p
                e += 1
            if rest != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, e
    raise ValueError(f"{q} is not a prime power")


# ---------------------------------------------------------------------------
# Round trips: fiber -> classify -> chart_coords -> fiber -> are_isomorphic
# ---------------------------------------------------------------------------

class RoundTrip:
    """One op per chart point runs the steps of ``ferns roundtrip``."""

    def __init__(self, name, p, m, n, sample=None):
        self.name, self.p, self.m, self.n = name, p, m, n
        self.sample = sample  # how many points one round takes; None = all

    def setup(self, F, seed) -> State:
        (fld,), build_ms = _make_fields(F, [(self.p, 1, self.m)])
        q, n, m = fld.q, self.n, self.m
        vs = F.gf.VSpace(fld, n)
        space = F.gf.LinSpace.full(vs)
        flags = sorted(F.gf.complete_flags(vs), key=lambda f: f.key())
        problems = []
        expected_flags = 1
        for i in range(1, n + 1):
            expected_flags *= oracles.gaussian_binomial(i, 1, q)
        if len(flags) != expected_flags:
            problems.append(f"{len(flags)} complete flags, expected "
                            f"{expected_flags}")
        per_chart = oracles.chart_point_count(n, q, m)
        points = []
        for flag in flags:
            chart = F.universal.Chart.for_flag(space, flag)
            found = F.universal.chart_points(chart)
            if len(found) != per_chart:
                problems.append(f"chart {flag.key()} has {len(found)} points, "
                                f"expected {per_chart}")
            points.extend(found)
        rng = random.Random(seed)
        ops = rng.sample(points, self.sample or len(points))
        vectors = list(itertools.product(range(q), repeat=n))
        return State(ops, fld, build_ms, problems, {"vectors": vectors})

    def run(self, F, state, cp):
        U = F.universal
        chart = cp.chart
        fb = U.fiber(cp)
        t_back = U.chart_coords(U.classify(fb), chart)
        fb2 = U.fiber(U.chart_point(chart, t_back))
        iso = F.curve.are_isomorphic(fb.tree, fb2.tree)
        return fb, t_back, fb2, iso

    def check(self, F, state, cp, out) -> List[str]:
        fb, t_back, fb2, iso = out
        chart = cp.chart
        n, q = chart.n, chart.q
        problems = []
        if tuple(t_back) != tuple(cp.t):
            problems.append("recovered t differs from t")
        if iso is None:
            problems.append("second fiber is not isomorphic to the first")
        zeros = [not x for x in cp.t]
        components = oracles.fiber_component_count(zeros, n, q)
        for tree in (fb.tree, fb2.tree):
            if len(tree.marking) != q ** n + 1:
                problems.append(f"fiber has {len(tree.marking)} marks")
            if len(tree.components) != components:
                problems.append(f"fiber has {len(tree.components)} "
                                f"components, expected {components}")
        values = F.fern.line_data(fb).values
        if sorted(values) != state.extra["vectors"]:
            problems.append("line datum is not defined on every vector")
            return problems
        if oracles.additivity_failures(values, q):
            problems.append("line datum is not additive")
        kernel = {v for v, x in values.items() if not x}
        step = chart.basis[:oracles.last_zero_position(zeros)]
        if kernel != oracles.span(step, n, q):
            problems.append("line datum kernel is not the second-to-last "
                            "stratum step")
        return problems


# ---------------------------------------------------------------------------
# Census table
# ---------------------------------------------------------------------------

# (n, q, m, run the brute-force oracle).  The oracle runs only where its
# tuple space fits the CLI's default budget of 10^6.  (5,2,1) is left out:
# its 8-9 s stratum sum would leave room for only two or three rounds in a
# run, and the medians would rest on two or three samples.  An odd count
# puts the median op on one configuration.
CENSUS_TABLE = (
    (1, 2, 1, True), (2, 2, 1, True), (2, 2, 2, True), (2, 3, 1, True),
    (2, 2, 3, True), (3, 2, 1, True),
    (3, 2, 2, False), (3, 3, 1, False), (3, 4, 1, False), (3, 5, 1, False),
    (4, 2, 1, False), (4, 2, 2, False), (4, 3, 1, False),
)


class CensusTable:
    """One op per configuration calls ``census.census``."""

    name = "census-table"

    def setup(self, F, seed) -> State:
        specs = sorted({_prime_power(q) + (m,) for _, q, m, _ in CENSUS_TABLE})
        fields, build_ms = _make_fields(F, specs)
        ops = list(CENSUS_TABLE)
        random.Random(seed).shuffle(ops)
        value_field = fields[specs.index((3, 1, 1))]  # the field of (4,3,1)
        return State(ops, value_field, build_ms)

    def run(self, F, state, op):
        n, q, m, with_oracle = op
        return F.census.census(n, q, m, with_oracle=with_oracle)

    def check(self, F, state, op, report) -> List[str]:
        n, q, m, with_oracle = op
        problems = []
        if (report.n, report.q, report.m) != (n, q, m):
            problems.append("report is for another configuration")
        total = oracles.total_count(n, q, m)
        if report.total != total:
            problems.append(f"TOTAL {report.total}, expected {total}")
        flags = oracles.flag_count(n, q)
        keys = {key for key, _ in report.strata}
        if len(report.strata) != flags or len(keys) != flags:
            problems.append(f"{len(report.strata)} rows, expected {flags}")
        for key, count in report.strata:
            dims = oracles.flag_key_dims(key)
            if dims[0] != 0 or dims[-1] != n or \
                    count != oracles.row_count(key, q, m):
                problems.append(f"row {key} counts {count}")
                break
        oracle = report.oracle_total
        if with_oracle and oracle != report.total:
            problems.append(f"ORACLE {oracle} differs from TOTAL")
        if not with_oracle and oracle is not None:
            problems.append("oracle ran where it was not asked for")
        return problems


# ---------------------------------------------------------------------------
# Fern pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BuildOp:
    seed: int
    step: object  # the Subspace to contract to


@dataclass(frozen=True)
class RejectOp:
    data: dict  # JSON tree of a broken fern


class FernPipeline:
    """Build, dump, load, contract and read back graft-built ferns on
    F_3^3 over GF(3); a seeded minority of ops loads a broken tree."""

    name = "fern-pipeline"
    builds = 6  # build ops per round
    rejects = 2  # reject ops per round

    def setup(self, F, seed) -> State:
        (f3, f27), build_ms = _make_fields(F, [(3, 1, 1), (3, 1, 3)])
        vs = F.gf.VSpace(f3, 3)
        space = F.gf.LinSpace.full(vs)
        lines, planes = F.gf.subspaces(vs, 1), F.gf.subspaces(vs, 2)
        rng = random.Random(seed)
        # contraction steps alternate between lines and planes, so every
        # round has the same make-up whatever the seed
        ops = [BuildOp(rng.getrandbits(32),
                       rng.choice(lines if i % 2 == 0 else planes))
               for i in range(self.builds)]
        problems = []
        for _ in range(self.rejects):
            data, problem = self._broken_tree(F, f27, rng)
            ops.append(RejectOp(data))
            if problem:
                problems.append(problem)
        rng.shuffle(ops)
        return State(ops, f3, build_ms, problems, {"space": space})

    @staticmethod
    def _broken_tree(F, fld, rng):
        """A smooth fern on F_3^2 over GF(27) with one vector mark moved off
        the image of its line datum, as fern JSON."""
        C = F.curve
        space = F.gf.LinSpace.full(F.gf.VSpace(fld, 2))
        vectors = space.vectors()
        while True:
            a, b = (fld.from_int(rng.randrange(1, fld.order)) for _ in "ab")
            lam = {v: fld.element([v[0]]) * a + fld.element([v[1]]) * b
                   for v in vectors}
            if len({x.coeffs for x in lam.values()}) == len(vectors):
                break
        marking = {v: C.ProjPoint.affine(x) for v, x in lam.items()}
        marking[F.gf.INF] = C.ProjPoint.infinity(fld)
        cid = ("P", space.sub.key())
        problem = None
        try:
            F.fern.validate_fern(C.single_component_tree(fld, marking, cid),
                                 space)
        except F.fern.InvalidFern as exc:
            problem = f"unbroken smooth fern is invalid: {exc}"
        used = {x.coeffs for x in lam.values()}
        free = [x for x in fld.elements() if x.coeffs not in used]
        moved = rng.choice([v for v in vectors if any(v)])
        marking[moved] = C.ProjPoint.affine(rng.choice(free))
        tree = C.single_component_tree(fld, marking, cid)
        data = F.jsonio.tree_to_json(tree)
        data["space"] = F.jsonio.space_to_json(space)
        return data, problem

    def run(self, F, state, op):
        J, FE = F.jsonio, F.fern
        if isinstance(op, RejectOp):
            try:
                return J.fern_from_json(op.data)
            except FE.InvalidFern as exc:
                return exc
        f = F.rand.random_fern(state.extra["space"], random.Random(op.seed))
        text = J.dumps(J.fern_to_json(f))
        g = J.fern_from_json(json.loads(text))
        text2 = J.dumps(J.fern_to_json(g))
        c = FE.contract_fern(g, op.step)
        point = F.universal.classify(c)
        ld = FE.line_data(c)
        rd = FE.reciprocal_data(c)
        psi = FE.drinfeld_psi(ld) if c.is_smooth() else None
        return f, text, g, text2, c, point, ld, rd, psi

    def check(self, F, state, op, out) -> List[str]:
        if isinstance(op, RejectOp):
            if not isinstance(out, F.fern.InvalidFern):
                return ["broken tree was accepted"]
            if not oracles.names_group_element(out.violations):
                return ["rejection names no group element"]
            return []
        f, text, g, text2, c, point, ld, rd, psi = out
        space = state.extra["space"]
        q, n = space.q, space.dim
        fld = space.field
        problems = []
        # with no room for a smooth step of dimension 2, every flag step
        # has dimension 1 and the tree has (q^n - 1)/(q - 1) components
        if len(f.tree.marking) != q ** n + 1 or \
                len(f.tree.components) != sum(q ** k for k in range(n)):
            problems.append("built fern has the wrong shape")
        if text2 != text:
            problems.append("dump(load(dump)) differs from dump")
        if c.flag.steps != g.flag.intersect(op.step).steps:
            problems.append("contracted flag is not flag.intersect(w)")
        dim = op.step.dim
        if c.space.dim != dim or (dim == 1 and not c.is_smooth()):
            problems.append("contracted fern has the wrong space or shape")
        values = ld.values
        members = oracles.span(op.step.rows, n, q)
        if set(values) != members:
            problems.append("line datum is not defined on the step")
            return problems
        if oracles.additivity_failures(values, q):
            problems.append("line datum is not additive")
        kernel = {v for v, x in values.items() if not x}
        if kernel != oracles.span(c.flag.steps[-2].rows, n, q):
            problems.append("line datum kernel is not the second-to-last "
                            "flag step")
        classes = sum(oracles.gaussian_binomial(dim, d, q)
                      for d in range(1, dim + 1))
        top = point.functionals.get(op.step)
        if len(point.functionals) != classes or top != tuple(
                values[b] for b in c.space.basis()):
            problems.append("classify disagrees with the line datum")
        if set(rd.values) != members - {(0,) * n} or \
                oracles.reciprocal_failures(rd.values, fld, q):
            problems.append("reciprocal data break an axiom")
        if c.is_smooth():
            failed = oracles.psi_failures(psi, values, fld, q, dim)
            if failed:
                problems.append("psi fails: " + ", ".join(failed))
        elif psi is not None:
            problems.append("psi computed on a non-smooth fern")
        return problems


WORKLOADS = {
    w.name: w for w in (
        RoundTrip("roundtrip-deep", p=2, m=1, n=4, sample=6),
        RoundTrip("roundtrip-bigfield", p=2, m=8, n=2),
        CensusTable(),
        FernPipeline(),
    )
}
