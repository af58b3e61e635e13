import itertools
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ferns import curve
from ferns import fern as fern_mod
from ferns.curve import ProjPoint
from ferns.census import bv_count_strata
from ferns.fern import Fern, contract_fern, line_data, reciprocal_data
from ferns.gf import (INF, Flag, LinSpace, Subspace, VSpace, complete_flags,
                      field_make, group_elements)
from ferns.rand import random_fern, random_pipeline_fern
from ferns import universal
from ferns.universal import (Chart, ChartPoint, ClassPoint, PointEquations,
                             chart_contains, chart_coords, chart_point,
                             chart_points, check_equations, classify,
                             compatibility_checker, component_constraint,
                             fiber, functional_candidates, locate_component,
                             q_value, round_trip, section_assignment,
                             sigma_indices)

from conftest import reference_contract, space


# ---------------------------------------------------------------------------
# Q polynomials: Q^k_v as explicit polynomials in the chart coordinates
# T_1 .. T_{n-1}, the oracle for q_value
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QPoly:
    """A polynomial in T_1..T_{n-1} with scalar coefficients (index form)."""

    field: object  # the value field, for scalar tables and evaluation
    nvars: int
    terms: tuple  # sorted tuple of (exponent tuple, scalar index)

    @classmethod
    def build(cls, field, nvars, term_map):
        terms = tuple(sorted((e, c) for e, c in term_map.items() if c))
        return cls(field, nvars, terms)

    def add(self, other):
        acc = dict(self.terms)
        s_add = self.field.s_add
        for e, c in other.terms:
            acc[e] = s_add[acc.get(e, 0)][c]
        return QPoly.build(self.field, self.nvars, acc)

    def scale(self, c):
        s_mul = self.field.s_mul
        return QPoly.build(self.field, self.nvars,
                           {e: s_mul[c][x] for e, x in self.terms})

    def mul(self, other):
        acc = {}
        s_add, s_mul = self.field.s_add, self.field.s_mul
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = s_add[acc.get(e, 0)][s_mul[c1][c2]]
        return QPoly.build(self.field, self.nvars, acc)

    def evaluate(self, t):
        fld = self.field
        total = fld.zero
        for exps, c in self.terms:
            term = fld.scalar(c)
            for e, value in zip(exps, t):
                for _ in range(e):
                    term = term * value
            total = total + term
        return total


def _suffix_monomial(nvars, lo, hi):
    """Exponents of prod T_j for j in [lo, hi), 1-based variable indexing."""
    return tuple(1 if lo <= j + 1 < hi else 0 for j in range(nvars))


def q_poly(chart, v, k):
    """Q^k_v as a polynomial: sum over i <= k of c_i * T_i .. T_{k-1}."""
    c = chart.to_coords(v)
    n = chart.n
    if any(c[i] for i in range(k, n)):
        raise ValueError("vector lies outside the k-th flag step")
    terms = {}
    s_add = chart.field.s_add
    for i in range(1, k + 1):
        if c[i - 1]:
            e = _suffix_monomial(n - 1, i, k)
            terms[e] = s_add[terms.get(e, 0)][c[i - 1]]
    return QPoly.build(chart.field, n - 1, terms)


def test_q_poly_basis_cases():
    ch = Chart(space(3, 2))
    # the k-th basis vector at level k: the empty product
    assert q_poly(ch, (0, 0, 1), 3).terms == (((0, 0), 1),)
    # the previous basis vector: a single variable
    assert q_poly(ch, (0, 1, 0), 3).terms == (((0, 1), 1),)
    assert q_poly(ch, (0, 1, 0), 2).terms == (((0,) * 2, 1),)


def test_q_poly_linearity():
    ch = Chart(space(2, 3))
    fld = ch.field
    for v in ch.space.vectors():
        for w in ch.space.vectors():
            for c in range(3):
                s = ch.space.add(ch.space.scale(c, v), w)
                lhs = q_poly(ch, s, 2)
                rhs = q_poly(ch, v, 2).scale(c).add(q_poly(ch, w, 2))
                assert lhs.terms == rhs.terms


def test_q_poly_lower_dimension_identity():
    ch = Chart(space(3, 3))
    shift = QPoly.build(ch.field, 2, {(1, 1): 1})  # T_1 T_2
    for v in [(1, 0, 0), (2, 0, 0)]:
        assert q_poly(ch, v, 3).terms == q_poly(ch, v, 1).mul(shift).terms
    shift2 = QPoly.build(ch.field, 2, {(0, 1): 1})  # T_2
    for v in [(1, 1, 0), (0, 2, 0)]:
        assert q_poly(ch, v, 3).terms == q_poly(ch, v, 2).mul(shift2).terms


def test_q_poly_rejects_vector_outside_step():
    ch = Chart(space(3, 2))
    with pytest.raises(ValueError):
        q_poly(ch, (0, 0, 1), 2)


@pytest.mark.parametrize("n,q,m", [(3, 2, 2), (4, 2, 1)])
def test_q_value_matches_polynomial_evaluation(n, q, m):
    # every level from lev(v) up, so every row of the suffix table is read;
    # the points include t with zero entries, whose rows hold zero products
    sp = space(n, q, m)
    charts = [Chart(sp), Chart.for_flag(sp, complete_flags(sp.vs)[-1])]
    points = [cp for ch in charts for cp in chart_points(ch)]
    assert any(not x for cp in points for x in cp.t)
    for cp in points:
        ch = cp.chart
        for v in sp.vectors():
            c = ch.to_coords(v)
            for k in range(universal._lev(c), ch.n + 1):
                assert q_value(cp, c, k) == q_poly(ch, v, k).evaluate(cp.t)


# ---------------------------------------------------------------------------
# chart membership
# ---------------------------------------------------------------------------

def test_chart_contains_zero_point():
    ch = Chart(space(2, 2))
    ok, stratum = chart_contains(ch, (ch.field.zero,))
    assert ok and stratum.is_complete()


def test_chart_rejects_rational_combination():
    ch = Chart(space(2, 2))
    ok, _ = chart_contains(ch, (ch.field.one,))  # T_1 + 1 vanishes at 1
    assert not ok


def test_chart_accepts_generic_extension_point():
    ch = Chart(space(2, 2, 2))
    omega = ch.field.element((0, 1))
    ok, stratum = chart_contains(ch, (omega,))
    assert ok and len(stratum.steps) == 2  # trivial flag: a smooth point


def test_chart_point_counts():
    # frozen from exhaustive enumeration over the value fields
    assert len(chart_points(Chart(space(2, 2)))) == 1
    assert len(chart_points(Chart(space(2, 2, 2)))) == 3
    assert len(chart_points(Chart(space(2, 3)))) == 1
    assert len(chart_points(Chart(space(3, 2)))) == 1


def test_stratum_indices_computed_once():
    sp = space(3, 2)
    cp = chart_point(Chart(sp), (sp.field.zero, sp.field.zero))
    assert cp.stratum_indices == (0, 1, 2, 3)
    assert cp.stratum_indices is cp.stratum_indices


def test_chart_requires_adapted_basis():
    sp = space(2, 2)
    ch = Chart(sp)
    other = [f for f in complete_flags(sp.vs)
             if f.steps != ch.flag.steps][0]
    with pytest.raises(ValueError):
        chart_contains(ch, (sp.field.zero,), flag=other)


def test_chart_positions_read_the_flag_once():
    sp = space(3, 2, 2)
    ch = Chart(sp)
    assert [ch.positions[s] for s in ch.flag.steps] == [0, 1, 2, 3]
    fld = sp.field
    omega = fld.element((0, 1))
    coarse = Flag((sp.mod, ch.flag.steps[2], sp.sub))
    assert ch.adapted_to(coarse)
    ok, stratum = chart_contains(ch, (omega, fld.zero), flag=coarse)
    assert ok and stratum == coarse
    assert ChartPoint(ch, (omega, fld.zero), stratum).stratum_indices \
        == (0, 2, 3)
    # a plane that the chart's flag skips: the flag through it is not
    # adapted to the chart, whatever the coordinates
    plane = next(w for w in sp.subspace_steps(2) if w not in ch.positions)
    skew = Flag((sp.mod, plane, sp.sub))
    assert not ch.adapted_to(skew)
    for t in ((omega, fld.zero), (omega, omega)):
        with pytest.raises(ValueError):
            chart_contains(ch, t, flag=skew)


def test_subflag_chart_membership():
    # over F_4 the nonzero chart points belong to the trivial-flag chart
    ch = Chart(space(2, 2, 2))
    omega = ch.field.element((0, 1))
    from ferns.gf import Flag
    trivial = Flag((ch.flag.steps[0], ch.flag.steps[-1]))
    ok, _ = chart_contains(ch, (omega,), flag=trivial)
    assert ok
    ok, _ = chart_contains(ch, (ch.field.zero,), flag=trivial)
    assert not ok  # zero coordinate needs the interior step


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------

def test_fiber_dimension_one_is_the_unique_fern():
    for q in (2, 3):
        sp = space(1, q)
        cp = chart_point(Chart(sp), ())
        fb = fiber(cp)
        assert fb.is_smooth()
        ld = line_data(fb)
        # marks sit at their own scalar values, up to normalization
        fld = sp.field
        for c in range(1, q):
            assert ld.values[(c,)] == fld.scalar(c) * ld.values[(1,)]


def test_fiber_n2_q2_degenerate_structure():
    sp = space(2, 2)
    cp = chart_point(Chart(sp), (sp.field.zero,))
    fb = fiber(cp)
    assert len(fb.tree.components) == 3
    comp_of = {v: fb.tree.marking[v][0] for v in sp.vectors()}
    # cosets of the first flag step share components
    assert comp_of[(0, 0)] == comp_of[(1, 0)]
    assert comp_of[(0, 1)] == comp_of[(1, 1)]
    assert comp_of[(0, 0)] != comp_of[(0, 1)]
    spine = fb.tree.marking[INF][0]
    assert len(fb.tree.neighbors(spine)) == 2
    assert fb.flag.steps == cp.stratum.steps


def test_fiber_smooth_ratio_matches_coordinate():
    sp = space(2, 2, 2)
    ch = Chart(sp)
    omega = ch.field.element((0, 1))
    fb = fiber(chart_point(ch, (omega,)))
    assert fb.is_smooth()
    ld = line_data(fb)
    assert ld.values[(1, 0)] / ld.values[(0, 1)] == omega


def test_fiber_matches_graft_shape(rng):
    # the degenerate fiber equals the graft of two dimension-1 pieces
    sp = space(2, 2)
    fb = fiber(chart_point(Chart(sp), (sp.field.zero,)))
    vs = sp.vs
    w = Subspace.from_vectors(vs, [(1, 0)])
    sub = random_fern(LinSpace(vs, w, Subspace.zero(vs)), rng)
    quot = random_fern(LinSpace(vs, Subspace.full(vs), w), rng)
    from ferns.fern import graft
    g = graft(sub, quot, Subspace.from_vectors(vs, [(0, 1)]))
    assert curve.are_isomorphic(fb.tree, g.tree) is not None


def test_fiber_flag_equals_stratum_everywhere():
    for n, q, m in [(1, 2, 1), (2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 2, 1)]:
        sp = space(n, q, m)
        for flag in complete_flags(sp.vs):
            chart = Chart.for_flag(sp, flag)
            for cp in chart_points(chart):
                assert fiber(cp).flag.steps == cp.stratum.steps


def test_fiber_rejects_non_chart_point():
    ch = Chart(space(2, 2))
    with pytest.raises(ValueError):
        chart_point(ch, (ch.field.one,))


# ---------------------------------------------------------------------------
# the defining equations
# ---------------------------------------------------------------------------

def test_check_equations_infinity_and_zero_sections():
    for n, q, m in [(2, 2, 1), (2, 2, 2), (3, 2, 1), (2, 3, 1)]:
        sp = space(n, q, m)
        ch = Chart(sp)
        for cp in chart_points(ch):
            assert check_equations(cp, section_assignment(cp, INF))
            zero = ch.to_coords(sp.zero)
            assert check_equations(cp, section_assignment(cp, zero))


def garbage_assignments(cp, rng, count=60):
    fld = cp.chart.field
    for _ in range(count):
        assignment = {}
        for idx in sigma_indices(cp):
            x = fld.from_int(rng.randrange(fld.order))
            y = fld.from_int(rng.randrange(fld.order))
            if not x and not y:
                x = fld.one
            assignment[idx] = ProjPoint(x, y)
        yield assignment


def test_check_equations_rejects_random_garbage(rng):
    sp = space(2, 2)
    cp = chart_point(Chart(sp), (sp.field.zero,))
    rejected = sum(not check_equations(cp, assignment)
                   for assignment in garbage_assignments(cp, rng))
    assert rejected > 30  # random points are overwhelmingly off the fiber


def test_section_translates_satisfy_equations_exhaustively():
    sp = space(2, 3)
    ch = Chart(sp)
    for cp in chart_points(ch):
        for u in list(sp.vectors()) + [INF]:
            u_b = INF if u == INF else ch.to_coords(u)
            for g in [None] + group_elements(sp):
                assert check_equations(cp, section_assignment(cp, u_b, g=g))


# ---------------------------------------------------------------------------
# the per-chart-point equations against the pairwise equations
# ---------------------------------------------------------------------------

def reference_check_equations(cp, assignment):
    """The defining equations, every pair of indices at every level."""
    cs = cp.chart.coord_space
    iseq = cp.stratum_indices
    idxs = sigma_indices(cp)
    for l in range(1, len(iseq)):
        il = iseq[l]
        for (v, k) in idxs:
            if k > l:
                continue
            for (v2, k2) in idxs:
                if k2 > l:
                    continue
                diff = cs.sub(v, v2)
                if universal._lev(diff) > il:
                    continue
                p1, p2 = assignment[(v, k)], assignment[(v2, k2)]
                qa = q_value(cp, cs.basis_vector(iseq[k]), il)
                qb = q_value(cp, diff, il)
                qc = q_value(cp, cs.basis_vector(iseq[k2]), il)
                if qa * p1.x * p2.y + qb * p1.y * p2.y != qc * p2.x * p1.y:
                    return False
    return True


def assert_point_equations_match(cp, equations, assignment, memo=None):
    """The per-class check agrees with the pairwise reference; the
    reference's verdict on a repeated assignment comes from ``memo``."""
    key = tuple(assignment.items())
    memo = {} if memo is None else memo
    if key not in memo:
        memo[key] = reference_check_equations(cp, assignment)
    assert equations.check(assignment) == memo[key]


@pytest.mark.parametrize("config", [(3, 2, 1), (2, 2, 2), (2, 3, 1)])
def test_point_equations_match_per_call_search(config):
    sp = space(*config)
    sections = 0
    for flag in complete_flags(sp.vs):
        chart = Chart.for_flag(sp, flag)
        for cp in chart_points(chart):
            equations = PointEquations(cp)
            memo = {}
            for u in list(sp.vectors()) + [INF]:
                u_b = INF if u == INF else chart.to_coords(u)
                for g in [None] + group_elements(sp):
                    assignment = section_assignment(cp, u_b, g=g)
                    assert_point_equations_match(cp, equations, assignment,
                                                 memo)
                    assert equations.check(assignment)
                    sections += 1
    assert sections > 0


def perturbed_sections(cp, rng, count=40):
    """Marked sections and translates with one or two coordinates replaced
    by infinity or a random affine point."""
    chart = cp.chart
    fld = chart.field
    group = group_elements(chart.space)
    us = [INF] + [chart.to_coords(u) for u in chart.space.vectors()]
    for _ in range(count):
        assignment = section_assignment(cp, rng.choice(us),
                                        g=rng.choice([None] + group))
        replaced = min(len(assignment), rng.choice([1, 2]))
        for idx in rng.sample(sorted(assignment), replaced):
            assignment[idx] = rng.choice([
                ProjPoint.infinity(fld),
                ProjPoint.affine(fld.from_int(rng.randrange(fld.order)))])
        yield assignment


@pytest.mark.parametrize("n,q,m", [(3, 2, 1), (2, 3, 1), (2, 2, 2),
                                   (4, 2, 1)])
def test_point_equations_match_on_garbage(n, q, m, rng):
    sp = space(n, q, m)
    charts = [Chart(sp), Chart.for_flag(sp, complete_flags(sp.vs)[-1])]
    points = [cp for ch in charts for cp in chart_points(ch)]
    # a zero t_{i_k} makes Q^{i_l}(b_{i_k}) vanish for every l > k, so
    # points at infinity there take the value (0 : 0)
    assert any(not x for cp in points for x in cp.t)
    outcomes = set()
    for cp in points:
        equations = PointEquations(cp)
        for assignment in itertools.chain(garbage_assignments(cp, rng),
                                          perturbed_sections(cp, rng)):
            assert_point_equations_match(cp, equations, assignment)
            outcomes.add(equations.check(assignment))
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# the closed-form fiber against the fiber solved from the equations
# ---------------------------------------------------------------------------

def reference_node(cp, upper, lower):
    """The full coordinates of the node between two components: the
    intersection of their constraint systems, which must agree wherever
    both pin a coordinate and leave none free."""
    point = {}
    for idx in sigma_indices(cp):
        a = component_constraint(cp, upper, idx)
        b = component_constraint(cp, lower, idx)
        assert a is None or b is None or a == b
        assert a is not None or b is not None
        point[idx] = a if a is not None else b
    return point


def reference_fiber(cp):
    """The fiber solved from the equations: a node between (v, k) and every
    (v', k - 1) of v's residue class at level k, where the two constraint
    systems meet, and each vector mark on the one component its section
    satisfies, after the section passes the defining equations."""
    chart = cp.chart
    iseq = cp.stratum_indices
    idxs = sigma_indices(cp)

    def cid(idx):
        v, k = idx
        return ("E", chart.from_coords(v), k)

    nodes = []
    for upper in idxs:
        for lower in idxs:
            (v, k), (v2, k2) = upper, lower
            if k2 == k - 1 and v[iseq[k]:] == v2[iseq[k]:]:
                point = reference_node(cp, upper, lower)
                nodes.append(curve.node(cid(upper), point[upper],
                                        cid(lower), point[lower]))
    marking = {}
    for u in chart.space.vectors():
        section = section_assignment(cp, chart.to_coords(u))
        assert check_equations(cp, section)
        home, pos = locate_component(cp, section)
        marking[u] = (cid(home), pos)
    marking[INF] = (cid(((0,) * chart.n, len(iseq) - 1)),
                    ProjPoint.infinity(chart.field))
    tree = curve.MarkedTree(chart.field, [cid(i) for i in idxs], nodes,
                            marking)
    return fern_mod.validate_fern(tree, chart.space)


def atlas_points(sp):
    return [cp for flag in complete_flags(sp.vs)
            for cp in chart_points(Chart.for_flag(sp, flag))]


def random_charts(sp, rng, count):
    """``count`` charts on ordered bases drawn at random from the space."""
    charts = []
    while len(charts) < count:
        basis = [rng.choice(sp.vectors()) for _ in range(sp.dim)]
        try:
            charts.append(Chart(sp, basis))
        except ValueError:  # the draw does not span the space
            pass
    return charts


@pytest.mark.parametrize("n,q,m", [(2, 2, 1), (2, 2, 2), (2, 3, 1),
                                   (3, 2, 1), (3, 2, 2)])
def test_fiber_matches_equation_solved_reference(n, q, m):
    for cp in atlas_points(space(n, q, m)):
        assert fiber(cp).tree == reference_fiber(cp).tree


def test_fiber_matches_equation_solved_reference_off_the_standard_charts():
    rng = random.Random(4)
    charts = [ch for config in [(3, 2, 2), (2, 3, 2), (3, 3, 1), (2, 4, 1)]
              for ch in random_charts(space(*config), rng, 4)]
    charts += [Chart(sp) for sp in quotient_spaces()]
    assert any(ch.space.mod.dim for ch in charts)
    points = [cp for ch in charts for cp in chart_points(ch)]
    assert len(points) >= 60
    for cp in points:
        assert fiber(cp).tree == reference_fiber(cp).tree


@pytest.mark.slow
@pytest.mark.parametrize("n,q,m", [(4, 2, 1), (2, 2, 4), (3, 3, 1)])
def test_fiber_matches_equation_solved_reference_wide(n, q, m):
    for cp in atlas_points(space(n, q, m)):
        assert fiber(cp).tree == reference_fiber(cp).tree


def test_fiber_solves_no_equations(monkeypatch):
    points = atlas_points(space(3, 2, 1)) + atlas_points(space(2, 3, 1))
    expected = [fiber(cp).tree for cp in points]

    def refuse(*args, **kwargs):
        raise RuntimeError("fiber solved an equation")

    for name in ["section_assignment", "locate_component", "check_equations",
                 "component_constraint", "PointEquations"]:
        monkeypatch.setattr(universal, name, refuse)
    assert [fiber(cp).tree for cp in points] == expected


# ---------------------------------------------------------------------------
# the round trip glues across charts
# ---------------------------------------------------------------------------

def atlas(sp):
    return [Chart.for_flag(sp, flag) for flag in complete_flags(sp.vs)]


@pytest.mark.parametrize("n,q,m,points,pairs", [(2, 2, 2, 9, 12),
                                                (2, 3, 2, 28, 72),
                                                (3, 2, 1, 21, 0)])
def test_round_trip_fibers_every_chart_holding_the_class(n, q, m, points,
                                                        pairs, monkeypatch):
    calls = []
    real = universal.fiber

    def counted(cp):
        calls.append(cp)
        return real(cp)

    monkeypatch.setattr(universal, "fiber", counted)
    charts = atlas(space(n, q, m))
    checked = 0
    for chart in charts:
        for cp in chart_points(chart):
            assert round_trip(cp, charts)[1] is None
            checked += 1
    assert (checked, len(calls) - checked) == (points, pairs)


def test_round_trip_reports_a_fiber_that_does_not_glue(monkeypatch):
    sp = space(2, 2, 2)
    charts = atlas(sp)
    real = universal.fiber
    first, tampered = charts[0], charts[1]
    # in the tampered chart every fiber is the one over another point there
    others = chart_points(tampered)

    def swapped(cp):
        if cp.chart is not tampered:
            return real(cp)
        return real(next(o for o in others if o.t != cp.t))

    monkeypatch.setattr(universal, "fiber", swapped)
    failures = {round_trip(cp, charts)[1] for cp in chart_points(first)}
    assert failures == {None, "fibers differ across charts"}
    # with isomorphy forced, the classes of the swapped fibers still differ
    monkeypatch.setattr(curve, "are_isomorphic", lambda a, b: {})
    failures = {round_trip(cp, charts)[1] for cp in chart_points(first)}
    assert failures == {None, "classes differ across charts"}
# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_smooth_restrictions_of_global_datum(rng):
    sp = space(2, 2, 2)
    fb = fiber(chart_point(Chart(sp),
                           (sp.field.element((0, 1)),)))
    point = classify(fb)
    ld = line_data(fb)
    for w, values in point.functionals.items():
        basis = sp.subquotient(w).basis()
        lam = [ld.values[b] for b in basis]
        # proportional to the global datum restricted to w
        for i in range(len(basis)):
            for j in range(len(basis)):
                assert values[i] * lam[j] == values[j] * lam[i]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(1, 2, 1), (2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 2, 1)]),
       st.integers(0, 2 ** 32 - 1))
def test_classify_whole_space_is_line_data_on_basis(config, seed):
    f, _ = random_pipeline_fern(space(*config), random.Random(seed))
    ld = line_data(f)
    top = f.space.sub
    assert classify(f).functionals[top] == tuple(
        ld.values[b] for b in f.space.basis())


def test_classify_roundtrip_exact():
    for n, q, m in [(2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 2, 1)]:
        sp = space(n, q, m)
        for flag in complete_flags(sp.vs):
            chart = Chart.for_flag(sp, flag)
            for cp in chart_points(chart):
                assert chart_coords(classify(fiber(cp)), chart) == cp.t


def test_classify_singular_kernels():
    sp = space(2, 2)
    fb = fiber(chart_point(Chart(sp), (sp.field.zero,)))
    point = classify(fb)
    w = fb.flag.steps[1]
    full = sp.sub
    # the full-space functional kills the subspace, the subspace one is injective
    assert all(not point.value(full, v) for v in w.elements())
    assert any(point.value(w, v) for v in w.elements())


def uf_ok(checker, functionals, flag):
    """Chart membership on top of compatibility: for nested pairs not
    separated by the flag, the larger functional must not vanish
    identically on the smaller subspace."""
    if not checker.bv_ok(functionals):
        return False
    combine = checker.space.field.combine
    for w_small, w_big, coords in checker.pairs:
        separated = any(step.contains_subspace(w_small)
                        and not step.contains_subspace(w_big)
                        for step in flag.steps)
        if not separated and not any(combine(c, functionals[w_big])
                                     for c in coords):
            return False
    return True


def test_bv_member_accepts_classified_ferns(rng):
    for _ in range(10):
        fern, _ = random_pipeline_fern(space(2, 2, 2), rng)
        if fern.space.dim < 1:
            continue
        checker = compatibility_checker(fern.space)
        point = classify(fern)
        assert checker.bv_ok(point.functionals)
        assert uf_ok(checker, point.functionals, _completion(fern))


def _completion(fern):
    from ferns.cli import _complete
    return _complete(fern)


def test_all_tuples_compatible_in_dimension_two():
    # restrictions to lines are single values, hence always proportional:
    # for a 2-dimensional space every functional tuple is compatible, which
    # is why the census there equals the full tuple count
    sp = space(2, 2)
    subs = [w for d in (1, 2) for w in sp.subspace_steps(d)]
    import itertools as it
    candidates = [functional_candidates(sp, w) for w in subs]
    points = [ClassPoint(sp, dict(zip(subs, combo)))
              for combo in it.product(*candidates)]
    assert len(points) == 3
    assert all(compatibility_checker(sp).bv_ok(p.functionals) for p in points)


def test_bv_member_rejects_incompatible_tuple():
    # a genuine failure needs a restriction to a plane: take the plane
    # functional killing b_2 and a full functional killing b_1 and b_3
    sp = space(3, 2)
    fld = sp.field
    functionals = {}
    for w in sp.subspace_steps(1):
        functionals[w] = (fld.one,)
    for w in sp.subspace_steps(2):
        functionals[w] = (fld.one, fld.zero)
    for w in sp.subspace_steps(3):
        functionals[w] = (fld.zero, fld.one, fld.zero)
    point = ClassPoint(sp, functionals)
    w_plane = next(w for w in sp.subspace_steps(2)
                   if w.rows == ((1, 0, 0), (0, 1, 0)))
    full = sp.sub
    restricted = [point.value(full, b)
                  for b in sp.subquotient(w_plane).basis()]
    small = point.functionals[w_plane]
    assert restricted[0] * small[1] != restricted[1] * small[0]
    assert not compatibility_checker(sp).bv_ok(point.functionals)


def reference_bv_ok(checker, functionals):
    # every nested pair, those whose small side is a line included
    combine = checker.space.field.combine
    for w_small, w_big, coords in checker.pairs:
        small, big = functionals[w_small], functionals[w_big]
        for i, j in itertools.combinations(range(len(small)), 2):
            if combine(coords[i], big) * small[j] \
                    != combine(coords[j], big) * small[i]:
                return False
    return True


def oracle_tuples(sp):
    subs = [w for d in range(1, sp.dim + 1) for w in sp.subspace_steps(d)]
    candidates = [functional_candidates(sp, w) for w in subs]
    for combo in itertools.product(*candidates):
        yield dict(zip(subs, combo))


@pytest.mark.parametrize("sp", [
    space(2, 2, 2), space(3, 2),
    LinSpace(space(4, 2).vs, Subspace.full(space(4, 2).vs),
             Subspace.from_vectors(space(4, 2).vs, [(0, 1, 1, 0)]))],
    ids=["F2^2/GF4", "F2^3", "F2^4/line"])
def test_bv_ok_matches_every_pair_reference(sp):
    checker = compatibility_checker(sp)
    assert [p for p in checker.pairs
            if sp.subquotient(p[0]).dim >= 2] == checker.plane_pairs
    verdicts = []
    for functionals in oracle_tuples(sp):
        verdict = checker.bv_ok(functionals)
        assert verdict == reference_bv_ok(checker, functionals)
        verdicts.append(verdict)
    assert sum(verdicts) == bv_count_strata(sp.dim, sp.q, sp.field.m).total
    assert all(verdicts) == (not checker.plane_pairs)


def test_uf_member_respects_flag_pairs():
    sp = space(2, 2)
    fb = fiber(chart_point(Chart(sp), (sp.field.zero,)))
    checker = compatibility_checker(sp)
    point = classify(fb)
    assert checker.bv_ok(point.functionals)
    assert uf_ok(checker, point.functionals, fb.flag)
    # the degenerate point lies outside the chart of the other lines' flags
    from ferns.gf import Flag
    for flag in complete_flags(sp.vs):
        if flag.steps[1] != fb.flag.steps[1]:
            assert not uf_ok(checker, point.functionals, flag)


def test_functional_candidates_count():
    sp = space(2, 2)
    for w in sp.subspace_steps(1):
        assert len(functional_candidates(sp, w)) == 1
    for w in sp.subspace_steps(2):
        assert len(functional_candidates(sp, w)) == 3
    sp2 = space(2, 2, 2)
    for w in sp2.subspace_steps(2):
        assert len(functional_candidates(sp2, w)) == 5


# ---------------------------------------------------------------------------
# classification against contraction-based references
# ---------------------------------------------------------------------------

def reference_line_values(tree, sp, origin, pole):
    """Line values read off a built contraction: every component squashed
    onto the pole's, origin at zero, pole at infinity, first other mark at
    one."""
    squashed = curve.contract_to_component(tree, pole)
    pos = {lbl: squashed.marking[lbl][1] for lbl in list(sp.vectors()) + [INF]}
    anchor = next(v for v in sp.vectors()
                  if pos[v] not in (pos[origin], pos[pole]))
    coord = curve.Mobius.to_standard(pos[origin], pos[anchor], pos[pole])
    return {v: coord.apply(pos[v]).affine_value()
            for v in sp.vectors() if v != pole}


def reference_classify(f):
    """For each nonzero W: contract the fern to the marks of W and
    infinity by the collapse loop, then read the line values of the
    contraction; no entry map is read."""
    sp = f.space
    functionals = {}
    for d in range(1, sp.dim + 1):
        for w in sp.subspace_steps(d):
            tree = f.tree
            if w != sp.sub:
                keep = [v for v in sp.vectors() if w.contains(v)] + [INF]
                tree = reference_contract(f.tree, keep)
            sub = sp.subquotient(w)
            values = reference_line_values(tree, sub, sub.zero, INF)
            functionals[w] = universal.canonical_functional(
                [values[b] for b in sub.basis()])
    return functionals


def assert_matches_references(f):
    assert classify(f).functionals == reference_classify(f)
    sp = f.space
    line = reference_line_values(f.tree, sp, sp.zero, INF)
    assert line_data(f).values == fern_mod._canonical_scale(sp, line)
    recip = reference_line_values(f.tree, sp, INF, sp.zero)
    assert reciprocal_data(f).values == fern_mod._canonical_scale(sp, recip)


def sampled_fibers(n, p, e, m, count, seed):
    """``count`` seeded chart points over every complete flag of F_q^n,
    with their fibers."""
    sp = LinSpace.full(VSpace(field_make(p, e, m), n))
    points = [cp for flag in sorted(complete_flags(sp.vs), key=lambda f: f.key())
              for cp in chart_points(Chart.for_flag(sp, flag))]
    picked = random.Random(seed).sample(points, min(count, len(points)))
    return [fiber(cp) for cp in picked]


FIBER_CONFIGS = [(4, 2, 1, 1), (3, 2, 1, 2), (3, 3, 1, 1), (2, 2, 2, 1),
                 (2, 5, 1, 1), (2, 2, 1, 8)]


def quotient_spaces():
    """F_q^3 modulo a line, and a plane of F_q^3 modulo a line in it."""
    for q in (2, 3):
        vs = space(3, q).vs
        line = Subspace.from_vectors(vs, [(0, 0, 1)])
        plane = Subspace.from_vectors(vs, [(0, 1, 0), (0, 0, 1)])
        yield LinSpace(vs, Subspace.full(vs), line)
        yield LinSpace(vs, plane, line)


def built_ferns(seed, rounds):
    """random_fern results, their contract_fern results, and ferns on
    quotient spaces with a nonzero modulus, fibers over their charts
    among them."""
    rng = random.Random(seed)
    spaces = [space(*c) for c in [(2, 2, 2), (3, 2, 1), (2, 3, 1), (3, 3, 1),
                                  (2, 4, 1)]]
    for _ in range(rounds):
        for sp in spaces:
            f = random_fern(sp, rng)
            yield f
            for w in sp.proper_steps():
                yield contract_fern(f, w)
    for sp in quotient_spaces():
        for _ in range(rounds):
            yield random_fern(sp, rng)
        chart = Chart(sp)
        for cp in chart_points(chart):
            yield fiber(cp)


@pytest.mark.parametrize("config", FIBER_CONFIGS)
def test_classify_matches_contraction_reference_on_fibers(config):
    for f in sampled_fibers(*config, count=6, seed=1):
        assert_matches_references(f)


def test_classify_matches_contraction_reference_on_built_ferns():
    quotients = 0
    for f in built_ferns(seed=0, rounds=2):
        assert_matches_references(f)
        quotients += f.space.mod.dim > 0
    assert quotients >= 8


@pytest.mark.slow
@pytest.mark.parametrize("config", FIBER_CONFIGS)
def test_classify_matches_contraction_reference_on_fibers_wide(config):
    for f in sampled_fibers(*config, count=120, seed=2):
        assert_matches_references(f)


@pytest.mark.slow
def test_classify_matches_contraction_reference_on_built_ferns_wide():
    for f in built_ferns(seed=3, rounds=12):
        assert_matches_references(f)


def test_classify_builds_no_contraction(monkeypatch):
    ferns = sampled_fibers(3, 2, 1, 1, count=4, seed=0) \
        + list(itertools.islice(built_ferns(seed=0, rounds=1), 6))
    expected = [(classify(f).functionals, line_data(f).values,
                 reciprocal_data(f).values) for f in ferns]

    def refuse(*args, **kwargs):
        raise RuntimeError("a contraction was built")

    monkeypatch.setattr(curve, "contract", refuse)
    monkeypatch.setattr(curve, "contract_to_component", refuse)
    assert [(classify(f).functionals, line_data(f).values,
             reciprocal_data(f).values) for f in ferns] == expected


def test_classify_raises_when_no_path_component_separates():
    sp = space(2, 2)
    fb = fiber(chart_point(Chart(sp), (sp.field.zero,)))
    # the infinity component alone: the marks of each line of the first
    # flag step reach it through one node
    cut = Fern(fb.tree, sp, fb.chain[-1:], fb.flag)
    with pytest.raises(AssertionError, match="separates"):
        classify(cut)


# ---------------------------------------------------------------------------
# contraction compatibility with fibers
# ---------------------------------------------------------------------------

def test_fiber_contraction_compatibility_n3():
    from ferns.fern import contract_fern
    sp = space(3, 2)
    for flag in complete_flags(sp.vs):
        chart = Chart.for_flag(sp, flag)
        w = chart.flag.steps[2]
        sub_chart = Chart(LinSpace(sp.vs, w, sp.mod), chart.basis[:2])
        for cp in chart_points(chart):
            contracted = contract_fern(fiber(cp), w)
            reference = fiber(chart_point(sub_chart, cp.t[:1]))
            assert curve.are_isomorphic(contracted.tree,
                                        reference.tree) is not None
