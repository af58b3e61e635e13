import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ferns import curve
from ferns import fern as fern_mod
from ferns.curve import ProjPoint
from ferns.fern import Fern, contract_fern, line_data, reciprocal_data
from ferns.gf import (INF, GroupElement, LinSpace, Subspace, VSpace,
                      complete_flags, field_make, group_elements, group_mul)
from ferns.rand import random_fern, random_pipeline_fern
from ferns import universal
from ferns.universal import (Chart, ChartPoint, ClassPoint, PointEquations,
                             QPoly, bv_member, chart_contains, chart_coords,
                             chart_point, chart_points, check_equations,
                             classify, component_constraint, fiber,
                             functional_candidates, g_translate_index,
                             q_poly, q_value, section_assignment,
                             sigma_indices, standard_chart, uf_member)

from conftest import space


# ---------------------------------------------------------------------------
# Q polynomials
# ---------------------------------------------------------------------------

def test_q_poly_basis_cases():
    ch = standard_chart(space(3, 2))
    # the k-th basis vector at level k: the empty product
    assert q_poly(ch, (0, 0, 1), 3).terms == (((0, 0), 1),)
    # the previous basis vector: a single variable
    assert q_poly(ch, (0, 1, 0), 3).terms == (((0, 1), 1),)
    assert q_poly(ch, (0, 1, 0), 2).terms == (((0,) * 2, 1),)


def test_q_poly_linearity():
    ch = standard_chart(space(2, 3))
    fld = ch.field
    for v in ch.space.vectors():
        for w in ch.space.vectors():
            for c in range(3):
                s = ch.space.add(ch.space.scale(c, v), w)
                lhs = q_poly(ch, s, 2)
                rhs = q_poly(ch, v, 2).scale(c).add(q_poly(ch, w, 2))
                assert lhs.terms == rhs.terms


def test_q_poly_lower_dimension_identity():
    ch = standard_chart(space(3, 3))
    shift = QPoly.build(ch.field, 2, {(1, 1): 1})  # T_1 T_2
    for v in [(1, 0, 0), (2, 0, 0)]:
        assert q_poly(ch, v, 3).terms == q_poly(ch, v, 1).mul(shift).terms
    shift2 = QPoly.build(ch.field, 2, {(0, 1): 1})  # T_2
    for v in [(1, 1, 0), (0, 2, 0)]:
        assert q_poly(ch, v, 3).terms == q_poly(ch, v, 2).mul(shift2).terms


def test_q_poly_rejects_vector_outside_step():
    ch = standard_chart(space(3, 2))
    with pytest.raises(ValueError):
        q_poly(ch, (0, 0, 1), 2)


def test_q_value_matches_polynomial_evaluation():
    ch = standard_chart(space(3, 2, 2))
    fld = ch.field
    for packed in itertools.product(range(4), repeat=2):
        t = tuple(fld.from_int(k) for k in packed)
        ok, stratum = chart_contains(ch, t)
        if not ok:
            continue
        cp = ChartPoint(ch, t, stratum)
        for v in ch.space.vectors():
            k = max((i + 1 for i, c in enumerate(v) if c), default=1)
            assert q_value(cp, v, ch.n) == q_poly(ch, v, ch.n).evaluate(t)


# ---------------------------------------------------------------------------
# chart membership
# ---------------------------------------------------------------------------

def test_chart_contains_zero_point():
    ch = standard_chart(space(2, 2))
    ok, stratum = chart_contains(ch, (ch.field.zero,))
    assert ok and stratum.is_complete()


def test_chart_rejects_rational_combination():
    ch = standard_chart(space(2, 2))
    ok, _ = chart_contains(ch, (ch.field.one,))  # T_1 + 1 vanishes at 1
    assert not ok


def test_chart_accepts_generic_extension_point():
    ch = standard_chart(space(2, 2, 2))
    omega = ch.field.element((0, 1))
    ok, stratum = chart_contains(ch, (omega,))
    assert ok and stratum.length == 1  # trivial flag: a smooth point


def test_chart_point_counts():
    # frozen from exhaustive enumeration over the value fields
    assert len(chart_points(standard_chart(space(2, 2)))) == 1
    assert len(chart_points(standard_chart(space(2, 2, 2)))) == 3
    assert len(chart_points(standard_chart(space(2, 3)))) == 1
    assert len(chart_points(standard_chart(space(3, 2)))) == 1


def test_stratum_indices_computed_once():
    sp = space(3, 2)
    cp = chart_point(standard_chart(sp), (sp.field.zero, sp.field.zero))
    assert cp.stratum_indices == (0, 1, 2, 3)
    assert cp.stratum_indices is cp.stratum_indices


def test_chart_requires_adapted_basis():
    sp = space(2, 2)
    ch = standard_chart(sp)
    other = [f for f in complete_flags(sp.vs)
             if f.steps != ch.flag.steps][0]
    with pytest.raises(ValueError):
        chart_contains(ch, (sp.field.zero,), flag=other)


def test_subflag_chart_membership():
    # over F_4 the nonzero chart points belong to the trivial-flag chart
    ch = standard_chart(space(2, 2, 2))
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
        cp = chart_point(standard_chart(sp), ())
        fb = fiber(cp)
        assert fb.is_smooth()
        ld = line_data(fb)
        # marks sit at their own scalar values, up to normalization
        fld = sp.field
        for c in range(1, q):
            assert ld.values[(c,)] == fld.scalar(c) * ld.values[(1,)]


def test_fiber_n2_q2_degenerate_structure():
    sp = space(2, 2)
    cp = chart_point(standard_chart(sp), (sp.field.zero,))
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
    ch = standard_chart(sp)
    omega = ch.field.element((0, 1))
    fb = fiber(chart_point(ch, (omega,)))
    assert fb.is_smooth()
    ld = line_data(fb)
    assert ld.values[(1, 0)] / ld.values[(0, 1)] == omega


def test_fiber_matches_graft_shape(rng):
    # the degenerate fiber equals the graft of two dimension-1 pieces
    sp = space(2, 2)
    fb = fiber(chart_point(standard_chart(sp), (sp.field.zero,)))
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
    ch = standard_chart(space(2, 2))
    with pytest.raises(ValueError):
        chart_point(ch, (ch.field.one,))


# ---------------------------------------------------------------------------
# index translation and the defining equations
# ---------------------------------------------------------------------------

def test_g_translate_identity():
    sp = space(2, 3)
    ident = GroupElement.identity(sp)
    for idx in [((1, 2), (0, 1)), ((0, 0), (2, 1))]:
        assert g_translate_index(sp, idx, ident) == idx


def test_g_translate_pure_translation():
    sp = space(2, 2)
    g = GroupElement(sp, (1, 0), 1)
    assert g_translate_index(sp, ((1, 1), (0, 1)), g) == ((0, 1), (0, 1))


def test_g_translate_composition_law():
    sp = space(1, 3)
    G = group_elements(sp)
    idxs = [((c,), (w,)) for c in range(3) for w in range(1, 3)]
    for a in G:
        for b in G:
            ab = group_mul(a, b)
            for idx in idxs:
                # a right action on indices: (idx . a) . b = idx . (a b)
                assert g_translate_index(sp, g_translate_index(sp, idx, a), b) \
                    == g_translate_index(sp, idx, ab)


def test_check_equations_infinity_and_zero_sections():
    for n, q, m in [(2, 2, 1), (2, 2, 2), (3, 2, 1), (2, 3, 1)]:
        sp = space(n, q, m)
        ch = standard_chart(sp)
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
    cp = chart_point(standard_chart(sp), (sp.field.zero,))
    rejected = sum(not check_equations(cp, assignment)
                   for assignment in garbage_assignments(cp, rng))
    assert rejected > 30  # random points are overwhelmingly off the fiber


def test_section_translates_satisfy_equations_exhaustively():
    sp = space(2, 3)
    ch = standard_chart(sp)
    for cp in chart_points(ch):
        for u in list(sp.vectors()) + [INF]:
            u_b = INF if u == INF else ch.to_coords(u)
            for g in [None] + group_elements(sp):
                assert check_equations(cp, section_assignment(cp, u_b, g=g))


# ---------------------------------------------------------------------------
# the per-chart-point equations and constraint table against per-call search
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


def reference_locate(cp, point):
    """Every component tested against every index, per call."""
    hits = []
    for free in sigma_indices(cp):
        if all(point[idx] == expected
               for idx in sigma_indices(cp)
               if (expected := component_constraint(cp, free, idx)) is not None):
            hits.append(free)
    if len(hits) != 1:
        return len(hits)
    return hits[0], point[hits[0]]


def reference_node(cp, upper, lower):
    point = {}
    for idx in sigma_indices(cp):
        a = component_constraint(cp, upper, idx)
        b = component_constraint(cp, lower, idx)
        assert a is None or b is None or a == b
        point[idx] = a if a is not None else b
    return point


def located(equations, point):
    try:
        return equations.locate(point)
    except ValueError as exc:
        return int(str(exc).split()[2])  # "point satisfied N component ..."


def assert_point_equations_match(cp, equations, assignment, memo=None):
    """The shared list and table agree with the per-call references; the
    references' verdicts on a repeated assignment come from ``memo``."""
    key = tuple(assignment.items())
    memo = {} if memo is None else memo
    if key not in memo:
        memo[key] = (reference_check_equations(cp, assignment),
                     reference_locate(cp, assignment))
    assert (equations.check(assignment),
            located(equations, assignment)) == memo[key]


@pytest.mark.parametrize("config", [(3, 2, 1), (2, 2, 2), (2, 3, 1)])
def test_point_equations_match_per_call_search(config):
    sp = space(*config)
    sections = 0
    for flag in complete_flags(sp.vs):
        chart = Chart.for_flag(sp, flag)
        for cp in chart_points(chart):
            equations = PointEquations(cp)
            memo = {}
            idxs = sigma_indices(cp)
            assert equations.indices == idxs
            for free in idxs:
                for idx in idxs:
                    assert equations.pinned[free].get(idx) == \
                        component_constraint(cp, free, idx)
            for (v, k) in idxs:
                for (v2, k2) in idxs:
                    if k2 == k - 1:
                        try:
                            reference = reference_node(cp, (v, k), (v2, k2))
                        except AssertionError:
                            continue
                        assert equations.node((v, k), (v2, k2)) == reference
            for u in list(sp.vectors()) + [INF]:
                u_b = INF if u == INF else chart.to_coords(u)
                for g in [None] + group_elements(sp):
                    assignment = section_assignment(cp, u_b, g=g)
                    assert_point_equations_match(cp, equations, assignment,
                                                 memo)
                    assert equations.check(assignment)
                    sections += 1
    assert sections > 0


def test_point_equations_match_on_garbage(rng):
    sp = space(2, 2)
    cp = chart_point(standard_chart(sp), (sp.field.zero,))
    equations = PointEquations(cp)
    outcomes = set()
    for assignment in garbage_assignments(cp, rng):
        assert_point_equations_match(cp, equations, assignment)
        outcomes.add(equations.check(assignment))
    assert outcomes == {True, False}


def test_fiber_checks_every_mark_against_the_equations(monkeypatch):
    sp = space(2, 3)
    cp = chart_point(standard_chart(sp), (sp.field.zero,))
    checked = []
    real = PointEquations.check

    def counted(self, assignment):
        checked.append(assignment)
        return real(self, assignment)

    monkeypatch.setattr(PointEquations, "check", counted)
    fiber(cp)
    assert len(checked) == len(sp.vectors())
    monkeypatch.setattr(PointEquations, "check", lambda self, a: False)
    with pytest.raises(AssertionError, match="defining equations"):
        fiber(cp)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_smooth_restrictions_of_global_datum(rng):
    sp = space(2, 2, 2)
    fb = fiber(chart_point(standard_chart(sp),
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
    fb = fiber(chart_point(standard_chart(sp), (sp.field.zero,)))
    point = classify(fb)
    w = fb.flag.steps[1]
    full = sp.sub
    # the full-space functional kills the subspace, the subspace one is injective
    assert all(not point.value(full, v) for v in w.elements())
    assert any(point.value(w, v) for v in w.elements())


def test_bv_member_accepts_classified_ferns(rng):
    for _ in range(10):
        fern, _ = random_pipeline_fern(space(2, 2, 2), rng)
        if fern.space.dim < 1:
            continue
        point = classify(fern)
        assert bv_member(point)
        assert uf_member(point, _completion(fern))


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
    assert all(bv_member(p) for p in points)


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
    assert not bv_member(point)


def test_uf_member_respects_flag_pairs():
    sp = space(2, 2)
    fb = fiber(chart_point(standard_chart(sp), (sp.field.zero,)))
    point = classify(fb)
    assert bv_member(point)
    assert uf_member(point, fb.flag)
    # the degenerate point lies outside the chart of the other lines' flags
    from ferns.gf import Flag
    for flag in complete_flags(sp.vs):
        if flag.steps[1] != fb.flag.steps[1]:
            assert not uf_member(point, flag)


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
    squashed = curve.contract_to_component(tree, pole).tree
    pos = {lbl: squashed.marking[lbl][1] for lbl in list(sp.vectors()) + [INF]}
    anchor = next(v for v in sp.vectors()
                  if pos[v] not in (pos[origin], pos[pole]))
    coord = curve.Mobius.to_standard(pos[origin], pos[anchor], pos[pole])
    return {v: coord.apply(pos[v]).affine_value()
            for v in sp.vectors() if v != pole}


def reference_classify(f):
    """For each nonzero W: contract the fern to the marks of W and
    infinity, then read the line values of the contraction."""
    sp = f.space
    functionals = {}
    for d in range(1, sp.dim + 1):
        for w in sp.subspace_steps(d):
            tree = f.tree
            if w != sp.sub:
                keep = [v for v in sp.vectors() if w.contains(v)] + [INF]
                tree = curve.contract(f.tree, keep).tree
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
    fb = fiber(chart_point(standard_chart(sp), (sp.field.zero,)))
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
