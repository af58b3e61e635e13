import random

import pytest

from ferns.curve import (DegenerateInput, MarkedTree, Mobius, ProjPoint,
                         are_isomorphic, contract, contract_to_component,
                         dual_graph, node, single_component_tree, stabilize)
from ferns.gf import field_make
from ferns.rand import random_mobius, random_remap, random_stable_tree


K = field_make(5)


def pt(v):
    return ProjPoint.affine(K.from_int(v))


ZERO, ONE, INFPT = ProjPoint.zero(K), ProjPoint.affine(K.one), ProjPoint.infinity(K)


def two_component_tree():
    # marks 1, 2 on A and 3, 4 on B, glued at the origin of both charts
    return MarkedTree(K, ["A", "B"], [node("A", pt(0), "B", pt(0))],
                      {1: ("A", pt(1)), 2: ("A", pt(2)),
                       3: ("B", pt(1)), 4: ("B", pt(2))})


# ---------------------------------------------------------------------------
# points and cross ratios
# ---------------------------------------------------------------------------

def test_projpoint_normalization():
    assert ProjPoint(K.from_int(2), K.from_int(2)) == ProjPoint.affine(K.one)
    assert ProjPoint(K.one, K.zero).is_infinity
    with pytest.raises(DegenerateInput):
        ProjPoint(K.zero, K.zero)


def cross_ratio(a, b, c, d):
    """The scalar fixed by cross_ratio((0:1), (1:1), (1:0), (x:1)) = x.

    Requires a, b, c pairwise distinct and d != c (otherwise the value
    escapes to infinity).  Invariant under simultaneous Moebius moves.
    """
    value = Mobius.to_standard(a, b, c).apply(d)
    if value.is_infinity:
        raise DegenerateInput("cross ratio escapes to infinity (d = c)")
    return value.affine_value()


def test_cross_ratio_normalization():
    assert cross_ratio(ZERO, ONE, INFPT, pt(3)) == K.from_int(3)
    # d may coincide with b
    assert cross_ratio(ZERO, ONE, INFPT, ONE) == K.one


def test_cross_ratio_mobius_invariance(rng):
    quadruple = (ZERO, ONE, INFPT, pt(3))
    value = cross_ratio(*quadruple)
    for _ in range(100):
        m = random_mobius(K, rng)
        assert cross_ratio(*(m.apply(p) for p in quadruple)) == value


def test_cross_ratio_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        cross_ratio(ZERO, ZERO, INFPT, ONE)
    with pytest.raises(DegenerateInput):
        cross_ratio(ZERO, ONE, INFPT, INFPT)  # d = c escapes to infinity


def between_triples(src, dst):
    """The unique map sending the src triple to the dst triple in order."""
    return Mobius.to_standard(*dst).inverse().compose(Mobius.to_standard(*src))


def test_mobius_between_triples():
    src = (pt(4), pt(2), ONE)
    dst = (ZERO, pt(3), INFPT)
    m = between_triples(src, dst)
    assert [m.apply(p) for p in src] == list(dst)
    assert [Mobius.to_standard(*src).apply(p) for p in src] == [ZERO, ONE, INFPT]
    for p0, pinf in [(pt(4), ONE), (INFPT, pt(2)), (pt(3), INFPT)]:
        m = Mobius.zero_infinity(p0, pinf)
        assert (m.apply(p0), m.apply(pinf)) == (ZERO, INFPT)
    with pytest.raises(DegenerateInput):
        Mobius.zero_infinity(pt(2), pt(2))


# ---------------------------------------------------------------------------
# validation and dual graphs
# ---------------------------------------------------------------------------

def test_validate_single_component():
    t = single_component_tree(K, {1: ZERO, 2: ONE, 3: INFPT})
    assert t.validate().ok


def test_validate_rejects_coincident_marks():
    t = single_component_tree(K, {1: ZERO, 2: ZERO, 3: INFPT})
    report = t.validate()
    assert not report.ok
    assert any("coincide" in v for v in report.violations)


def test_validate_rejects_two_special_points():
    t = MarkedTree(K, ["A", "B"], [node("A", pt(0), "B", pt(0))],
                   {1: ("A", pt(1)), 2: ("A", pt(2)), 3: ("B", pt(1))})
    report = t.validate()
    assert not report.ok
    assert any("2 special points" in v for v in report.violations)


def test_validate_rejects_mark_on_node():
    t = MarkedTree(K, ["A", "B"], [node("A", pt(0), "B", pt(0))],
                   {1: ("A", pt(1)), 2: ("A", pt(0)),
                    3: ("B", pt(1)), 4: ("B", pt(2))})
    assert any("node" in v for v in t.validate().violations)


def test_dual_graph_smooth():
    t = single_component_tree(K, {i: pt(i) for i in range(4)})
    g = dual_graph(t)
    assert len(g.vertices) == 1 and not g.edges and len(g.half_edges) == 4


def test_dual_graph_two_components():
    g = dual_graph(two_component_tree())
    assert len(g.vertices) == 2 and len(g.edges) == 1
    assert g.degree("A") == g.degree("B") == 3
    assert g.is_tree()


def test_external_edges_lower_bound(rng):
    fld = field_make(2, 1, 2)
    for _ in range(20):
        t = random_stable_tree(fld, range(1, 8), rng)
        g = dual_graph(t)
        comps = sorted(t.components, key=repr)
        for size in (1, 2):
            for start in comps:
                # a connected subset grown from start
                subset = {start}
                while len(subset) < size:
                    frontier = [d for c in subset for d in t.neighbors(c)
                                if d not in subset]
                    if not frontier:
                        break
                    subset.add(frontier[0])
                assert g.n_ext(subset) >= 3


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

def test_contract_stable_input_is_isomorphic_identity():
    t = two_component_tree()
    result = contract(t, {1, 2, 3, 4})
    corr = are_isomorphic(result.tree, t)
    assert corr is not None and all(c == d for c, d in corr.components.items())
    assert all(image == (c, None) for c, image in result.component_image.items())


def test_contract_collapses_unstable_component():
    t = two_component_tree()
    result = contract(t, {1, 2, 3})
    assert result.tree.components == frozenset({"A"})
    # the kept mark from B lands at the node position on A
    assert result.tree.marking[3] == ("A", pt(0))
    # the forgotten mark rides along as a non-structural point
    assert result.tree.extra[4] == ("A", pt(0))
    assert result.component_image["B"] == ("A", pt(0))


def test_contract_requires_three_marks():
    with pytest.raises(ValueError):
        contract(two_component_tree(), {1, 2})


def test_contract_order_independence(rng):
    fld = field_make(2, 1, 2)
    for _ in range(30):
        labels = list(range(1, rng.randint(5, 9)))
        t = random_stable_tree(fld, labels, rng)
        keep = rng.sample(labels, 3)
        forget = [l for l in labels if l not in keep]
        direct = contract(t, keep).tree
        for _ in range(2):
            order = forget[:]
            rng.shuffle(order)
            stepwise, remaining = t, set(labels)
            for lbl in order:
                remaining.discard(lbl)
                stepwise = contract(stepwise, remaining).tree
            assert stepwise == direct


def test_contract_idempotent(rng):
    fld = field_make(2, 1, 2)
    for _ in range(10):
        t = random_stable_tree(fld, range(1, 7), rng)
        keep = {1, 2, 3}
        once = contract(t, keep).tree
        twice = contract(once, keep).tree
        assert are_isomorphic(once, twice) is not None


# ---------------------------------------------------------------------------
# contraction to a component
# ---------------------------------------------------------------------------

def test_contract_to_component_smooth_identity():
    t = single_component_tree(K, {1: ZERO, 2: ONE, 3: INFPT})
    result = contract_to_component(t, 1)
    assert result.tree == t


def test_contract_to_component_collapses_branches():
    result = contract_to_component(two_component_tree(), 1)
    m = result.tree.marking
    assert m[1] == ("A", pt(1)) and m[2] == ("A", pt(2))
    assert m[3] == m[4] == ("A", pt(0))  # both land at the node image


def test_contract_to_component_agrees_with_triple_contraction(rng):
    fld = field_make(2, 1, 3)
    for _ in range(15):
        t = random_stable_tree(fld, range(1, 7), rng)
        squashed = contract_to_component(t, 1).tree
        for j in range(2, 7):
            for k in range(j + 1, 7):
                pos = [squashed.marking[i][1] for i in (1, j, k)]
                if len(set(pos)) < 3:
                    continue
                tri = contract(t, {1, j, k}).tree
                move = between_triples(
                    tuple(pos), tuple(tri.marking[i][1] for i in (1, j, k)))
                for lbl in t.marking:
                    image = tri.marking.get(lbl, tri.extra.get(lbl))
                    assert move.apply(squashed.marking[lbl][1]) == image[1]


def test_contract_to_component_unmarked_label():
    with pytest.raises(ValueError):
        contract_to_component(two_component_tree(), 9)


# ---------------------------------------------------------------------------
# stabilization
# ---------------------------------------------------------------------------

def test_stabilize_smooth_point():
    t = two_component_tree()
    out = stabilize(t, 5, ("smooth", "A", pt(3)))
    assert out.validate().ok and len(out.components) == 2
    assert contract(out, {1, 2, 3, 4}).tree.marking.keys() == t.marking.keys()


def test_stabilize_on_mark_sprouts_component():
    t = two_component_tree()
    out = stabilize(t, 5, ("mark", 3))
    assert out.validate().ok and len(out.components) == 3
    # canonical placement: displaced mark, new mark, node
    cid = out.marking[3][0]
    assert out.marking[3][1] == ProjPoint.zero(K)
    assert out.marking[5] == (cid, ProjPoint.affine(K.one))
    assert out.neighbors(cid)["B"] == ProjPoint.infinity(K)


def test_stabilize_on_node():
    t = two_component_tree()
    out = stabilize(t, 5, ("node", "A", "B"))
    assert out.validate().ok and len(out.components) == 3


def test_stabilize_rejects_taken_point():
    t = two_component_tree()
    with pytest.raises(ValueError):
        stabilize(t, 5, ("smooth", "A", pt(0)))  # the node position


def test_stabilize_contract_roundtrip(rng):
    fld = field_make(3, 1, 2)
    for _ in range(100):
        labels = list(range(1, rng.randint(4, 8)))
        t = random_stable_tree(fld, labels, rng)
        kind = rng.choice(["smooth", "mark", "node" if t.nodes else "mark"])
        if kind == "smooth":
            cid = rng.choice(sorted(t.components, key=repr))
            taken = list(t.marks_on(cid).values()) + \
                list(t.neighbors(cid).values())
            free = [ProjPoint.affine(x) for x in fld.elements()
                    if ProjPoint.affine(x) not in taken]
            free += [] if ProjPoint.infinity(fld) in taken else \
                [ProjPoint.infinity(fld)]
            if not free:
                continue
            position = ("smooth", cid, rng.choice(free))
        elif kind == "mark":
            position = ("mark", rng.choice(sorted(t.marking, key=repr)))
        else:
            nd = sorted(map(tuple, t.nodes), key=repr)[0]
            position = ("node", nd[0][0], nd[1][0])
        grown = stabilize(t, 99, position)
        assert grown.validate().ok
        back = contract(grown, set(labels)).tree
        assert are_isomorphic(back, t) is not None


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------

def test_isomorphism_found_under_relabeling_and_rescaling(rng):
    fld = field_make(2, 1, 2)
    for _ in range(20):
        t = random_stable_tree(fld, range(1, 7), rng)
        other = random_remap(t, rng)
        renamed = MarkedTree(
            fld, [("x", c) for c in other.components],
            [node(("x", c1), p1, ("x", c2), p2)
             for (c1, p1), (c2, p2) in map(tuple, other.nodes)],
            {l: (("x", c), p) for l, (c, p) in other.marking.items()})
        corr = are_isomorphic(t, renamed)
        assert corr is not None
        for lbl, (cid, p) in t.marking.items():
            assert corr.apply(cid, p) == renamed.marking[lbl]


def test_isomorphism_absent_after_cross_ratio_change():
    t1 = MarkedTree(K, ["A", "B"], [node("A", pt(0), "B", pt(0))],
                    {1: ("A", pt(1)), 2: ("A", pt(2)), 3: ("A", pt(3)),
                     4: ("B", pt(1)), 5: ("B", pt(2))})
    t2 = MarkedTree(K, ["A", "B"], [node("A", pt(0), "B", pt(0))],
                    {1: ("A", pt(1)), 2: ("A", pt(2)), 3: ("A", pt(4)),
                     4: ("B", pt(1)), 5: ("B", pt(2))})
    assert are_isomorphic(t1, t2) is None


def test_isomorphism_requires_equal_mark_sets():
    t = single_component_tree(K, {1: ZERO, 2: ONE, 3: INFPT})
    s = single_component_tree(K, {1: ZERO, 2: ONE, 9: INFPT})
    with pytest.raises(ValueError):
        are_isomorphic(t, s)


def test_isomorphism_is_unique_correspondence(rng):
    # the search is deterministic and anchored, so at most one answer exists;
    # check that the returned maps transport every node consistently
    fld = field_make(2, 1, 2)
    t = random_stable_tree(fld, range(1, 8), rng)
    other = random_remap(t, rng)
    corr = are_isomorphic(t, other)
    assert corr is not None
    for nd in t.nodes:
        (c1, p1), (c2, p2) = tuple(nd)
        image = node(*corr.apply(c1, p1), *corr.apply(c2, p2))
        assert image in other.nodes
