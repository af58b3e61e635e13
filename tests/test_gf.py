import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ferns import gf
from ferns.gf import (INF, Flag, GroupElement, LinSpace, Subspace, VSpace,
                      adapted_basis, all_subspaces, canonical_modulus,
                      complete_flags, field_make, flags, gaussian_binomial,
                      group_act, group_elements, group_inv, group_mul,
                      is_irreducible, iter_flags, subspaces)
from ferns.universal import Chart

from conftest import space


# ---------------------------------------------------------------------------
# field construction
# ---------------------------------------------------------------------------

def test_prime_field_modulus():
    fld = field_make(2, 1, 1)
    assert fld.modulus == (0, 1)  # the polynomial x
    assert fld.order == 2


def test_f9_modulus_divides_x9_minus_x():
    fld = field_make(3, 1, 2)
    # brute-force irreducibility over F_3, plus every element a root of x^9 = x
    assert is_irreducible(fld.modulus, 3)
    assert all(x ** 9 == x for x in fld.elements())


def test_f4_modulus_is_the_unique_irreducible_quadratic():
    fld = field_make(2, 2, 1)
    assert fld.modulus == (1, 1, 1)


def test_canonical_modulus_is_smallest():
    # every earlier candidate in packed order must be reducible
    mod = canonical_modulus(2, 4)
    packed = sum(c * 2 ** i for i, c in enumerate(mod[:-1]))
    for k in range(packed):
        cand = tuple((k >> i) & 1 for i in range(4)) + (1,)
        assert not is_irreducible(cand, 2)


def test_field_make_returns_the_same_field_object():
    # fields compare by identity, so a cached field must never be rebuilt,
    # whatever else has been built since
    fld = field_make(3, 1, 2)
    for params in [(2, 1, 1), (2, 2, 3), (5, 1, 2), (2, 1, 10), (3, 2, 1)]:
        field_make(*params)
    assert field_make(3, 1, 2) is fld
    assert (fld.one + field_make(3, 1, 2).one).field is fld


def test_field_make_rejects_composite_p():
    with pytest.raises(ValueError):
        field_make(6, 1, 1)


_FIELDS = [(2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 1), (3, 1, 2),
           (2, 2, 1), (2, 2, 2), (5, 1, 1), (2, 1, 8), (3, 1, 4), (2, 4, 2),
           (2, 8, 1)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_FIELDS), st.data())
def test_field_axioms(params, data):
    fld = field_make(*params)
    idx = st.integers(0, fld.order - 1)
    a, b, c = (fld.from_int(data.draw(idx)) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == fld.zero
    if a:
        assert a * a.inverse() == fld.one


@pytest.mark.parametrize("params", _FIELDS)
def test_frobenius_fixes_exactly_the_scalars(params):
    fld = field_make(*params)
    fixed = {x.coeffs for x in fld.elements() if fld.frobenius(x) == x}
    assert fixed == {fld.scalar(i).coeffs for i in range(fld.q)}


@pytest.mark.parametrize("params", [(2, 2, 2), (2, 2, 3), (3, 1, 2)])
def test_embedding_is_a_homomorphism(params):
    fld = field_make(*params)
    for i in range(fld.q):
        for j in range(fld.q):
            assert fld.scalar(fld.s_add[i][j]) == fld.scalar(i) + fld.scalar(j)
            assert fld.scalar(fld.s_mul[i][j]) == fld.scalar(i) * fld.scalar(j)
    assert fld.scalar(0) == fld.zero and fld.scalar(1) == fld.one


@pytest.mark.parametrize("params", [(2, 1, 1), (3, 2, 1), (2, 2, 2), (2, 1, 8)])
def test_combine_matches_naive_sum(params):
    fld = field_make(*params)
    rng = random.Random(3)
    for length in range(6):
        # about half of the coefficients are zero
        coeffs = [rng.randrange(fld.q) * rng.randrange(2) for _ in range(length)]
        values = [fld.from_int(rng.randrange(fld.order)) for _ in range(length)]
        naive = fld.zero
        for c, x in zip(coeffs, values):
            naive = naive + fld.scalar(c) * x
        assert fld.combine(coeffs, values) == naive
    assert fld.combine([0, 0], [fld.one, fld.one]) == fld.zero


@pytest.mark.parametrize("p,e,m", [(2, 9, 1), (2, 1, 17), (3, 1, 11),
                                   (257, 1, 1), (2, 1, 10 ** 9)])
def test_fields_past_the_table_limit_are_rejected_fast(p, e, m):
    start = time.monotonic()
    with pytest.raises(ValueError, match="table limit"):
        field_make(p, e, m)
    assert time.monotonic() - start < 0.1


# Arithmetic against sympy's polynomials over F_p, which share no code with
# the log/Zech tables.  sympy coefficient lists are big-endian.
_ORACLE_FIELDS = [(2, 1, 8), (3, 1, 4), (5, 1, 3), (2, 1, 12), (2, 1, 16)]


@pytest.mark.parametrize("p,e,m", _ORACLE_FIELDS)
def test_arithmetic_matches_sympy(p, e, m):
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ
    fld = field_make(p, e, m)
    mod = list(reversed(fld.modulus))
    assert gt.gf_irreducible_p(mod, p, ZZ)

    def big(x):
        return list(reversed(x.coeffs))

    def el(coeffs):
        return fld.element(reversed(coeffs))

    rng = random.Random(p * 100 + m)
    for _ in range(300):
        a, b = (fld.from_int(rng.randrange(fld.order)) for _ in range(2))
        assert a * b == el(gt.gf_rem(gt.gf_mul(big(a), big(b), p, ZZ),
                                     mod, p, ZZ))
        assert a + b == el(gt.gf_add(big(a), big(b), p, ZZ))
        assert -a == el(gt.gf_neg(big(a), p, ZZ))
        assert a - b == el(gt.gf_sub(big(a), big(b), p, ZZ))
        if a:
            s, _, g = gt.gf_gcdex(big(a), mod, p, ZZ)
            assert g == [1]
            assert a.inverse() == el(s)


def reference_tables(fld):
    """exp (as packed values), lg and zech from the polynomial walk: one
    multiply-and-reduce by the generator per element."""
    p, f, units = fld.p, fld.modulus, fld.units

    def mulmod(a, b):
        return gf._poly_divmod(gf._poly_mul(a, b, p), f, p)[1]

    def power(a, k):
        out = (1,)
        while k:
            if k & 1:
                out = mulmod(out, a)
            a, k = mulmod(a, a), k >> 1
        return out

    factors = gf._prime_factors(units)
    gen = next(x.coeffs for x in fld.interned[1:]
               if all(power(x.coeffs, units // r) != (1,) for r in factors))
    exp, x = [], (1,)
    for _ in range(units):
        exp.append(gf._pack(x, p))
        x = mulmod(x, gen)
    lg = {k: i for i, k in enumerate(exp)}
    zech = [lg.get(k - k % p + (k + 1) % p) for k in exp]
    return exp, lg, zech


@pytest.mark.parametrize("params", _FIELDS + [(5, 1, 3), (7, 1, 3),
                                              (2, 1, 16)])
def test_tables_match_polynomial_walk(params):
    fld = field_make(*params)
    exp, lg, zech = reference_tables(fld)
    assert [x.pk for x in fld.exp] == exp * 2
    assert [x.lg for x in fld.interned] == [None] + [
        lg[k] for k in range(1, fld.order)]
    assert fld.zech == zech


def test_element_json_identity_order():
    fld = field_make(3, 1, 2)
    for k in range(fld.order):
        assert fld.from_int(k).pk == k


# ---------------------------------------------------------------------------
# subspaces and flags
# ---------------------------------------------------------------------------

def _exhaustive_subspaces(vs, d):
    # oracle: spans of all vector subsets, deduplicated by echelon form
    seen = set()
    for combo in itertools.combinations(vs.vectors(), d):
        w = Subspace.from_vectors(vs, combo)
        if w.dim == d:
            seen.add(w)
    if d == 0:
        seen.add(Subspace.zero(vs))
    return seen


@pytest.mark.parametrize("q,n,d,expected", [
    (2, 2, 1, 3), (2, 2, 0, 1), (2, 3, 2, 7), (2, 3, 1, 7),
    (3, 2, 1, 4), (3, 3, 2, 13),
])
def test_subspace_enumeration(q, n, d, expected):
    p = 2 if q % 2 == 0 else 3
    vs = VSpace(field_make(p, 1 if q == p else 2, 1), n)
    subs = subspaces(vs, d)
    assert len(subs) == len(set(subs)) == expected
    assert expected == gaussian_binomial(n, d, q)
    assert set(subs) == _exhaustive_subspaces(vs, d)


def test_subspace_membership_and_elements():
    vs = VSpace(field_make(2), 3)
    w = Subspace.from_vectors(vs, [(1, 1, 0), (0, 0, 1)])
    assert w.dim == 2
    els = w.elements()
    assert len(els) == 4 and len(set(els)) == 4
    for v in vs.vectors():
        assert w.contains(v) == (v in set(els))


def test_flag_counts():
    vs1 = VSpace(field_make(2), 1)
    assert len(flags(vs1)) == 1
    vs2 = VSpace(field_make(2), 2)
    assert len(flags(vs2)) == 4  # trivial + 3 complete
    vs3 = VSpace(field_make(2), 3)
    all_flags = flags(vs3)
    assert len(all_flags) == 36  # 1 + 7 + 7 + 21
    assert sum(1 for f in all_flags if f.is_complete()) == 21


def reference_flags(vs):
    # the search without a containment table: every node scans the whole
    # lattice and tests containment afresh
    lattice = all_subspaces(vs)
    full = Subspace.full(vs)
    out = []

    def grow(chain):
        top = chain[-1]
        if top == full:
            out.append(Flag(tuple(chain)))
            return
        for w in lattice:
            if w.dim > top.dim and w.contains_subspace(top):
                grow(chain + [w])

    grow([Subspace.zero(vs)])
    return out


@pytest.mark.parametrize("n,q", [(1, 2), (2, 2), (3, 2), (2, 3), (3, 3),
                                 (4, 2), (2, 4)])
def test_flags_match_the_lattice_scan(n, q):
    vs = space(n, q).vs
    expected = reference_flags(vs)
    assert flags(vs) == expected
    assert list(iter_flags(vs)) == expected
    assert complete_flags(vs) == [f for f in expected if f.is_complete()]


def reference_reduce(w, v):
    # row by row in the field's own elements, each pivot found afresh
    fld = w.space.field
    index = {x: i for i, x in enumerate(fld.scalars)}
    out = [fld.scalars[c] for c in v]
    for row in w.rows:
        lead = next(j for j in range(len(row)) if row[j])
        c = out[lead]
        out = [x - c * fld.scalars[r] for x, r in zip(out, row)]
    return tuple(index[x] for x in out)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_reduce_matches_row_by_row_reference(q):
    vs = space(3, q).vs
    for w in all_subspaces(vs):
        assert w.pivots == tuple(next(j for j, c in enumerate(r) if c)
                                 for r in w.rows)
        for v in vs.vectors():
            assert w.reduce(v) == reference_reduce(w, v)


def test_subspace_hash_reads_rows_and_equality_the_space():
    vs = VSpace(field_make(2), 3)
    a = Subspace.from_vectors(vs, [(1, 1, 0), (0, 1, 1)])
    b = Subspace.from_vectors(VSpace(field_make(2), 3), [(0, 1, 1), (1, 0, 1)])
    assert a == b and hash(a) == hash(b)
    other = Subspace(VSpace(field_make(2, 1, 2), 3), a.rows)  # over GF(4)
    assert other != a and hash(other) == hash(a)
    assert len({a, b, other}) == 2


def test_adapted_basis_spans_prefixes():
    vs = VSpace(field_make(3), 2)
    for flag in complete_flags(vs):
        basis = adapted_basis(flag)
        for i in range(1, 3):
            assert Subspace.from_vectors(vs, basis[:i]) == flag.steps[i]


def test_flag_intersection_dedupes():
    vs = VSpace(field_make(2), 3)
    full = [f for f in flags(vs) if f.is_complete()][0]
    w = full.steps[1]
    cut = full.intersect(w)
    assert cut.steps[0].dim == 0 and cut.steps[-1] == w
    assert len(cut.steps) == 2


# ---------------------------------------------------------------------------
# subquotients
# ---------------------------------------------------------------------------

def test_linspace_quotient_reps():
    vs = VSpace(field_make(2), 3)
    w = Subspace.from_vectors(vs, [(1, 0, 0)])
    quot = LinSpace(vs, Subspace.full(vs), w)
    assert quot.dim == 2
    reps = quot.vectors()
    assert len(reps) == 4
    assert all(quot.reduce(r) == r for r in reps)
    for u in reps:
        for v in reps:
            assert quot.add(u, v) in reps


def test_linspace_coords_roundtrip():
    vs = VSpace(field_make(3), 3)
    w = Subspace.from_vectors(vs, [(1, 1, 0)])
    quot = LinSpace(vs, Subspace.full(vs), w)
    for v in quot.vectors():
        assert quot.combine(quot.coords(v)) == v
    # a chart basis other than the canonical one: every coordinate tuple
    # comes back from the vector it combines to
    chart = Chart(quot, [(0, 1, 1), (1, 1, 2)])
    for c in itertools.product(range(3), repeat=2):
        assert chart.to_coords(chart.from_coords(c)) == c
    plane = LinSpace(vs, Subspace.from_vectors(vs, [(1, 1, 0), (0, 0, 1)]), w)
    for basis in (None, plane.basis()[::-1]):
        with pytest.raises(ValueError, match="not a member"):
            plane.coords((1, 0, 0), basis)


def _subquotient(p, e, n, sub_rows, mod_rows):
    """The subquotient span(sub_rows) / span(mod_rows) of F_q^n, with the
    whole space for sub_rows None."""
    vs = VSpace(field_make(p, e), n)
    sub = Subspace.full(vs) if sub_rows is None \
        else Subspace.from_vectors(vs, sub_rows + mod_rows)
    return LinSpace(vs, sub, Subspace.from_vectors(vs, mod_rows))


# full spaces, quotients and subquotients over GF(2), GF(3) and GF(4)
_SUBQUOTIENTS = {
    "F2^3": (2, 1, 3, None, []),
    "F2^3/line": (2, 1, 3, None, [(1, 1, 0)]),
    "F2^4 sub/line": (2, 1, 4, [(1, 0, 0, 0), (0, 0, 1, 1)],
                      [(1, 1, 0, 0)]),
    "F3^2": (3, 1, 2, None, []),
    "F3^3/line": (3, 1, 3, None, [(1, 2, 0)]),
    "F4^2": (2, 2, 2, None, []),
    "F4^3/line": (2, 2, 3, None, [(1, 2, 3)]),
}


def _naive_combine(sp, coeffs, basis):
    v = sp.vs.zero
    for c, b in zip(coeffs, basis):
        v = sp.vs.add(v, sp.vs.scale(c, b))
    return v


def _bases(sp, rng):
    """The canonical basis, its reverse, the chart bases of a few complete
    flags (full spaces) and a few seeded random bases."""
    out = [None, sp.basis()[::-1]]
    if sp.mod.dim == 0 and sp.sub.dim == sp.vs.n:
        out += [adapted_basis(f) for f in complete_flags(sp.vs)[-3:]]
    everything = list(itertools.product(range(sp.q), repeat=sp.dim))
    while len(out) < 8:
        basis = [rng.choice(sp.vectors()) for _ in range(sp.dim)]
        spans = {sp.reduce(_naive_combine(sp, c, basis)) for c in everything}
        if len(spans) == len(everything):
            out.append(tuple(basis))
    return out


@pytest.mark.parametrize("name", sorted(_SUBQUOTIENTS))
def test_linspace_vectors_are_the_reduced_members(name):
    sp = _subquotient(*_SUBQUOTIENTS[name])
    assert sp.vectors() == tuple(sorted({sp.reduce(v)
                                         for v in sp.sub.elements()}))


@pytest.mark.parametrize("name", sorted(_SUBQUOTIENTS))
def test_linspace_coords_match_a_coefficient_search(name):
    # every ambient vector, so members that are not canonical reps and
    # vectors outside the subspace are both asked for
    sp = _subquotient(*_SUBQUOTIENTS[name])
    rng = random.Random(7)
    for basis in _bases(sp, rng):
        rows = sp.basis() if basis is None else basis
        found = {}
        for c in itertools.product(range(sp.q), repeat=sp.dim):
            found[sp.reduce(_naive_combine(sp, c, rows))] = c
        for v in sp.vs.vectors():
            expected = found.get(sp.reduce(v))
            if expected is None:
                with pytest.raises(ValueError, match="not a member"):
                    sp.coords(v, basis)
            else:
                assert sp.coords(v, basis) == expected


def _spans_distinct(fld, values):
    """The old definition: all q^k combinations of the values differ."""
    sums = set()
    for coeffs in itertools.product(range(fld.q), repeat=len(values)):
        total = fld.zero
        for c, x in zip(coeffs, values):
            total = total + fld.scalar(c) * x
        sums.add(total)
    return len(sums) == fld.q ** len(values)


@pytest.mark.parametrize("params", [(2, 1, 2), (2, 1, 3), (3, 1, 2),
                                    (3, 1, 3), (2, 1, 8), (2, 2, 4)],
                         ids=["GF4", "GF8", "GF9", "GF27", "GF256",
                              "GF256/GF4"])
def test_independent_matches_distinct_combinations(params):
    fld = field_make(*params)
    rng = random.Random(11)
    verdicts = []
    for _ in range(40):
        k = rng.randrange(fld.m + 2)
        values = [fld.from_int(rng.randrange(fld.order)) for _ in range(k)]
        tuples = [values]
        if values:  # a zero entry and a repeated entry spliced in
            i = rng.randrange(k + 1)
            tuples.append(values[:i] + [fld.zero] + values[i:])
            tuples.append(values[:i] + [rng.choice(values)] + values[i:])
        for vals in tuples:
            verdicts.append(fld.independent(vals))
            assert verdicts[-1] == _spans_distinct(fld, vals), vals
    assert any(verdicts) and not all(verdicts)
    # scalar multiples of one value
    x = fld.from_int(fld.order - 1)
    assert not fld.independent([x, fld.scalar(fld.q - 1) * x])


def test_linspace_subspace_steps():
    vs = VSpace(field_make(2), 3)
    space = LinSpace.full(vs)
    # steps of each dimension match the Gaussian binomial
    for d in range(4):
        assert len(space.subspace_steps(d)) == gaussian_binomial(3, d, 2)
    w = Subspace.from_vectors(vs, [(1, 0, 0)])
    quot = LinSpace(vs, Subspace.full(vs), w)
    steps = quot.subspace_steps(1)
    assert len(steps) == 3  # subspaces of the 2-dimensional quotient
    assert all(s.contains_subspace(w) for s in steps)


def test_linspace_subspace_steps_built_once(monkeypatch):
    space = LinSpace.full(VSpace(field_make(2), 3))
    expected = [list(space.subspace_steps(d)) for d in range(4)]
    space.subspace_steps(2).clear()  # a caller's copy, not the memo
    monkeypatch.setattr(gf, "subspaces",
                        lambda *args: pytest.fail("subspaces rebuilt"))
    assert [space.subspace_steps(d) for d in range(4)] == expected
    for d in (-1, 4):
        with pytest.raises(ValueError):
            space.subspace_steps(d)
    assert len(space._steps) == space.dim + 1


# ---------------------------------------------------------------------------
# the group
# ---------------------------------------------------------------------------

def test_group_identity_and_inverse():
    space = LinSpace.full(VSpace(field_make(3), 2))
    ident = GroupElement.identity(space)
    for g in group_elements(space):
        assert group_mul(ident, g) == g
        assert group_mul(g, group_inv(g)) == ident
        assert group_mul(group_inv(g), g) == ident


def test_group_inverse_formula():
    fld = field_make(5)
    space = LinSpace.full(VSpace(fld, 1))
    g = GroupElement(space, (3,), 2)
    inv = group_inv(g)
    # (v, xi)^-1 = (-xi^-1 v, xi^-1)
    xi_inv = fld.s_inv[2]
    assert inv.xi == xi_inv
    assert inv.v == space.neg(space.scale(xi_inv, (3,)))


def test_group_action_laws_exhaustive():
    space = LinSpace.full(VSpace(field_make(3), 1))
    G = group_elements(space)
    marks = list(space.vectors()) + [INF]
    for a in G:
        assert group_act(a, INF) == INF
        for b in G:
            for c in G:
                assert group_mul(group_mul(a, b), c) == \
                    group_mul(a, group_mul(b, c))
            for w in marks:
                assert group_act(group_mul(a, b), w) == \
                    group_act(a, group_act(b, w))


@pytest.mark.parametrize("n,q,m", [(2, 2, 1), (3, 2, 1), (2, 3, 1), (2, 4, 2)])
def test_group_act_is_scale_then_add(n, q, m):
    # every element, translations (xi = 1) included, acts as xi*w + v on
    # a full space and on a subquotient, reduced to the representative
    full = space(n, q, m)
    sub = Subspace.from_vectors(full.vs, [full.vs.basis_vector(1)])
    for sp in (full, LinSpace(full.vs, Subspace.full(full.vs), sub)):
        for g in group_elements(sp):
            for w in sp.vectors():
                assert group_act(g, w) == sp.add(sp.scale(g.xi, w), g.v)
            assert group_act(g, INF) == INF


def test_group_rejects_zero_scalar():
    space = LinSpace.full(VSpace(field_make(2), 1))
    with pytest.raises(ValueError):
        GroupElement(space, (0,), 0)
