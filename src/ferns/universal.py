"""The explicit universal family over flag charts, and the classification map.

A chart is a complete flag together with an adapted ordered basis; its
points are coordinate tuples t in K^(n-1) subject to the membership
conditions below, and each point carries a stratum flag read off the zero
pattern of t.  The fiber over a chart point is synthesized directly from
its component, node, and section data:

* one projective line per reduced index (v, k) with v truncation-zero up
  to the k-th stratum step,
* nodes between consecutive levels, computed by intersecting the two
  components' defining equations and insisting on a unique solution,
* marked sections by translating the zero section through the coordinate
  action of the group and locating the unique component whose equations
  the translated point satisfies.

The defining equations and the constraints each component puts on the
coordinates depend only on the chart point, so :class:`PointEquations`
builds them once per point; nodes, mark locations and the equivariance
check read them from there.  Every mark of a fiber is still checked
against the full defining equations, and must satisfy exactly one
component's constraints.  ``check_equations`` and ``locate_component``
answer the same questions for a single call.
``classify`` goes the other way: it reads one functional class per
nonzero subspace off a fern, giving a point of the compactified period
domain whose chart coordinates recover the fiber parameters exactly.  The
class of W is the line datum of the contraction to W and infinity; it is
read at the marks' entry points on one component of the path from the
infinity mark to the 0-mark, with no contraction built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import curve, fern as fern_mod
from .curve import ProjPoint
from .fern import Fern, validate_fern
from .gf import (INF, FieldElement, Flag, GroupElement, LinSpace, Subspace,
                 VSpace, adapted_basis)

Vec = tuple
BVec = tuple  # coordinates with respect to a chart basis
SigmaIndex = Tuple[Vec, int]  # (vector, chain level)


# ---------------------------------------------------------------------------
# Polynomials Q^k_v in the chart coordinates T_1 .. T_{n-1}
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QPoly:
    """A polynomial in T_1..T_{n-1} with scalar coefficients (index form)."""

    field: object  # the value field, for scalar tables and evaluation
    nvars: int
    terms: tuple  # sorted tuple of (exponent tuple, scalar index)

    @classmethod
    def build(cls, field, nvars: int, term_map: Dict[tuple, int]) -> "QPoly":
        terms = tuple(sorted((e, c) for e, c in term_map.items() if c))
        return cls(field, nvars, terms)

    def add(self, other: "QPoly") -> "QPoly":
        acc = dict(self.terms)
        s_add = self.field.s_add
        for e, c in other.terms:
            acc[e] = s_add[acc.get(e, 0)][c]
        return QPoly.build(self.field, self.nvars, acc)

    def scale(self, c: int) -> "QPoly":
        s_mul = self.field.s_mul
        return QPoly.build(self.field, self.nvars,
                           {e: s_mul[c][x] for e, x in self.terms})

    def mul(self, other: "QPoly") -> "QPoly":
        acc: Dict[tuple, int] = {}
        s_add, s_mul = self.field.s_add, self.field.s_mul
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = s_add[acc.get(e, 0)][s_mul[c1][c2]]
        return QPoly.build(self.field, self.nvars, acc)

    def evaluate(self, t: Sequence[FieldElement]) -> FieldElement:
        fld = self.field
        total = fld.zero
        for exps, c in self.terms:
            term = fld.scalar(c)
            for e, value in zip(exps, t):
                for _ in range(e):
                    term = term * value
            total = total + term
        return total

    def __repr__(self):
        return f"QPoly({self.terms})"


def _suffix_monomial(nvars: int, lo: int, hi: int) -> tuple:
    """Exponents of prod T_j for j in [lo, hi), 1-based variable indexing."""
    return tuple(1 if lo <= j + 1 < hi else 0 for j in range(nvars))


def q_poly(chart: "Chart", v: Vec, k: int) -> QPoly:
    """Q^k_v as a polynomial: sum over i <= k of c_i * T_i .. T_{k-1}."""
    c = chart.to_coords(v)
    n = chart.n
    if any(c[i] for i in range(k, n)):
        raise ValueError("vector lies outside the k-th flag step")
    terms: Dict[tuple, int] = {}
    s_add = chart.field.s_add
    for i in range(1, k + 1):
        if c[i - 1]:
            e = _suffix_monomial(n - 1, i, k)
            terms[e] = s_add[terms.get(e, 0)][c[i - 1]]
    return QPoly.build(chart.field, n - 1, terms)


# ---------------------------------------------------------------------------
# Charts
# ---------------------------------------------------------------------------

class Chart:
    """A complete flag chart: an adapted ordered basis of a linear space.

    ``basis`` is an ordered basis (b_1..b_n) of ``space``; the chart's
    complete flag has steps spanned by basis prefixes.  Coordinates of
    vectors are taken in this basis, and ``coord_space`` does their
    arithmetic.
    """

    def __init__(self, space: LinSpace, basis: Optional[Sequence[Vec]] = None):
        self.space = space
        self.field = space.field
        self.n = space.dim
        self.q = space.q
        self.coord_space = VSpace(space.field, space.dim)
        self.basis = tuple(space.reduce(b) for b in (basis or space.basis()))
        if len(self.basis) != self.n:
            raise ValueError("basis size must match the space dimension")
        steps = []
        for j in range(self.n + 1):
            steps.append(Subspace.from_vectors(
                space.vs, list(space.mod.rows) + list(self.basis[:j])))
        if steps[-1] != space.sub:
            raise ValueError("basis does not span the space")
        self.flag = Flag(tuple(steps))

    @classmethod
    def for_flag(cls, space: LinSpace, flag: Flag) -> "Chart":
        """The chart of a complete flag, with its canonical adapted basis."""
        if flag.steps[0] != space.mod or flag.steps[-1] != space.sub:
            raise ValueError("flag does not run from the modulus to the space")
        if len(flag.steps) != space.dim + 1:
            raise ValueError("chart flags must be complete")
        return cls(space, adapted_basis(flag))

    def to_coords(self, v: Vec) -> BVec:
        return self.space.coords(v, self.basis)

    def from_coords(self, c: BVec) -> Vec:
        return self.space.combine(c, self.basis)

    def flag_from_zero_indices(self, zeros: Iterable[int]) -> Flag:
        idx = sorted(set(zeros))
        steps = [self.flag.steps[0]] + [self.flag.steps[i] for i in idx] \
            + [self.flag.steps[-1]]
        return Flag(tuple(steps))

    def adapted_to(self, flag: Flag) -> bool:
        return all(step in self.flag.steps for step in flag.steps)

    def __repr__(self):
        return f"Chart(n={self.n}, q={self.q}, basis={self.basis})"


def standard_chart(space: LinSpace) -> Chart:
    return Chart(space)


# ---------------------------------------------------------------------------
# Chart membership and chart points
# ---------------------------------------------------------------------------

def chart_contains(chart: Chart, t: Sequence[FieldElement],
                   flag: Optional[Flag] = None):
    """Membership of t in the chart of ``flag`` (default: the complete flag).

    Returns (True, stratum flag) or (False, None).  The conditions are:
    the zero entries of t sit at interior indices of ``flag``, and within
    each block of the resulting zero-pattern stratum every non-trivial
    F_q-linear combination of the suffix products of t is nonzero.
    """
    n, fld = chart.n, chart.field
    if len(t) != n - 1:
        raise ValueError("coordinate tuple has the wrong length")
    flag = chart.flag if flag is None else flag
    if not chart.adapted_to(flag):
        raise ValueError("chart basis is not adapted to the flag")
    interior = {chart.flag.steps.index(s) for s in flag.steps[1:-1]}
    zeros = {i + 1 for i, x in enumerate(t) if not x}
    if not zeros <= interior:
        return False, None
    iseq = [0] + sorted(zeros) + [n]
    for k in range(1, len(iseq)):
        lo, hi = iseq[k - 1] + 1, iseq[k]
        # suffix products prod_{i=j}^{hi-1} t_i for j = lo .. hi (last = 1)
        prods = [fld.one]
        for i in range(hi - 1, lo - 1, -1):
            prods.append(prods[-1] * t[i - 1])
        prods.reverse()
        for combo in itertools.product(range(chart.q), repeat=len(prods)):
            if not any(combo):
                continue
            total = fld.zero
            for c, val in zip(combo, prods):
                if c:
                    total = total + fld.scalar(c) * val
            if not total:
                return False, None
    return True, chart.flag_from_zero_indices(zeros)


@dataclass(frozen=True)
class ChartPoint:
    """A chart membership witness: coordinates plus the detected stratum."""

    chart: Chart
    t: tuple  # (n-1) field elements
    stratum: Flag

    @cached_property
    def stratum_indices(self) -> tuple:
        """(i_0 = 0, i_1, ..., i_m = n): positions of the stratum steps."""
        return tuple(self.chart.flag.steps.index(s) for s in self.stratum.steps)

    def __repr__(self):
        return f"ChartPoint(t={[list(x.coeffs) for x in self.t]})"


def chart_point(chart: Chart, t: Sequence[FieldElement]) -> ChartPoint:
    ok, stratum = chart_contains(chart, t)
    if not ok:
        raise ValueError("coordinates violate the chart membership conditions")
    return ChartPoint(chart, tuple(t), stratum)


def chart_points(chart: Chart) -> List[ChartPoint]:
    """All points of the chart over the value field, in lexicographic order."""
    fld = chart.field
    out = []
    for packed in itertools.product(range(fld.order), repeat=chart.n - 1):
        t = tuple(fld.from_int(k) for k in packed)
        ok, stratum = chart_contains(chart, t)
        if ok:
            out.append(ChartPoint(chart, t, stratum))
    return out


# ---------------------------------------------------------------------------
# The reduced index set and the defining equations
# ---------------------------------------------------------------------------

def _lev(c: BVec) -> int:
    """Smallest j with v inside the j-th complete-flag step (0 for zero)."""
    return max((i + 1 for i, x in enumerate(c) if x), default=0)


def sigma_indices(cp: ChartPoint) -> List[Tuple[BVec, int]]:
    """The reduced indices (v, k): level k and v zero up to the k-th step."""
    iseq = cp.stratum_indices
    n, q = cp.chart.n, cp.chart.q
    out = []
    for k in range(1, len(iseq)):
        ik = iseq[k]
        for tail in itertools.product(range(q), repeat=n - ik):
            out.append(((0,) * ik + tail, k))
    return out


def q_value(cp: ChartPoint, c: BVec, k: int) -> FieldElement:
    """Q^k evaluated at the chart point, for a vector in the k-th step."""
    fld, t = cp.chart.field, cp.t
    if any(c[k:]):
        raise ValueError("vector lies outside the k-th flag step")
    total = fld.zero
    prod = fld.one  # running product t_i .. t_{k-1}
    for i in range(k, 0, -1):
        if c[i - 1]:
            total = total + fld.scalar(c[i - 1]) * prod
        if i > 1:
            prod = prod * t[i - 2]
    return total


def component_constraint(cp: ChartPoint, free: Tuple[BVec, int],
                         idx: Tuple[BVec, int]) -> Optional[ProjPoint]:
    """What the (w, l)-component forces at the index (v, k); None if free.

    On the component with free index (w, l), every other coordinate is
    pinned: to (Q at the truncation of w : 1) for higher levels congruent
    to w, and to (1 : 0) otherwise.
    """
    w, l = free
    v, k = idx
    if idx == free:
        return None
    fld = cp.chart.field
    ik = cp.stratum_indices[k]
    diff = cp.chart.coord_space.sub(v, w)
    if k > l and _lev(diff) <= ik:
        w_trunc = w[:ik] + (0,) * (cp.chart.n - ik)
        return ProjPoint(q_value(cp, w_trunc, ik), fld.one)
    return ProjPoint.infinity(fld)


def locate_component(cp: ChartPoint, point: Dict[Tuple[BVec, int], ProjPoint]):
    """The unique component whose equations the point satisfies, plus the
    position in that component's own coordinate."""
    return PointEquations(cp).locate(point)


def section_value(cp: ChartPoint, v: BVec, w: BVec) -> ProjPoint:
    """The (v, w)-coordinate of the zero section: (-Q^l_v : Q^l_w) with l
    minimal such that both vectors lie in the l-th complete-flag step."""
    l = max(_lev(v), _lev(w), 1)
    return ProjPoint(-q_value(cp, v, l), q_value(cp, w, l))


def section_assignment(cp: ChartPoint, u, g: Optional[GroupElement] = None
                       ) -> Dict[Tuple[BVec, int], ProjPoint]:
    """The reduced coordinates of the u-marked section (u in chart
    coordinates, or the infinity label), optionally composed with the
    coordinate action of a group element on the full index set."""
    fld = cp.chart.field
    cs = cp.chart.coord_space
    out = {}
    for (v, k) in sigma_indices(cp):
        tv, tw = v, cs.basis_vector(cp.stratum_indices[k])
        if g is not None:
            xi_inv = fld.s_inv[g.xi]
            gv = cp.chart.to_coords(g.v)
            tv = cs.scale(xi_inv, cs.sub(tv, gv))
            tw = cs.scale(xi_inv, tw)
        if u == INF:
            out[(v, k)] = ProjPoint.infinity(fld)
        else:
            out[(v, k)] = section_value(cp, cs.sub(tv, u), tw)
    return out


def g_translate_index(space: LinSpace, idx, g: GroupElement):
    """The coordinate action on full indices: (v, w) -> (xi^-1(v-u), xi^-1 w)."""
    v, w = idx
    xi_inv = space.field.s_inv[g.xi]
    return (space.scale(xi_inv, space.sub_vec(v, g.v)),
            space.scale(xi_inv, w))


def check_equations(cp: ChartPoint,
                    assignment: Dict[Tuple[BVec, int], ProjPoint]) -> bool:
    """Verify the full defining equations at the chart point (see
    :class:`PointEquations`)."""
    return PointEquations(cp).check(assignment)


class PointEquations:
    """The defining equations and component constraints of one chart point.

    Both depend only on the chart point, so each is built once, on first
    use, and serves every section, node and translate over it.

    ``equations`` lists, for all levels l and reduced indices (v,k),
    (v',k') with k, k' <= l and v - v' inside the l-th stratum step, the
    two indices and the coefficients (qa, qb, qc) of
    qa X_{vk} Y_{v'k'} + qb Y_{vk} Y_{v'k'} = qc X_{v'k'} Y_{vk}, where
    qa = Q^{i_l}_{b_{i_k}}, qb = Q^{i_l}_{v-v'} and qc = Q^{i_l}_{b_{i_k'}}.
    ``pinned[free]`` maps every other index to the point that the
    component with that free index pins there (see
    :func:`component_constraint`).
    """

    def __init__(self, cp: ChartPoint):
        self.cp = cp
        self.indices = sigma_indices(cp)

    @cached_property
    def equations(self) -> list:
        cp, idxs = self.cp, self.indices
        cs = cp.chart.coord_space
        iseq = cp.stratum_indices
        q_memo = {}

        def q(c, level):
            out = q_memo.get((c, level))
            if out is None:
                out = q_memo[(c, level)] = q_value(cp, c, level)
            return out

        out = []
        for l in range(1, len(iseq)):
            il = iseq[l]
            for (v, k) in idxs:
                if k > l:
                    continue
                qa = q(cs.basis_vector(iseq[k]), il)
                for (v2, k2) in idxs:
                    if k2 > l:
                        continue
                    diff = cs.sub(v, v2)
                    if _lev(diff) > il:
                        continue
                    out.append(((v, k), (v2, k2), qa, q(diff, il),
                                q(cs.basis_vector(iseq[k2]), il)))
        return out

    @cached_property
    def pinned(self) -> dict:
        return {free: {idx: c for idx in self.indices
                       if (c := component_constraint(self.cp, free, idx))
                       is not None}
                for free in self.indices}

    def check(self, assignment: Dict[Tuple[BVec, int], ProjPoint]) -> bool:
        """Whether the assignment satisfies every defining equation."""
        for i, j, qa, qb, qc in self.equations:
            p1, p2 = assignment[i], assignment[j]
            # points are normalized to (x : 1) or (1 : 0), which leaves
            # qa x1 + qb = qc x2, 0 = qc, qa = 0 or nothing to check
            if p1.y:
                if (qa * p1.x + qb != qc * p2.x) if p2.y else qc:
                    return False
            elif p2.y and qa:
                return False
        return True

    def node(self, upper: Tuple[BVec, int],
             lower: Tuple[BVec, int]) -> Dict[Tuple[BVec, int], ProjPoint]:
        """The full coordinate tuple of the node between two adjacent
        components.

        Intersects the two components' constraint systems; each pins the
        other's free coordinate and they must agree everywhere else.
        """
        up, low = self.pinned[upper], self.pinned[lower]
        point = {}
        for idx in self.indices:
            a, b = up.get(idx), low.get(idx)
            if a is not None and b is not None and a != b:
                raise AssertionError("adjacent component equations disagree")
            value = a if a is not None else b
            if value is None:
                raise AssertionError("node equations leave a coordinate free")
            point[idx] = value
        return point

    def locate(self, point: Dict[Tuple[BVec, int], ProjPoint]):
        """See :func:`locate_component`."""
        hits = [free for free, pins in self.pinned.items()
                if all(point[idx] == expected for idx, expected in pins.items())]
        if len(hits) != 1:
            raise ValueError(f"point satisfied {len(hits)} component systems")
        return hits[0], point[hits[0]]


# ---------------------------------------------------------------------------
# Fiber synthesis
# ---------------------------------------------------------------------------

def fiber(cp: ChartPoint) -> Fern:
    """Synthesize the fern over a chart point.

    Components are indexed by the reduced indices; nodes join consecutive
    levels within the same residue class, at positions solved from the
    component equations; marks are found by translate-then-locate.  The
    result is validated and its associated flag equals the stratum.
    """
    chart = cp.chart
    fld = chart.field
    iseq = cp.stratum_indices
    m = len(iseq) - 1
    eqs = PointEquations(cp)
    idxs = eqs.indices

    def cid(idx):
        v, k = idx
        return ("E", chart.from_coords(v), k)

    nodes = []
    for (v, k) in idxs:
        if k == 1:
            continue
        lo, hi = iseq[k - 1], iseq[k]
        for window in itertools.product(range(chart.q), repeat=hi - lo):
            u = (0,) * lo + window + (0,) * (chart.n - hi)
            v2 = chart.coord_space.add(v, u)
            point = eqs.node((v, k), (v2, k - 1))
            nodes.append(curve.node(cid((v, k)), point[(v, k)],
                                    cid((v2, k - 1)), point[(v2, k - 1)]))

    marking = {}
    for u_vec in chart.space.vectors():
        u_b = chart.to_coords(u_vec)
        point = section_assignment(cp, u_b)
        home, pos = eqs.locate(point)
        if not eqs.check(point):
            raise AssertionError("section fails the defining equations")
        marking[u_vec] = (cid(home), pos)
    marking[INF] = (cid(((0,) * chart.n, m)), ProjPoint.infinity(fld))

    tree = curve.MarkedTree(fld, [cid(i) for i in idxs], nodes, marking)
    result = validate_fern(tree, chart.space)
    if result.flag.steps != cp.stratum.steps:
        raise AssertionError("fiber flag does not match the stratum")
    return result


# ---------------------------------------------------------------------------
# Classification: from ferns to functional tuples and back to coordinates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassPoint:
    """One nonzero functional class per nonzero subspace, canonically scaled.

    ``functionals[W]`` lists the values at the canonical basis of W (as a
    subquotient over the ambient modulus), scaled so that the last nonzero
    entry is one.
    """

    space: LinSpace
    functionals: dict  # Subspace -> tuple of FieldElements

    def value(self, w: Subspace, v: Vec) -> FieldElement:
        coords = self.space.subquotient(w).coords(v)
        fld = self.space.field
        total = fld.zero
        for c, val in zip(coords, self.functionals[w]):
            if c:
                total = total + fld.scalar(c) * val
        return total


def canonical_functional(values: Sequence[FieldElement]) -> tuple:
    """Scale a nonzero tuple so its last nonzero coordinate is one."""
    last = max(i for i, x in enumerate(values) if x)
    inv = values[last].inverse()
    return tuple(x * inv for x in values)


def classify(f: Fern) -> ClassPoint:
    """The functional tuple of a fern: for each nonzero subspace W, the
    line values of the contraction to W and infinity, canonically scaled
    on the basis of W.

    No contraction is built.  Contracting keeps the coordinate of every
    surviving component and lands each forgotten branch at its node
    point, so that contraction, squashed onto its infinity component, is
    one component c_W of the fern with each mark of W at its entry point
    there (:func:`curve.entry_points`).  c_W is the first component on
    the path from the infinity mark to the 0-mark where the marks of W
    enter through at least two points.  None of them enters c_W through
    the infinity mark's point: a mark of W on that side sits on or hangs
    off an earlier path component, which the 0-mark enters through
    another point, so that earlier component would come first.
    """
    space = f.space
    path = [curve.entry_points(f.tree, c) for c in reversed(f.chain)]
    functionals = {}
    for d in range(1, space.dim + 1):
        for w in space.subspace_steps(d):
            sub = space.subquotient(w)
            basis = sub.basis()
            values = fern_mod._line_values(_separating_entry(path, sub), sub,
                                           sub.zero, INF, basis)
            functionals[w] = canonical_functional([values[b] for b in basis])
    return ClassPoint(space, functionals)


def _separating_entry(path: list, sub: LinSpace) -> dict:
    """The entry points of the first component on ``path`` where the marks
    of ``sub`` enter through two or more points."""
    for entry in path:
        if len({entry[v] for v in sub.vectors()}) >= 2:
            return entry
    raise AssertionError("no component on the infinity-to-zero path "
                         "separates the marks of the subspace")


def chart_coords(point: ClassPoint, chart: Chart) -> tuple:
    """Affine coordinates of a classified point in a chart:
    t_i = value of the (i+1)-st step functional at b_i over its value at
    b_{i+1}."""
    out = []
    for i in range(1, chart.n):
        step = chart.flag.steps[i + 1]
        num = point.value(step, chart.basis[i - 1])
        den = point.value(step, chart.basis[i])
        if not den:
            raise ValueError("point lies outside this chart")
        out.append(num / den)
    return tuple(out)


class CompatibilityChecker:
    """Precomputed nested-pair structure for fast membership tests.

    For every nested pair of nonzero subspaces the coordinates of the
    small basis inside the big one are tabulated once; checking a
    functional tuple is then pure scalar arithmetic.
    """

    def __init__(self, space: LinSpace):
        self.space = space
        self.subs = [w for d in range(1, space.dim + 1)
                     for w in space.subspace_steps(d)]
        self.pairs = []  # (small, big, small-basis coords in big's basis)
        for w_small in self.subs:
            small = space.subquotient(w_small)
            for w_big in self.subs:
                if w_big.dim <= w_small.dim or not w_big.contains_subspace(w_small):
                    continue
                big = space.subquotient(w_big)
                coords = tuple(big.coords(b) for b in small.basis())
                self.pairs.append((w_small, w_big, coords))

    def _restrict(self, functionals, w_big, coords):
        fld = self.space.field
        big_vals = functionals[w_big]
        out = []
        for c in coords:
            total = fld.zero
            for ci, val in zip(c, big_vals):
                if ci:
                    total = total + fld.scalar(ci) * val
            out.append(total)
        return out

    def bv_ok(self, functionals: dict) -> bool:
        for w_small, w_big, coords in self.pairs:
            small_vals = functionals[w_small]
            big_vals = self._restrict(functionals, w_big, coords)
            d = len(small_vals)
            for i in range(d):
                for j in range(i + 1, d):
                    if big_vals[i] * small_vals[j] != big_vals[j] * small_vals[i]:
                        return False
        return True

    def uf_ok(self, functionals: dict, flag: Flag) -> bool:
        if not self.bv_ok(functionals):
            return False
        for w_small, w_big, coords in self.pairs:
            separated = any(
                step.contains_subspace(w_small)
                and not step.contains_subspace(w_big)
                for step in flag.steps)
            if separated:
                continue
            if not any(self._restrict(functionals, w_big, coords)):
                return False
        return True


def compatibility_checker(space: LinSpace) -> CompatibilityChecker:
    """The checker of a space, built on first use and kept on the space."""
    if space.checker is None:
        space.checker = CompatibilityChecker(space)
    return space.checker


def bv_member(point: ClassPoint) -> bool:
    """The compatibility condition: for every pair of nested subspaces the
    larger functional restricts to a (possibly zero) multiple of the
    smaller one."""
    return compatibility_checker(point.space).bv_ok(point.functionals)


def uf_member(point: ClassPoint, flag: Flag) -> bool:
    """Chart membership on top of compatibility: for nested pairs not
    separated by the flag, the larger functional must not vanish
    identically on the smaller subspace."""
    return compatibility_checker(point.space).uf_ok(point.functionals, flag)


def functional_candidates(space: LinSpace, w: Subspace) -> List[tuple]:
    """All canonically scaled nonzero functional classes on a subspace."""
    fld = space.field
    d = space.subquotient(w).dim
    out = []
    for last in range(d):
        for packed in itertools.product(range(fld.order), repeat=last):
            values = [fld.from_int(k) for k in packed] + [fld.one] \
                + [fld.zero] * (d - last - 1)
            out.append(tuple(values))
    return out
