"""The explicit universal family over flag charts, and the classification map.

A chart is a complete flag together with an adapted ordered basis; its
points are coordinate tuples t in K^(n-1) subject to the membership
conditions below, and each point carries a stratum flag read off the zero
pattern of t.  Every Q^k is F_q-linear in the vector, with the suffix
products of t as coefficients, tabulated once per point in
``ChartPoint.suffix``.

The fiber over a chart point is written down in closed form from that
table (see :func:`fiber`): one projective line per reduced index (v, k)
with v zero up to the k-th stratum step, nodes between consecutive levels
of one residue class, and marks at Q values.  These positions are the
solutions of the universal family's equations, which stay here as the
oracle: ``component_constraint`` gives what each component pins,
``section_assignment`` the coordinates of a marked section or a translate
of it, ``locate_component`` the unique component whose constraints a
point satisfies, and ``check_equations`` (through :class:`PointEquations`)
the defining equations, which by linearity ask for one projective value
per level and residue class.  ``verify`` and the tests compare the closed
form with these solutions.

``classify`` goes the other way: it reads one functional class per
nonzero subspace off a fern, giving a point of the compactified period
domain whose chart coordinates recover the fiber parameters exactly.  The
class of W is the line datum of the contraction to W and infinity; it is
read at the marks' entry points on one component of the path from the
infinity mark to the 0-mark, with no contraction built, in a coordinate
fixed only by where the 0-mark and the infinity mark enter, and then
canonically scaled.  ``round_trip`` runs both directions over one chart
point and checks that the fiber glues across the charts of an atlas.
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


# ---------------------------------------------------------------------------
# Charts
# ---------------------------------------------------------------------------

class Chart:
    """A complete flag chart: an adapted ordered basis of a linear space.

    ``basis`` is an ordered basis (b_1..b_n) of ``space``; the chart's
    complete flag has steps spanned by basis prefixes, and ``positions``
    maps each step to its index in that flag.  Coordinates of vectors are
    taken in this basis, and ``coord_space`` does their arithmetic.
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
        self.positions = {s: i for i, s in enumerate(steps)}

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
        return all(step in self.positions for step in flag.steps)

    def __repr__(self):
        return f"Chart(n={self.n}, q={self.q}, basis={self.basis})"


# ---------------------------------------------------------------------------
# Chart membership and chart points
# ---------------------------------------------------------------------------

def _suffix_products(fld, t: Sequence[FieldElement]) -> tuple:
    """Row k, for k = 0 .. n, lists the products t_i .. t_{k-1} for
    i = 1 .. k; the last entry of each row is the empty product, one."""
    rows = [(), (fld.one,)]
    for x in t:  # row k + 1 is row k times t_k, then one
        rows.append((*[y * x for y in rows[-1]], fld.one))
    return tuple(rows)


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
    interior = {chart.positions[s] for s in flag.steps[1:-1]}
    zeros = {i + 1 for i, x in enumerate(t) if not x}
    if not zeros <= interior:
        return False, None
    iseq = [0] + sorted(zeros) + [n]
    suffix = _suffix_products(fld, t)
    for k in range(1, len(iseq)):
        lo, hi = iseq[k - 1] + 1, iseq[k]
        prods = suffix[hi][lo - 1:]  # t_j .. t_{hi-1} for j = lo .. hi
        for combo in itertools.product(range(chart.q), repeat=len(prods)):
            if any(combo) and not fld.combine(combo, prods):
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
        return tuple(self.chart.positions[s] for s in self.stratum.steps)

    @cached_property
    def suffix(self) -> tuple:
        """The suffix products of t (:func:`_suffix_products`): row k holds
        the coefficients of the F_q-linear form Q^k."""
        return _suffix_products(self.chart.field, self.t)

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
    if any(c[k:]):
        raise ValueError("vector lies outside the k-th flag step")
    return cp.chart.field.combine(c, cp.suffix[k])


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
    """The unique component whose constraints the point satisfies, plus the
    position in that component's own coordinate."""
    idxs = sigma_indices(cp)
    hits = [free for free in idxs
            if all(point[idx] == pinned for idx in idxs
                   if (pinned := component_constraint(cp, free, idx))
                   is not None)]
    if len(hits) != 1:
        raise ValueError(f"point satisfied {len(hits)} component systems")
    return hits[0], point[hits[0]]


def section_assignment(cp: ChartPoint, u, g: Optional[GroupElement] = None
                       ) -> Dict[Tuple[BVec, int], ProjPoint]:
    """The reduced coordinates of the u-marked section (u in chart
    coordinates, or the infinity label), optionally composed with the
    coordinate action of a group element on the full index set.

    The (v, w)-coordinate of the zero section is (-Q^l_v : Q^l_w), with l
    minimal such that both vectors lie in the l-th complete-flag step."""
    fld = cp.chart.field
    cs = cp.chart.coord_space
    if u == INF:
        return {idx: ProjPoint.infinity(fld) for idx in sigma_indices(cp)}
    if g is not None:
        xi_inv = fld.s_inv[g.xi]
        gv = cp.chart.to_coords(g.v)
    out = {}
    for (v, k) in sigma_indices(cp):
        tv, tw = v, cs.basis_vector(cp.stratum_indices[k])
        if g is not None:
            tv = cs.scale(xi_inv, cs.sub(tv, gv))
            tw = cs.scale(xi_inv, tw)
        tv = cs.sub(tv, u)
        l = max(_lev(tv), _lev(tw), 1)
        out[(v, k)] = ProjPoint(-q_value(cp, tv, l), q_value(cp, tw, l))
    return out


def check_equations(cp: ChartPoint,
                    assignment: Dict[Tuple[BVec, int], ProjPoint]) -> bool:
    """Verify the full defining equations at the chart point (see
    :class:`PointEquations`)."""
    return PointEquations(cp).check(assignment)


class PointEquations:
    """The defining equations of one chart point, built once and shared by
    every section and translate over it.

    The defining equations ask, at each stratum level l, for reduced
    indices (v,k), (v',k') with k, k' <= l and v - v' in the l-th stratum
    step, that qa X_{vk} Y_{v'k'} + qb Y_{vk} Y_{v'k'} = qc X_{v'k'} Y_{vk},
    with qa = Q^{i_l}_{b_{i_k}}, qb = Q^{i_l}_{v-v'}, qc = Q^{i_l}_{b_{i_k'}}.
    Q^{i_l} is linear, so qb = Q^{i_l}_v - Q^{i_l}_{v'} on the truncations,
    and the equation says Phi_l(v,k) = (qa X_{vk} + Q^{i_l}_v Y_{vk} : Y_{vk})
    equals Phi_l(v',k') unless one of them is (0 : 0).  So they hold when
    each residue class v[i_l:] takes one Phi value at each level; ``levels``
    lists per level the rows (index, v[i_l:], qa, Q^{i_l}_v) for k <= l.
    """

    def __init__(self, cp: ChartPoint):
        combine = cp.chart.field.combine
        iseq = cp.stratum_indices
        idxs = sigma_indices(cp)
        self.levels = []
        for l in range(1, len(iseq)):
            il = iseq[l]
            q_row = cp.suffix[il]
            self.levels.append([
                ((v, k), v[il:], q_row[iseq[k] - 1], combine(v, q_row))
                for (v, k) in idxs if k <= l])

    def check(self, assignment: Dict[Tuple[BVec, int], ProjPoint]) -> bool:
        """Whether the assignment satisfies every defining equation."""
        for rows in self.levels:
            phi = {}
            for idx, key, qa, qv in rows:
                # points are normalized to (x : 1) or (1 : 0), so Phi is
                # (qa x + qv : 1), or (qa : 0): (1 : 0), kept as None, or
                # (0 : 0) when qa = 0, which satisfies every equation
                p = assignment[idx]
                if p.y or qa:
                    value = qa * p.x + qv if p.y else None
                    if phi.setdefault(key, value) != value:
                        return False
        return True


# ---------------------------------------------------------------------------
# Fiber synthesis
# ---------------------------------------------------------------------------

def component_id(chart: Chart, idx: Tuple[BVec, int]) -> tuple:
    """The id of the fiber component with reduced index (v, k)."""
    v, k = idx
    return ("E", chart.from_coords(v), k)


def fiber(cp: ChartPoint) -> Fern:
    """The fern over a chart point, in closed form.

    With i_k the stratum positions and Q^j(u) the combination of u's first
    j coordinates with ``cp.suffix[j]``:

    * one component per reduced index (v, k);
    * for k >= 2 and every u nonzero only in coordinates i_{k-1}+1 .. i_k,
      the (v, k)-component meets the (v + u, k - 1)-component at
      (Q^{i_k}(u) : 1) on the first and at infinity on the second;
    * the u-mark sits on ((0^{i_1}, u[i_1:]), 1) at (Q^{i_1}(u) : 1), and
      the infinity mark on (0, m) at infinity.

    These solve the defining equations.  The (v + u, k - 1)-component pins
    the (v, k) coordinate to (Q^{i_k}((v + u)[:i_k]) : 1), and
    (v + u)[:i_k] = u (:func:`component_constraint`).  A section's (v, k)
    coordinate is (-Q^l(v - u) : Q^l(b_{i_k})), and for l > i_k the factor
    t_{i_k} = 0 of Q^l(b_{i_k}) makes it (Q^{i_k}(u) : 1) on u's class and
    infinity off it (:func:`section_assignment`).  The result is validated
    and its associated flag equals the stratum.
    """
    chart = cp.chart
    fld, n = chart.field, chart.n
    iseq = cp.stratum_indices
    ids = {idx: component_id(chart, idx) for idx in sigma_indices(cp)}
    infinity = ProjPoint.infinity(fld)

    nodes = []
    for (v, k), cid in ids.items():
        if k == 1:
            continue
        lo, hi = iseq[k - 1], iseq[k]
        row = cp.suffix[hi][lo:]
        for window in itertools.product(range(chart.q), repeat=hi - lo):
            u = (0,) * lo + window + (0,) * (n - hi)
            lower = ids[(chart.coord_space.add(v, u), k - 1)]
            at = ProjPoint.affine(fld.combine(window, row))
            nodes.append(curve.node(cid, at, lower, infinity))

    i1 = iseq[1]
    marking = {}
    for u_vec in chart.space.vectors():
        u = chart.to_coords(u_vec)
        marking[u_vec] = (ids[((0,) * i1 + u[i1:], 1)],
                          ProjPoint.affine(fld.combine(u, cp.suffix[i1])))
    marking[INF] = (ids[((0,) * n, len(iseq) - 1)], infinity)

    tree = curve.MarkedTree(fld, ids.values(), nodes, marking)
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
        return self.space.field.combine(self.space.subquotient(w).coords(v),
                                        self.functionals[w])


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
    there (:func:`curve.entry_points`), read from the entry maps that the
    fern's tree keeps and its validation already built.  c_W is the first
    component on the path from the infinity mark to the 0-mark where the
    marks of W enter through at least two points.  None of them enters
    c_W through the infinity mark's point: a mark of W on that side sits
    on or hangs off an earlier path component, which the 0-mark enters
    through another point, so that earlier component would come first.
    """
    space = f.space
    path = [f.tree.entry[c] for c in reversed(f.chain)]
    functionals = {}
    for d in range(1, space.dim + 1):
        for w in space.subspace_steps(d):
            sub = space.subquotient(w)
            basis = sub.basis()
            values = fern_mod._line_values(_separating_entry(path, sub),
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


def round_trip(cp: ChartPoint, atlas: Sequence[Chart]
               ) -> Tuple[Fern, Optional[str]]:
    """The fiber over a chart point, and how its round trip fails (None
    when it holds).

    Classifying the fiber must give back the point's coordinates.  A fern
    is the pullback of the universal family along its classifying map in
    every chart that contains its class, so in every other chart of
    ``atlas`` that contains the class, the fiber must be isomorphic to
    this one and classify to the same point.
    """
    fb = fiber(cp)
    point = classify(fb)
    if chart_coords(point, cp.chart) != cp.t:
        return fb, "coordinates drift"
    for chart in atlas:
        if chart is cp.chart:
            continue
        try:
            there = chart_point(chart, chart_coords(point, chart))
        except ValueError:  # the class lies outside this chart
            continue
        other = fiber(there)
        if curve.are_isomorphic(fb.tree, other.tree) is None:
            return fb, "fibers differ across charts"
        if classify(other) != point:
            return fb, "classes differ across charts"
    return fb, None


class CompatibilityChecker:
    """Precomputed nested-pair structure for fast membership tests.

    For every nested pair of nonzero subspaces the coordinates of the
    small basis inside the big one are tabulated once; checking a
    functional tuple is then pure scalar arithmetic.  ``pairs`` lists every
    nested pair, ``plane_pairs`` those whose small side has dimension at
    least two: any value is a multiple of a single nonzero one, so only
    those can fail compatibility.
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
        self.plane_pairs = [pair for pair in self.pairs if len(pair[2]) >= 2]

    def _restrict(self, functionals, w_big, coords):
        combine, big_vals = self.space.field.combine, functionals[w_big]
        return [combine(c, big_vals) for c in coords]

    def bv_ok(self, functionals: dict, pairs=None) -> bool:
        """The compatibility condition: for every pair of nested subspaces
        the larger functional restricts to a (possibly zero) multiple of
        the smaller one.  Checks the given entries of ``plane_pairs``, or
        all of them when ``pairs`` is None; ``functionals`` needs a value
        only on the subspaces those pairs name."""
        if pairs is None:
            pairs = self.plane_pairs
        for w_small, w_big, coords in pairs:
            small_vals = functionals[w_small]
            d = len(small_vals)
            big_vals = self._restrict(functionals, w_big, coords)
            for i in range(d):
                for j in range(i + 1, d):
                    if big_vals[i] * small_vals[j] != big_vals[j] * small_vals[i]:
                        return False
        return True


def compatibility_checker(space: LinSpace) -> CompatibilityChecker:
    """The checker of a space."""
    return CompatibilityChecker(space)


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
