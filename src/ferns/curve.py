"""Stable marked trees of projective lines over a finite field.

A curve here is a connected tree of copies of P^1: each component carries
its own projective coordinate, and the gluing data lives entirely in node
records that pair a point on one component with a point on another.  Marks
are labels placed at points.  This representation makes the classical tree
surgeries coordinate transports:

* ``contract``        forget marks and collapse unstable components, read
                      off the entry maps, so that it does not depend on
                      the order in which marks are forgotten,
* ``stabilize``       insert a new mark, sprouting a component if needed,
* ``contract_to_component``  squash everything onto one component,
* ``entry_points``    where each mark lands on one component when all the
                      others are collapsed, read off the tree without
                      building a contraction,
* ``marked_isomorphism``  find the unique isomorphism that relabels the
                      marks by a given bijection (an automorphism when
                      no second tree is given): one scan places a root
                      component, and a walk over the tree places the
                      rest, each neighbour at the image of its node point,
* ``Mobius.from_standard``  the one three-point construction, sending
                      (0:1), (1:1), (1:0) to three given points,
* ``are_isomorphic``  the label-preserving case between two trees.

Trees are immutable; every operation returns new values.  Each tree builds
the data that every isomorphism search and every reading of entry points
shares, ``MarkedTree.entry`` and ``MarkedTree.anchors``, on first use and
keeps it.  Unstable trees are representable (they occur as stabilization
inputs and as contraction images); only ``MarkedTree.validate`` decides
stability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .gf import ExtField, FieldElement


class DegenerateInput(ValueError):
    """Raised when projective input collapses (coincident anchor points)."""


# ---------------------------------------------------------------------------
# Points on a projective line and Moebius transformations
# ---------------------------------------------------------------------------

class ProjPoint:
    """A point (x : y) on P^1, normalized to (x, 1) or (1, 0)."""

    __slots__ = ("x", "y")

    def __init__(self, x: FieldElement, y: FieldElement):
        if not x and not y:
            raise DegenerateInput("(0 : 0) is not a projective point")
        if y:
            self.x = x / y
            self.y = y.field.one
        else:
            self.x = x.field.one
            self.y = x.field.zero

    @classmethod
    def affine(cls, value: FieldElement) -> "ProjPoint":
        return cls(value, value.field.one)

    @classmethod
    def infinity(cls, fld: ExtField) -> "ProjPoint":
        return cls(fld.one, fld.zero)

    @classmethod
    def zero(cls, fld: ExtField) -> "ProjPoint":
        return cls(fld.zero, fld.one)

    @property
    def is_infinity(self) -> bool:
        return not self.y

    def affine_value(self) -> FieldElement:
        if self.is_infinity:
            raise DegenerateInput("point at infinity has no affine value")
        return self.x

    def __eq__(self, other):
        return (isinstance(other, ProjPoint) and self.x == other.x
                and self.y == other.y)

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return "(1:0)" if self.is_infinity else f"({list(self.x.coeffs)}:1)"


class Mobius:
    """An invertible fractional-linear map of P^1, stored as a 2x2 matrix."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        if not (a * d - b * c):
            raise DegenerateInput("matrix is singular")
        self.a, self.b, self.c, self.d = a, b, c, d

    def apply(self, p: ProjPoint) -> ProjPoint:
        return ProjPoint(self.a * p.x + self.b * p.y, self.c * p.x + self.d * p.y)

    def compose(self, other: "Mobius") -> "Mobius":
        # self after other
        return Mobius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mobius":
        return Mobius(self.d, -self.b, -self.c, self.a)

    @classmethod
    def zero_infinity(cls, p0: ProjPoint, pinf: ProjPoint) -> "Mobius":
        """A map with p0 -> (0:1) and pinf -> (1:0), unique up to a scaling
        z -> c z."""
        if p0 == pinf:
            raise DegenerateInput("anchor points must be distinct")
        return cls(p0.y, -p0.x, pinf.y, -pinf.x)

    @classmethod
    def from_standard(cls, p0: ProjPoint, p1: ProjPoint, pinf: ProjPoint) -> "Mobius":
        """The unique map with (0:1) -> p0, (1:1) -> p1, (1:0) -> pinf.

        Its columns are multiples of pinf and p0 whose sum is a multiple of
        p1; Cramer's rule gives the multiples, both scaled by one
        determinant so that no division is needed.  Coincident points make
        the matrix singular (DegenerateInput)."""
        s = p1.x * p0.y - p0.x * p1.y
        t = pinf.x * p1.y - p1.x * pinf.y
        return cls(s * pinf.x, t * p0.x, s * pinf.y, t * p0.y)

    @classmethod
    def to_standard(cls, p0: ProjPoint, p1: ProjPoint, pinf: ProjPoint) -> "Mobius":
        """The unique map with p0 -> (0:1), p1 -> (1:1), pinf -> (1:0): the
        inverse of :meth:`from_standard`."""
        return cls.from_standard(p0, p1, pinf).inverse()

    def normalized(self) -> Tuple:
        for pivot in (self.a, self.b, self.c, self.d):
            if pivot:
                inv = pivot.inverse()
                return tuple((t * inv).coeffs for t in (self.a, self.b, self.c, self.d))
        raise AssertionError("unreachable")

    def __eq__(self, other):
        return isinstance(other, Mobius) and self.normalized() == other.normalized()

    def __hash__(self):
        return hash(self.normalized())

    def is_scaling_by(self, factor: FieldElement) -> bool:
        """True iff this map is z -> factor * z (projectively)."""
        return (not self.b) and (not self.c) and self.a == factor * self.d

    def __repr__(self):
        return f"Mobius{self.normalized()}"


# ---------------------------------------------------------------------------
# Marked trees
# ---------------------------------------------------------------------------

End = Tuple[object, ProjPoint]  # (component id, position)


def node(c1, p1: ProjPoint, c2, p2: ProjPoint) -> frozenset:
    """An unordered gluing record between points of two distinct components."""
    if c1 == c2:
        raise ValueError("a node must join two distinct components")
    return frozenset(((c1, p1), (c2, p2)))


def _cid_key(cid) -> str:
    return repr(cid)


@dataclass(frozen=True)
class StabilityReport:
    violations: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class MarkedTree:
    """An immutable marked tree of projective lines over a field.

    ``marking`` maps structural labels to (component id, point); these are
    the marks that stability and isomorphism talk about.  ``extra`` holds
    transported non-structural points (for instance the forgotten marks
    after a contraction); they may collide freely and are ignored by
    ``validate`` and ``are_isomorphic``.

    ``entry`` and ``anchors`` are derived from the structure on first use
    and kept, so every search and every reading of entry points on one
    tree shares them.
    """

    __slots__ = ("field", "components", "nodes", "marking", "extra",
                 "_adj", "_marks_on", "_entry", "_anchors")

    def __init__(self, fld: ExtField, components: Iterable, nodes: Iterable,
                 marking: Dict, extra: Optional[Dict] = None):
        self.field = fld
        self.components = frozenset(components)
        self.nodes = frozenset(nodes)
        self.marking = dict(marking)
        self.extra = dict(extra or {})
        for lbl, (cid, _) in list(self.marking.items()) + list(self.extra.items()):
            if cid not in self.components:
                raise ValueError(f"mark {lbl!r} placed on unknown component {cid!r}")
        adj: Dict[object, Dict[object, ProjPoint]] = {c: {} for c in self.components}
        for nd in self.nodes:
            (c1, p1), (c2, p2) = sorted(nd, key=lambda e: _cid_key(e[0]))
            if c1 not in adj or c2 not in adj:
                raise ValueError("node references an unknown component")
            if c2 in adj[c1]:
                raise ValueError("two components glued more than once")
            adj[c1][c2] = p1
            adj[c2][c1] = p2
        self._adj = adj
        marks_on: Dict[object, Dict] = {c: {} for c in self.components}
        for lbl, (cid, pt) in self.marking.items():
            marks_on[cid][lbl] = pt
        self._marks_on = marks_on
        self._entry = self._anchors = None

    # -- structure ----------------------------------------------------------

    def neighbors(self, cid) -> dict:
        return self._adj[cid]

    def marks_on(self, cid) -> dict:
        return self._marks_on[cid]

    @property
    def entry(self) -> Dict[object, Dict[object, ProjPoint]]:
        """The entry maps: for each component, the point through which
        every mark is reached (:func:`entry_points`)."""
        if self._entry is None:
            self._entry = {c: entry_points(self, c) for c in self.components}
        return self._entry

    @property
    def anchors(self) -> Dict[object, Tuple[tuple, Mobius]]:
        """For each component c reached through three or more points, three
        marks reached through distinct points of c (the smallest by
        ``repr`` of the smallest mark in each direction) and the Moebius
        map sending their entry points to (0:1), (1:1), (1:0).  The marks
        are ranked by ``repr`` once per tree, and each component compares
        ranks.  A component reached through fewer points is left out, and
        searching from it raises."""
        if self._anchors is None:
            order = sorted(self.marking, key=repr)
            rank = {lbl: r for r, lbl in enumerate(order)}
            self._anchors = {}
            for c, entry in self.entry.items():
                best: Dict[ProjPoint, int] = {}
                for lbl, pt in entry.items():
                    r = rank[lbl]
                    if r < best.get(pt, len(order)):
                        best[pt] = r
                if len(best) < 3:
                    continue
                marks = tuple(order[r] for r in sorted(best.values())[:3])
                self._anchors[c] = (
                    marks, Mobius.to_standard(*(entry[a] for a in marks)))
        return self._anchors

    def is_connected_tree(self) -> bool:
        if not self.components:
            return False
        if len(self.nodes) != len(self.components) - 1:
            return False
        seen, stack = set(), [next(iter(self.components))]
        while stack:
            c = stack.pop()
            if c in seen:
                continue
            seen.add(c)
            stack.extend(self._adj[c])
        return len(seen) == len(self.components)

    def path(self, start, goal) -> list:
        """The unique component path from start to goal (inclusive)."""
        prev = {start: None}
        queue = [start]
        while queue:
            c = queue.pop(0)
            if c == goal:
                out = []
                while c is not None:
                    out.append(c)
                    c = prev[c]
                return out[::-1]
            for d in self._adj[c]:
                if d not in prev:
                    prev[d] = c
                    queue.append(d)
        raise ValueError("components live in different trees")

    # -- identity -----------------------------------------------------------

    def canonical_key(self):
        return (
            tuple(sorted((_cid_key(c) for c in self.components))),
            tuple(sorted((tuple(sorted(((_cid_key(c), p.x.coeffs, p.y.coeffs)
                                        for c, p in nd))) for nd in self.nodes))),
            tuple(sorted((repr(l), _cid_key(c), p.x.coeffs, p.y.coeffs)
                         for l, (c, p) in self.marking.items())),
            tuple(sorted((repr(l), _cid_key(c), p.x.coeffs, p.y.coeffs)
                         for l, (c, p) in self.extra.items())),
        )

    def __eq__(self, other):
        return (isinstance(other, MarkedTree) and self.field is other.field
                and self.canonical_key() == other.canonical_key())

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return (f"MarkedTree({len(self.components)} components, "
                f"{len(self.marking)} marks)")

    # -- stability ----------------------------------------------------------

    def validate(self) -> StabilityReport:
        """Check the stability conditions; reports violations, never raises."""
        v: List[str] = []
        if not self.is_connected_tree():
            v.append("incidence graph is not a connected tree")
        node_points = {c: set(self._adj[c].values()) for c in self.components}
        for c in self.components:
            if len(node_points[c]) != len(self._adj[c]):
                v.append(f"component {c!r} has coincident node points")
        seen_positions: Dict[End, object] = {}
        for lbl, (cid, pt) in self.marking.items():
            if pt in node_points[cid]:
                v.append(f"mark {lbl!r} sits on a node of component {cid!r}")
            prior = seen_positions.get((cid, pt))
            if prior is not None:
                v.append(f"marks {prior!r} and {lbl!r} coincide")
            seen_positions[(cid, pt)] = lbl
        for c in self.components:
            count = len(self._marks_on[c]) + len(self._adj[c])
            if count < 3:
                v.append(f"component {c!r} carries {count} special points (< 3)")
        return StabilityReport(tuple(v))


def single_component_tree(fld: ExtField, marking: Dict[object, ProjPoint],
                          cid="c0") -> MarkedTree:
    return MarkedTree(fld, [cid], [], {l: (cid, p) for l, p in marking.items()})


# ---------------------------------------------------------------------------
# Contraction
# ---------------------------------------------------------------------------

def contract(t: MarkedTree, keep: Iterable) -> MarkedTree:
    """Contract a stable tree with respect to the sub-markset ``keep``.

    Everything is read off the entry maps ``t.entry``.  A component
    survives when the kept marks enter it through three or more points,
    and keeps its coordinate.  A kept mark sits on the survivor where no
    other kept mark shares its entry point, and two survivors meet where
    their groups of kept marks (the kept marks entering through one point)
    are complementary.  Every other point, a forgotten mark (which becomes
    a non-structural ``extra`` point) or an ``extra`` point of ``t``,
    lands on the nearest survivor at the neighbour point toward its
    component; one that lands on a node is recorded on the node end whose
    component has the smaller ``_cid_key``.  So the result does not depend
    on the order in which marks are forgotten.
    """
    keep = frozenset(keep)
    if len(keep) < 3:
        raise ValueError("contraction needs at least 3 surviving marks")
    missing = keep - set(t.marking)
    if missing:
        raise ValueError(f"marks not on the tree: {sorted(map(repr, missing))}")

    survivors, sits, ends = set(), {}, {}
    for c, entry in t.entry.items():
        by_point: Dict[ProjPoint, set] = {}
        for lbl in keep:
            by_point.setdefault(entry[lbl], set()).add(lbl)
        if len(by_point) < 3:
            continue
        survivors.add(c)
        for p, g in by_point.items():
            if len(g) == 1:
                (lbl,) = g
                sits[lbl] = (c, p)
            else:
                ends[frozenset(g)] = (c, p)
    nodes, smaller_end = set(), {}
    for g, (c, p) in ends.items():
        d, q = ends[keep - g]
        nodes.add(node(c, p, d, q))
        if _cid_key(d) < _cid_key(c):
            smaller_end[(c, p)] = (d, q)

    # the components off the survivors fall into branches, and each branch
    # lands where it meets a survivor (two survivors meet it at a node)
    landing: Dict[object, End] = {}
    for s in survivors:
        for nb, p in t.neighbors(s).items():
            stack = [nb]
            while stack:
                c = stack.pop()
                if c not in survivors and c not in landing:
                    landing[c] = (s, p)
                    stack.extend(t.neighbors(c))

    def image(end: End) -> End:
        if end[0] not in survivors:
            end = landing[end[0]]
        return smaller_end.get(end, end)

    marking = {lbl: sits[lbl] for lbl in t.marking if lbl in keep}
    extra = {lbl: image(pos) for lbl, pos in t.marking.items()
             if lbl not in keep}
    extra.update((lbl, image(pos)) for lbl, pos in t.extra.items())
    result = MarkedTree(t.field, survivors, nodes, marking, extra)
    report = result.validate()
    if not report.ok:  # pragma: no cover - guarded by the stability precondition
        raise AssertionError(f"contraction produced an unstable tree: {report}")
    return result


def contract_to_component(t: MarkedTree, i) -> MarkedTree:
    """Collapse every component except the one carrying mark i.

    All marks are re-marked on the surviving projective line; marks from
    collapsed branches land at the branch attachment point, so the result
    may fail injectivity and is not validated.  The package reads these
    positions through :func:`entry_points` instead; this path-based form
    stays as their independent reference, which ``tests/test_curve.py``
    checks and ``perfbench/spans.py`` traces by name.
    """
    if i not in t.marking:
        raise ValueError(f"mark {i!r} is not on the tree")
    home = t.marking[i][0]
    collapse_pt = {c: t.neighbors(home)[t.path(c, home)[-2]]
                   for c in t.components if c != home}

    def image(end: End) -> End:
        cid, pt = end
        return (home, collapse_pt.get(cid, pt))

    marking = {lbl: image(pos) for lbl, pos in t.marking.items()}
    extra = {lbl: image(pos) for lbl, pos in t.extra.items()}
    return MarkedTree(t.field, [home], [], marking, extra)


# ---------------------------------------------------------------------------
# Stabilization
# ---------------------------------------------------------------------------

def _fresh_cid(t: MarkedTree, hint="s"):
    k = 0
    while (hint, k) in t.components:
        k += 1
    return (hint, k)


def stabilize(t: MarkedTree, i, position) -> MarkedTree:
    """Insert mark i at ``position``, sprouting a new component as needed.

    ``position`` is one of
      ("smooth", cid, point)  a free smooth point,
      ("mark", label)         on top of an existing mark,
      ("node", cid1, cid2)    at the node joining two components.

    New components place their three special points at (0:1), (1:1), (1:0):
    displaced mark, new mark, node back to the old tree; for a node
    insertion the two reattachment points take (0:1) and (1:0) by id order
    and the new mark takes (1:1).  Contracting the result back to the old
    mark set recovers the input.
    """
    if i in t.marking:
        raise ValueError(f"mark {i!r} already present")
    fld = t.field
    zero, one_pt, inf = (ProjPoint.zero(fld), ProjPoint.affine(fld.one),
                         ProjPoint.infinity(fld))
    kind = position[0]
    if kind == "smooth":
        _, cid, pt = position
        if cid not in t.components:
            raise ValueError("position names an unknown component")
        taken = set(t.marks_on(cid).values()) | set(t.neighbors(cid).values())
        if pt in taken:
            raise ValueError("point already special; use a mark or node position")
        marking = dict(t.marking)
        marking[i] = (cid, pt)
        return MarkedTree(fld, t.components, t.nodes, marking, t.extra)
    if kind == "mark":
        _, label = position
        if label not in t.marking:
            raise ValueError(f"mark {label!r} is not on the tree")
        cid, pt = t.marking[label]
        fresh = _fresh_cid(t)
        marking = dict(t.marking)
        marking[label] = (fresh, zero)
        marking[i] = (fresh, one_pt)
        nodes = set(t.nodes)
        nodes.add(node(fresh, inf, cid, pt))
        return MarkedTree(fld, set(t.components) | {fresh}, nodes, marking, t.extra)
    if kind == "node":
        _, c1, c2 = position
        if c2 not in t.neighbors(c1):
            raise ValueError("components are not glued at a node")
        c1, c2 = sorted((c1, c2), key=_cid_key)
        p1 = t.neighbors(c1)[c2]
        p2 = t.neighbors(c2)[c1]
        fresh = _fresh_cid(t)
        nodes = {nd for nd in t.nodes if nd != node(c1, p1, c2, p2)}
        nodes.add(node(fresh, zero, c1, p1))
        nodes.add(node(fresh, inf, c2, p2))
        marking = dict(t.marking)
        marking[i] = (fresh, one_pt)
        return MarkedTree(fld, set(t.components) | {fresh}, nodes, marking, t.extra)
    raise ValueError(f"unknown position kind {kind!r}")


# ---------------------------------------------------------------------------
# Isomorphism of marked trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Correspondence:
    """A marked isomorphism: component bijection plus per-component maps."""

    components: dict  # cid of t1 -> cid of t2
    maps: dict        # cid of t1 -> Mobius (t1 coordinates to t2 coordinates)


def entry_points(t: MarkedTree, c) -> Dict[object, ProjPoint]:
    """The point of component c through which every mark is reached: its
    own point for a mark on c, else the node point toward its branch.

    These are the marks' positions on c after every other component is
    collapsed, as :func:`contract_to_component` does, and on c after any
    contraction in which c survives, since contraction never moves a
    surviving component's coordinate.  ``MarkedTree.entry`` keeps the
    result for every component; read it there.
    """
    entry = dict(t.marks_on(c))
    for nb, pt_here in t.neighbors(c).items():
        # every mark whose component sits in the branch through nb
        stack, branch = [nb], set()
        while stack:
            d = stack.pop()
            if d in branch or d == c:
                continue
            branch.add(d)
            stack.extend(t.neighbors(d))
            for lbl in t.marks_on(d):
                entry[lbl] = pt_here
    return entry


def marked_isomorphism(t1: MarkedTree, relabel: dict,
                       dst: Optional[MarkedTree] = None
                       ) -> Optional[Correspondence]:
    """The isomorphism from t1 to ``dst`` (default: t1 itself) sending
    each mark w to the mark ``relabel[w]``, or None.

    One component fixes everything.  The root, the component of t1's first
    mark, is the meeting point of its three anchor marks, so its image is
    the unique component of ``dst`` that the relabelled anchors reach
    through three distinct points; one scan over ``dst`` finds it.  From
    there the search walks t1.  At a component c with image d, sending c's
    anchors' entry points to the relabelled anchors' entry points on d
    forces the coordinate map m; the three must be distinct there, or
    there is no isomorphism.  A neighbour of c is glued at some point p,
    so its image must be the neighbour of d glued at m(p), looked up in a
    point-to-neighbour table of d built for this search; for c's parent,
    whose image is already fixed, that lookup checks the node from the
    second end.  So every node is confirmed from both ends, and the marks
    then confirm or refute the maps.  The trees must have equally many
    components and nodes, which :func:`are_isomorphic` checks.  Without
    ``dst``, this finds the automorphism that permutes the marks by
    ``relabel``, on t1's own entry maps; no relabelled copy is built.
    Both trees' anchors and entry maps are the ones they keep.
    """
    t2 = t1 if dst is None else dst
    anchors1, entry2 = t1.anchors, t2.entry
    if len(anchors1) != len(t1.components) or not t1.marking:
        raise ValueError("tree is not stable")
    root = next(iter(t1.marking.values()))[0]
    images = [relabel[a] for a in anchors1[root][0]]
    candidates = [d for d in t2.components
                  if len({entry2[d][a] for a in images}) == 3]
    if not candidates:
        return None
    if len(candidates) > 1:
        raise AssertionError("median of three marks must be unique")
    comp_map, mobius = {root: candidates[0]}, {}
    stack = [root]
    while stack:
        c = stack.pop()
        d = comp_map[c]
        anchors, src_std = anchors1[c]
        entry = entry2[d]
        p0, p1, pinf = (entry[relabel[a]] for a in anchors)
        if p0 == p1 or p1 == pinf or p0 == pinf:
            return None
        m = mobius[c] = Mobius.from_standard(p0, p1, pinf).compose(src_std)
        at = {p: d2 for d2, p in t2.neighbors(d).items()}
        for c2, p in t1.neighbors(c).items():
            d2 = at.get(m.apply(p))
            if d2 is None:
                return None
            if c2 in comp_map:
                if comp_map[c2] != d2:
                    return None
            else:
                comp_map[c2] = d2
                stack.append(c2)

    # injective, and every component reached
    if len(set(comp_map.values())) != len(t1.components):
        return None
    for lbl, (cid, pt) in t1.marking.items():
        cid2, pt2 = t2.marking[relabel[lbl]]
        if comp_map[cid] != cid2 or mobius[cid].apply(pt) != pt2:
            return None
    return Correspondence(comp_map, mobius)


def are_isomorphic(t1: MarkedTree, t2: MarkedTree) -> Optional[Correspondence]:
    """The unique label-preserving isomorphism of stable marked trees, or
    None; see :func:`marked_isomorphism`."""
    if set(t1.marking) != set(t2.marking):
        raise ValueError("mark sets differ")
    if t1.field is not t2.field:
        raise ValueError("trees live over different fields")
    if (len(t1.components) != len(t2.components)
            or len(t1.nodes) != len(t2.nodes)):
        return None
    return marked_isomorphism(t1, {lbl: lbl for lbl in t1.marking}, t2)
