"""Stable marked trees of projective lines over a finite field.

A curve here is a connected tree of copies of P^1: each component carries
its own projective coordinate, and the gluing data lives entirely in node
records that pair a point on one component with a point on another.  Marks
are labels placed at points.  This representation makes the classical tree
surgeries coordinate transports:

* ``contract``        forget marks and collapse unstable components,
* ``stabilize``       insert a new mark, sprouting a component if needed,
* ``contract_to_component``  squash everything onto one component,
* ``entry_points``    where each mark lands on one component when all the
                      others are collapsed, read off the tree without
                      building a contraction,
* ``marked_isomorphism``  find the unique isomorphism that relabels the
                      marks by a given bijection (an automorphism when
                      no second tree is given),
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
    def identity(cls, fld: ExtField) -> "Mobius":
        return cls(fld.one, fld.zero, fld.zero, fld.one)

    @classmethod
    def zero_infinity(cls, p0: ProjPoint, pinf: ProjPoint) -> "Mobius":
        """A map with p0 -> (0:1) and pinf -> (1:0), unique up to a scaling
        z -> c z."""
        if p0 == pinf:
            raise DegenerateInput("anchor points must be distinct")
        return cls(p0.y, -p0.x, pinf.y, -pinf.x)

    @classmethod
    def to_standard(cls, p0: ProjPoint, p1: ProjPoint, pinf: ProjPoint) -> "Mobius":
        """The unique map with p0 -> (0:1), p1 -> (1:1), pinf -> (1:0)."""
        if p0 == p1 or p1 == pinf:
            raise DegenerateInput("anchor points must be pairwise distinct")
        m0 = cls.zero_infinity(p0, pinf)
        img = m0.apply(p1)
        return cls(img.y * m0.a, img.y * m0.b, img.x * m0.c, img.x * m0.d)

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
        map sending their entry points to (0:1), (1:1), (1:0).  A component
        reached through fewer points is left out, and searching from it
        raises."""
        if self._anchors is None:
            self._anchors = {}
            for c, entry in self.entry.items():
                by_point: Dict[ProjPoint, list] = {}
                for lbl, pt in entry.items():
                    by_point.setdefault(pt, []).append(lbl)
                if len(by_point) < 3:
                    continue
                marks = tuple(sorted(
                    (min(lbls, key=repr) for lbls in by_point.values()),
                    key=repr)[:3])
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

@dataclass(frozen=True)
class ContractionResult:
    """A contracted tree plus where every original component went.

    ``component_image[c]`` is ``(c, None)`` when c survives with its
    coordinate untouched, else ``(d, p)`` with d a surviving component and
    p the point of d that c collapsed onto.
    """

    tree: MarkedTree
    component_image: dict


def contract(t: MarkedTree, keep: Iterable) -> ContractionResult:
    """Contract a stable tree with respect to the sub-markset ``keep``.

    Components that drop below three special points are collapsed onto a
    neighbor through their remaining node, transporting every mark (the
    forgotten ones become non-structural ``extra`` points).  Coordinates of
    surviving components never change, so the components, nodes and
    marking of the output are canonical and independent of the collapse
    order.  The ``extra`` points are not: a forgotten mark whose component
    collapses into a node can end up on either side of that node,
    depending on the order in which marks are forgotten.
    """
    keep = set(keep)
    if len(keep) < 3:
        raise ValueError("contraction needs at least 3 surviving marks")
    missing = keep - set(t.marking)
    if missing:
        raise ValueError(f"marks not on the tree: {sorted(map(repr, missing))}")

    adj = {c: dict(t.neighbors(c)) for c in t.components}
    structural = {lbl: pos for lbl, pos in t.marking.items() if lbl in keep}
    loose = {lbl: pos for lbl, pos in t.marking.items() if lbl not in keep}
    loose.update(t.extra)
    marks_per = {c: set() for c in t.components}
    for lbl, (cid, _) in structural.items():
        marks_per[cid].add(lbl)
    collapsed_to: Dict[object, End] = {}

    def special_count(c):
        return len(marks_per[c]) + len(adj[c])

    alive = set(t.components)
    changed = True
    while changed and len(alive) > 1:
        changed = False
        for c in sorted(alive, key=_cid_key):
            if len(alive) == 1:
                break
            if special_count(c) >= 3:
                continue
            neighbors = adj[c]
            if len(neighbors) == 1:
                (nb, _), = neighbors.items()
                att = adj[nb].pop(c)
                target: End = (nb, att)
            elif len(neighbors) == 2:
                (n1, _), (n2, _) = sorted(neighbors.items(), key=lambda kv: _cid_key(kv[0]))
                p1 = adj[n1].pop(c)
                p2 = adj[n2].pop(c)
                adj[n1][n2] = p1
                adj[n2][n1] = p2
                target = (n1, p1)
            else:  # pragma: no cover - unreachable from stable inputs
                raise AssertionError("collapsing a component with 3+ nodes")
            for lbl, (cid, pt) in list(structural.items()):
                if cid == c:
                    structural[lbl] = target
            for lbl, (cid, pt) in list(loose.items()):
                if cid == c:
                    loose[lbl] = target
            for lbl in marks_per[c]:
                marks_per[target[0]].add(lbl)
            collapsed_to[c] = target
            alive.remove(c)
            del adj[c], marks_per[c]
            changed = True

    # resolve collapse chains onto surviving components
    def resolve(end: End) -> End:
        cid, pt = end
        while cid not in alive:
            cid, pt = collapsed_to[cid]
        return (cid, pt)

    component_image = {}
    for c in t.components:
        if c in alive:
            component_image[c] = (c, None)
        else:
            component_image[c] = resolve(collapsed_to[c])
    structural = {lbl: resolve(pos) for lbl, pos in structural.items()}
    loose = {lbl: resolve(pos) for lbl, pos in loose.items()}

    nodes = set()
    for c in alive:
        for d, p in adj[c].items():
            nodes.add(node(c, p, d, adj[d][c]))
    result = MarkedTree(t.field, alive, nodes, structural, loose)
    report = result.validate()
    if not report.ok:  # pragma: no cover - guarded by the stability precondition
        raise AssertionError(f"contraction produced an unstable tree: {report}")
    return ContractionResult(result, component_image)


def contract_to_component(t: MarkedTree, i) -> ContractionResult:
    """Collapse every component except the one carrying mark i.

    All marks are re-marked on the surviving projective line; marks from
    collapsed branches land at the branch attachment point, so the result
    may fail injectivity and is not validated.  The package reads these
    positions through :func:`entry_points` instead; this function stays
    as the tree-building form that ``tests/test_curve.py`` checks and
    ``perfbench/spans.py`` traces by name.
    """
    if i not in t.marking:
        raise ValueError(f"mark {i!r} is not on the tree")
    home = t.marking[i][0]
    component_image = {}
    for c in t.components:
        if c == home:
            component_image[c] = (c, None)
        else:
            route = t.path(c, home)
            last_before = route[-2]  # neighbor of home on the route
            component_image[c] = (home, t.neighbors(home)[last_before])

    def image(end: End) -> End:
        cid, pt = end
        target, collapse_pt = component_image[cid]
        return (target, pt if collapse_pt is None else collapse_pt)

    marking = {lbl: image(pos) for lbl, pos in t.marking.items()}
    extra = {lbl: image(pos) for lbl, pos in t.extra.items()}
    result = MarkedTree(t.field, [home], [], marking, extra)
    return ContractionResult(result, component_image)


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

    def apply(self, cid, pt: ProjPoint) -> End:
        return (self.components[cid], self.maps[cid].apply(pt))


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

    The component bijection is forced: each component c is the meeting
    point of its three anchor marks, so its image is the unique component
    that the relabelled anchors reach through three distinct points.
    Sending the anchors' entry points to theirs forces the coordinate map,
    which every mark and every node then confirms or refutes.  The trees
    must have equally many components and nodes, which
    :func:`are_isomorphic` checks.  Without ``dst``, this finds the
    automorphism that permutes the marks by ``relabel``, on t1's own
    entry maps; no relabelled copy is built.  Both trees' anchors and
    entry maps are the ones they keep.
    """
    t2 = t1 if dst is None else dst
    anchors1, entry2 = t1.anchors, t2.entry
    comp_map, mobius = {}, {}
    for c in t1.components:
        if c not in anchors1:
            raise ValueError("tree is not stable")
        anchors, src_std = anchors1[c]
        images = [relabel[a] for a in anchors]
        candidates = [
            d for d in t2.components
            if len({entry2[d][a] for a in images}) == 3
        ]
        if not candidates:
            return None
        if len(candidates) > 1:
            raise AssertionError("median of three marks must be unique")
        d = candidates[0]
        comp_map[c] = d
        dst_std = Mobius.to_standard(*(entry2[d][a] for a in images))
        mobius[c] = dst_std.inverse().compose(src_std)

    if len(set(comp_map.values())) != len(comp_map):
        return None
    # verify marks
    for lbl, (cid, pt) in t1.marking.items():
        cid2, pt2 = t2.marking[relabel[lbl]]
        if comp_map[cid] != cid2 or mobius[cid].apply(pt) != pt2:
            return None
    # verify nodes; equally many on both sides, so one direction suffices
    nodes2 = t2.nodes
    for nd in t1.nodes:
        (c1, p1), (c2, p2) = tuple(nd)
        image = node(comp_map[c1], mobius[c1].apply(p1),
                     comp_map[c2], mobius[c2].apply(p2))
        if image not in nodes2:
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
