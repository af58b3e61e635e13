"""Seeded random generators for trees and ferns.

Trees are grown mark by mark through ``stabilize`` so every intermediate
stage is a genuine stable tree; ferns are assembled recursively, either as
a single projective line with an injective linear marking (when the value
field has room) or by grafting a fern on a random proper step onto a fern
on the quotient.  A random coordinate change per component is applied at
the end so that consumers never see a preferred presentation.  The pieces
of a graft stay unvalidated (tree, space) pairs, so each fern is
validated once, after that change.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from . import curve
from .curve import MarkedTree, Mobius, ProjPoint
from .fern import Fern, _glue, contract_fern, validate_fern
from .gf import INF, ExtField, LinSpace, Subspace


def random_field_element(fld: ExtField, rng: random.Random):
    return fld.from_int(rng.randrange(fld.order))


def random_point(fld: ExtField, rng: random.Random, avoid=()) -> ProjPoint:
    options = [ProjPoint.infinity(fld)] + \
        [ProjPoint.affine(x) for x in fld.elements()]
    options = [p for p in options if p not in set(avoid)]
    return rng.choice(options)


def random_mobius(fld: ExtField, rng: random.Random) -> Mobius:
    while True:
        a, b, c, d = (random_field_element(fld, rng) for _ in range(4))
        if a * d != b * c:
            return Mobius(a, b, c, d)


def remap_components(tree: MarkedTree, maps) -> MarkedTree:
    """Apply a coordinate change per component; an isomorphic presentation."""
    def move(cid, pt):
        return (cid, maps[cid].apply(pt))

    nodes = [curve.node(*move(c1, p1), *move(c2, p2))
             for (c1, p1), (c2, p2) in map(tuple, tree.nodes)]
    marking = {lbl: move(c, p) for lbl, (c, p) in tree.marking.items()}
    extra = {lbl: move(c, p) for lbl, (c, p) in tree.extra.items()}
    return MarkedTree(tree.field, tree.components, nodes, marking, extra)


def random_remap(tree: MarkedTree, rng: random.Random) -> MarkedTree:
    # one draw per component in a fixed order: the iteration order of the
    # frozenset of component ids follows their string hashes
    maps = {c: random_mobius(tree.field, rng)
            for c in sorted(tree.components, key=curve._cid_key)}
    return remap_components(tree, maps)


# ---------------------------------------------------------------------------
# Random stable trees
# ---------------------------------------------------------------------------

def random_stable_tree(fld: ExtField, labels, rng: random.Random) -> MarkedTree:
    """A random stable tree marked by ``labels`` (at least three of them)."""
    labels = list(labels)
    if len(labels) < 3:
        raise ValueError("a stable tree needs at least three marks")
    if fld.order < 2:
        raise ValueError("field too small")
    rng.shuffle(labels)
    first = labels[:3]
    pts: List[ProjPoint] = []
    while len(pts) < 3:
        p = random_point(fld, rng, avoid=pts)
        pts.append(p)
    tree = curve.single_component_tree(fld, dict(zip(first, pts)))
    for lbl in labels[3:]:
        tree = stabilize_at_random(tree, lbl, rng)
    return tree


def stabilize_at_random(tree: MarkedTree, label, rng: random.Random) -> MarkedTree:
    kinds = ["mark", "smooth", "smooth"]
    if tree.nodes:
        kinds.append("node")
    kind = rng.choice(kinds)
    if kind == "mark":
        target = rng.choice(sorted(tree.marking, key=repr))
        return curve.stabilize(tree, label, ("mark", target))
    if kind == "node":
        # a node is a frozenset of its two ends, so sort the ends first
        nd = rng.choice(sorted(tree.nodes, key=lambda n: sorted(map(repr, n))))
        (c1, _), (c2, _) = nd
        return curve.stabilize(tree, label, ("node", c1, c2))
    cid = rng.choice(sorted(tree.components, key=repr))
    taken = list(tree.marks_on(cid).values()) + list(tree.neighbors(cid).values())
    if len(taken) >= tree.field.order + 1:
        target = rng.choice(sorted(tree.marking, key=repr))
        return curve.stabilize(tree, label, ("mark", target))
    pt = random_point(tree.field, rng, avoid=taken)
    return curve.stabilize(tree, label, ("smooth", cid, pt))


# ---------------------------------------------------------------------------
# Random ferns
# ---------------------------------------------------------------------------

def injective_linear_marking(space: LinSpace, rng: random.Random):
    """Images of the canonical basis giving an injective linear map, if the
    value field has room (dimension over the subfield at least dim)."""
    fld = space.field
    for _ in range(200):
        images = [random_field_element(fld, rng) for _ in range(space.dim)]
        if fld.independent(images):
            return {v: fld.combine(space.coords(v), images)
                    for v in space.vectors()}
    return None


def _smooth_tree(space: LinSpace, rng: random.Random) -> Optional[MarkedTree]:
    """One line marked by an injective linear marking, with infinity at
    infinity, not yet validated; None when the field has no room."""
    lam = injective_linear_marking(space, rng)
    if lam is None:
        return None
    marking = {v: ProjPoint.affine(x) for v, x in
               ((v, lam[v]) for v in space.vectors())}
    marking[INF] = ProjPoint.infinity(space.field)
    return curve.single_component_tree(space.field, marking,
                                       cid=("P", space.sub.key()))


def random_fern(space: LinSpace, rng: random.Random) -> Fern:
    """A random fern on the space: smooth when possible and chosen, else a
    graft along a random proper step with a random complement.  The tree
    is validated once, after a random coordinate change per component."""
    tree, target = _random_tree(space, rng)
    return validate_fern(random_remap(tree, rng), target)


def _random_tree(space: LinSpace,
                 rng: random.Random) -> Tuple[MarkedTree, LinSpace]:
    """The tree and the space of :func:`random_fern` before its coordinate
    change, not yet validated; grafts glue the pairs of their pieces."""
    can_be_smooth = space.dim <= space.field.m * space.field.e  # room in K
    want_smooth = space.dim == 1 or (can_be_smooth and rng.random() < 0.5)
    tree = _smooth_tree(space, rng) if want_smooth else None
    if tree is not None:
        return tree, space
    steps = space.proper_steps()
    if steps:
        w = rng.choice(steps)
        sub = _random_tree(LinSpace(space.vs, w, space.mod), rng)
        quot = _random_tree(LinSpace(space.vs, space.sub, w), rng)
        return _glue(sub, quot, random_complement(space, w, rng))
    tree = _smooth_tree(space, rng)
    if tree is None:
        raise ValueError("dimension-1 space over a field with no room")
    return tree, space


def random_complement(space: LinSpace, w: Subspace,
                      rng: random.Random) -> Subspace:
    """A random complement of w/U inside the space: T with T n w = U and
    T + w covering the whole subspace."""
    vs = space.vs
    t = space.mod
    candidates = list(space.vectors())
    while t.add_subspace(w) != space.sub:
        grown = t.add_subspace(w)
        v = rng.choice([x for x in candidates if not grown.contains(x)])
        t = t.add_subspace(Subspace.from_vectors(vs, [v]))
    return t


def random_pipeline_fern(space: LinSpace, rng: random.Random
                         ) -> Tuple[Fern, List[str]]:
    """A fern produced by a random build, optionally post-contracted; the
    log records the operations applied."""
    log = ["build"]
    f = random_fern(space, rng)
    while f.space.dim > 1 and rng.random() < 0.35:
        steps = f.space.proper_steps()
        if not steps:
            break
        w = rng.choice(steps)
        f = contract_fern(f, w)
        log.append(f"contract:{w.key()}")
    return f, log
