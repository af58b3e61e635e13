import random

import pytest

from ferns.curve import MarkedTree, _cid_key, node
from ferns.gf import LinSpace, VSpace, field_make


@pytest.fixture
def rng():
    return random.Random(0)


@pytest.fixture
def f2():
    return field_make(2)


@pytest.fixture
def f4():
    return field_make(2, 1, 2)


@pytest.fixture
def f8():
    return field_make(2, 1, 3)


@pytest.fixture
def f9():
    return field_make(3, 1, 2)


def space(n, q, m=1):
    p, e = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1),
            8: (2, 3), 9: (3, 2)}[q]
    return LinSpace.full(VSpace(field_make(p, e, m), n))


def entry_points(t, c):
    """The point of component c through which every mark is reached: its
    own point for a mark on c, else the node point toward its branch,
    found by walking that branch.  The reference for ``MarkedTree.entry``,
    which builds every component's map in one pass over the tree."""
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


def reference_contract(t, keep):
    """Contraction by collapsing, one unstable component at a time, onto a
    neighbour through its remaining node; the reference for
    ``curve.contract``, and independent of the entry maps.  Where a point
    lands on a node depends on the collapse order, so compare through
    :func:`smaller_cid_ends`."""
    keep = set(keep)
    adj = {c: dict(t.neighbors(c)) for c in t.components}
    structural = {lbl: pos for lbl, pos in t.marking.items() if lbl in keep}
    loose = {lbl: pos for lbl, pos in t.marking.items() if lbl not in keep}
    loose.update(t.extra)
    marks_per = {c: set() for c in t.components}
    for lbl, (cid, _) in structural.items():
        marks_per[cid].add(lbl)
    collapsed_to = {}
    alive = set(t.components)
    changed = True
    while changed and len(alive) > 1:
        changed = False
        for c in sorted(alive, key=_cid_key):
            if len(alive) == 1:
                break
            if len(marks_per[c]) + len(adj[c]) >= 3:
                continue
            neighbors = adj[c]
            if len(neighbors) == 1:
                (nb, _), = neighbors.items()
                target = (nb, adj[nb].pop(c))
            else:
                (n1, _), (n2, _) = sorted(neighbors.items(),
                                          key=lambda kv: _cid_key(kv[0]))
                p1 = adj[n1].pop(c)
                p2 = adj[n2].pop(c)
                adj[n1][n2] = p1
                adj[n2][n1] = p2
                target = (n1, p1)
            for points in (structural, loose):
                for lbl, (cid, _) in list(points.items()):
                    if cid == c:
                        points[lbl] = target
            marks_per[target[0]] |= marks_per[c]
            collapsed_to[c] = target
            alive.remove(c)
            del adj[c], marks_per[c]
            changed = True

    def resolve(end):
        cid, pt = end
        while cid not in alive:
            cid, pt = collapsed_to[cid]
        return (cid, pt)

    nodes = {node(c, p, d, adj[d][c]) for c in alive for d, p in adj[c].items()}
    return MarkedTree(t.field, alive, nodes,
                      {lbl: resolve(pos) for lbl, pos in structural.items()},
                      {lbl: resolve(pos) for lbl, pos in loose.items()})


def smaller_cid_ends(t):
    """The tree with every extra point that sits on a node moved to the
    node end whose component has the smaller ``_cid_key``."""
    extra = {}
    for lbl, (c, p) in t.extra.items():
        for d, q in t.neighbors(c).items():
            if q == p and _cid_key(d) < _cid_key(c):
                c, p = d, t.neighbors(d)[c]
                break
        extra[lbl] = (c, p)
    return MarkedTree(t.field, t.components, t.nodes, t.marking, extra)
