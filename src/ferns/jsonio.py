"""JSON encoding of fields, trees, ferns, and class points.

Field elements serialize as little-endian coefficient lists over the prime
field; integers are plain decimal.  Mark labels and component ids are
encoded as strings: vectors as comma-joined digits (always containing a
comma), the infinity label as "inf", integers as bare digits, and anything
else through a JSON-in-string escape.  Every encoder but the output-only
class-point one has an exact inverse, so round trips are bit-identical.
"""

from __future__ import annotations

import json

from . import curve
from .curve import MarkedTree, ProjPoint
from .fern import Fern, validate_fern
from .gf import INF, ExtField, LinSpace, Subspace, VSpace, field_make


# -- fields and elements ------------------------------------------------------

def field_to_json(fld: ExtField) -> dict:
    return {"p": fld.p, "e": fld.e, "m": fld.m, "modulus": list(fld.modulus)}


def field_from_json(data: dict) -> ExtField:
    fld = field_make(data["p"], data["e"], data["m"])
    if list(fld.modulus) != data["modulus"]:
        raise ValueError("modulus does not match the canonical choice")
    return fld


def point_to_json(p: ProjPoint) -> list:
    return [list(p.x.coeffs), list(p.y.coeffs)]


def point_from_json(fld: ExtField, data) -> ProjPoint:
    return ProjPoint(fld.element(data[0]), fld.element(data[1]))


# -- labels and component ids -------------------------------------------------

def label_to_str(label) -> str:
    if label == INF:
        return "inf"
    if isinstance(label, tuple):
        return ",".join(str(c) for c in label) + ("," if len(label) == 1 else "")
    if isinstance(label, int):
        return str(label)
    return json.dumps(label)


def label_from_str(s: str):
    if s == "inf":
        return INF
    if "," in s:
        return tuple(int(c) for c in s.split(",") if c != "")
    if s.lstrip("-").isdigit():
        return int(s)
    return json.loads(s)


def cid_to_str(cid) -> str:
    def plain(x):
        if isinstance(x, tuple):
            return [plain(y) for y in x]
        return x

    return json.dumps(plain(cid))


def cid_from_str(s: str):
    def tupled(x):
        if isinstance(x, list):
            return tuple(tupled(y) for y in x)
        return x

    return tupled(json.loads(s))


# -- trees and ferns ----------------------------------------------------------

def tree_to_json(t: MarkedTree) -> dict:
    components = []
    for cid in sorted(t.components, key=cid_to_str):
        special = {label_to_str(lbl): point_to_json(p)
                   for lbl, p in t.marks_on(cid).items()}
        for nb, p in t.neighbors(cid).items():
            special["node:" + cid_to_str(nb)] = point_to_json(p)
        components.append({"id": cid_to_str(cid), "special": special})
    nodes = sorted(
        [sorted([[cid_to_str(c), point_to_json(p)] for c, p in nd])
         for nd in t.nodes])
    return {
        "field": field_to_json(t.field),
        "components": components,
        "nodes": nodes,
        "marking": {label_to_str(l): [cid_to_str(c), point_to_json(p)]
                    for l, (c, p) in sorted(t.marking.items(), key=lambda kv: label_to_str(kv[0]))},
        "extra": {label_to_str(l): [cid_to_str(c), point_to_json(p)]
                  for l, (c, p) in sorted(t.extra.items(), key=lambda kv: label_to_str(kv[0]))},
    }


def tree_from_json(data: dict) -> MarkedTree:
    fld = field_from_json(data["field"])
    components = [cid_from_str(c["id"]) for c in data["components"]]
    nodes = [curve.node(cid_from_str(e1[0]), point_from_json(fld, e1[1]),
                        cid_from_str(e2[0]), point_from_json(fld, e2[1]))
             for e1, e2 in data["nodes"]]
    marking = {label_from_str(l): (cid_from_str(c), point_from_json(fld, p))
               for l, (c, p) in data["marking"].items()}
    extra = {label_from_str(l): (cid_from_str(c), point_from_json(fld, p))
             for l, (c, p) in data.get("extra", {}).items()}
    return MarkedTree(fld, components, nodes, marking, extra)


def subspace_to_json(w: Subspace) -> list:
    return [list(r) for r in w.rows]


def subspace_from_json(vs: VSpace, rows) -> Subspace:
    return Subspace.from_vectors(vs, [tuple(r) for r in rows])


def space_to_json(space: LinSpace) -> dict:
    return {
        "n": space.vs.n,
        "q": space.q,
        "subspace": subspace_to_json(space.sub),
        "modulo": subspace_to_json(space.mod),
    }


def space_from_json(fld: ExtField, data: dict) -> LinSpace:
    """The space of a ``space`` object over the scalars of ``fld``; its
    ``q`` must be the field's (ValueError if not)."""
    if data["q"] != fld.q:
        raise ValueError(f"space q {data['q']!r} does not match the field, "
                         f"whose q is {fld.q}")
    vs = VSpace(fld, data["n"])
    return LinSpace(vs, subspace_from_json(vs, data["subspace"]),
                    subspace_from_json(vs, data["modulo"]))


def _space_summary(space: LinSpace) -> dict:
    """The fields a fern document carries beside ``space``, derived from
    it: the ambient F_q^n and the space's canonical basis."""
    return {"V": {"n": space.vs.n, "q": space.q},
            "flag_basis": [list(b) for b in space.basis()]}


def fern_to_json(f: Fern) -> dict:
    out = tree_to_json(f.tree)
    out.update(_space_summary(f.space))
    out["space"] = space_to_json(f.space)
    return out


def fern_from_json(data: dict) -> Fern:
    """The validated fern of a document; ``V`` and ``flag_basis``, where
    present, must agree with the space it reads (ValueError if not)."""
    tree = tree_from_json(data)
    space = space_from_json(tree.field, data["space"])
    for key, expected in _space_summary(space).items():
        if key in data and data[key] != expected:
            raise ValueError(f"{key} {data[key]!r} does not match the space, "
                             f"which gives {expected!r}")
    return validate_fern(tree, space)


def classpoint_to_json(point) -> dict:
    return {w.key(): [list(x.coeffs) for x in values]
            for w, values in sorted(point.functionals.items(),
                                    key=lambda kv: (kv[0].dim, kv[0].key()))}


def dumps(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
