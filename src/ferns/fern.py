"""Ferns: stable marked trees whose mark set is a vector space plus a point
at infinity, carrying a compatible action of G = V x| F_q^*.

The action itself is never stored.  Morphisms of stable marked trees are
unique, so the automorphism attached to a group element g = (v, xi) is
exactly the isomorphism from the tree to itself that sends mark w to mark
g.w = xi*w + v, and these automorphisms compose like the group elements.
Each search reads the data the tree keeps (``MarkedTree.entry`` and
``MarkedTree.anchors``) with the marks relabelled by g: the image of each
special point is a lookup in the entry maps, and Moebius arithmetic is done
only on a component with a fourth special point.  No relabelled copy of the
tree is made, and an automorphism's coordinate maps are built only when the
scaling check of a scalar reads them.  An action is determined by its generators, so
validation searches only for the automorphisms of the n basis
translations and, for q > 2, of one primitive scalar, and its violations
name the generators that fail.  The chain of components joining the
0-mark to the infinity-mark yields the associated flag: step i is the
stabilizer of the i-th chain component under translations, spanned by the
marks that do not enter that component through the point toward infinity,
so it is read off the chain's entry points.  A scalar must act on each
chain component by scaling in a coordinate that puts the entry points of
the 0-mark and the infinity mark at zero and infinity; any two such
coordinates differ by a scaling, which commutes with the action, so no
third point is needed.

Derived data, each a functional class: values up to one common scalar,
read in such a two-point coordinate and then canonically scaled:

* ``line_data``        the translation values read off the contraction to
                       the infinity component, that is, at the marks'
                       entry points on it (linear, kernel the second to
                       last flag step),
* ``reciprocal_data``  the values read off the contraction to the zero
                       component, the same way with zero and infinity
                       swapped (reciprocal axioms, supported on the first
                       flag step),
* ``drinfeld_psi``     the additive polynomial with kernel the image of an
                       injective line datum and formal linear coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import curve
from .curve import MarkedTree, Mobius, Correspondence
from .gf import (INF, FieldElement, Flag, GroupElement, LinSpace, Subspace,
                 group_act)

Vec = tuple


class InvalidFern(ValueError):
    """Raised when a marked tree fails the fern axioms."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class Fern:
    """A validated fern: the tree, its space, the chain of components from
    the 0-mark to the infinity mark, and the associated flag, read off the
    entry points of the chain components at validation."""

    tree: MarkedTree
    space: LinSpace
    chain: Tuple  # component ids from the 0-component to the inf-component
    flag: Flag

    def is_smooth(self) -> bool:
        return len(self.chain) == 1

    def __repr__(self):
        return (f"Fern(dim={self.space.dim}, q={self.space.q}, "
                f"components={len(self.tree.components)})")


def _chain_of(tree: MarkedTree, space: LinSpace) -> Tuple:
    start = tree.marking[space.zero][0]
    goal = tree.marking[INF][0]
    return tuple(tree.path(start, goal))


def fern_violations(tree: MarkedTree, space: LinSpace) -> List[str]:
    """All fern-axiom violations of a marked tree; empty means valid.

    Checks, in order: the mark set, stability, then the generators of G:
    each basis translation without a marked isomorphism, and for q > 2
    the primitive scalar, either without one or with the chain components
    that it does not scale.  The group is generated by these, so a tree
    passes exactly when every element of G has an automorphism and every
    scalar scales the chain.
    """
    return _check_axioms(tree, space)[0]


def _check_axioms(tree: MarkedTree, space: LinSpace):
    """The violations and the chain (None when the shape is wrong).

    After the mark-set and stability checks, only the generators of G are
    searched, each once, on the tree's own entry maps and anchors."""
    violations = _shape_violations(tree, space)
    if violations:
        return violations, None
    chain = _chain_of(tree, space)
    return _generator_axioms(tree, space, chain), chain


def _shape_violations(tree: MarkedTree, space: LinSpace) -> List[str]:
    """The mark-set and stability violations."""
    if set(tree.marking) != set(space.vectors()) | {INF}:
        return ["marking is not indexed by the vector space plus infinity"]
    return list(tree.validate().violations)


def _automorphism(tree: MarkedTree, g: GroupElement) -> Optional[Correspondence]:
    """The automorphism of g, if any: the marked isomorphism from the tree
    to itself sending mark w to mark g.w (infinity is fixed)."""
    relabel = {w: group_act(g, w) for w in tree.marking}
    return curve.marked_isomorphism(tree, relabel)


def _scaling_violations(entry, space: LinSpace, chain,
                        corr: Correspondence, xi: int) -> List[str]:
    """How the automorphism of the scalar xi fails to fix each chain
    component and act on it by scaling by xi, in the coordinate that puts
    the entry points of the 0-mark and the infinity mark (``entry``, the
    tree's entry maps) at zero and infinity."""
    out = []
    scale = space.field.scalar(xi)
    for cid in chain:
        if corr.components[cid] != cid:
            out.append(f"scalar xi={xi} does not stabilize chain component {cid!r}")
            continue
        coord = Mobius.zero_infinity(entry[cid][space.zero], entry[cid][INF])
        induced = coord.compose(corr.maps[cid]).compose(coord.inverse())
        if not induced.is_scaling_by(scale):
            out.append(f"xi={xi} does not act by scaling on chain component {cid!r}")
    return out


def _primitive_scalar(fld) -> int:
    """The smallest scalar index generating F_q^* (q > 2)."""
    for xi in range(2, fld.q):
        x, order = xi, 1
        while x != 1:
            x, order = fld.s_mul[x][xi], order + 1
        if order == fld.q - 1:
            return xi
    raise AssertionError("F_q^* has no generator")


def _generator_axioms(tree: MarkedTree, space: LinSpace, chain) -> List[str]:
    """The violations of the generators of G: each basis translation
    (b, 1) without an automorphism, then, for q > 2, the primitive scalar
    (0, xi0) without one or the chain components it does not scale by xi0.

    Every generator is searched, even after a failure, so a tree costs at
    most n + 1 searches.  Automorphisms compose (phi_g phi_h = phi_gh), so
    when the generators have them, the rest of G has them too; and every
    scalar is a power xi0^k, so when xi0 scales each chain component by
    xi0, xi0^k scales it by xi0^k.  No translation's component permutation
    is needed: :func:`validate_fern` reads the flag off the chain's entry
    points.
    """
    generators = [GroupElement(space, b, 1) for b in space.basis()]
    if space.q > 2:
        generators.append(
            GroupElement(space, space.zero, _primitive_scalar(space.field)))
    violations = []
    for g in generators:
        corr = _automorphism(tree, g)
        if corr is None:
            violations.append(f"no marked isomorphism for (v={g.v}, xi={g.xi})")
        elif g.xi != 1:
            violations.extend(
                _scaling_violations(tree.entry, space, chain, corr, g.xi))
    return violations


def validate_fern(tree: MarkedTree, space: LinSpace) -> Fern:
    """Check the fern axioms and return the fern with its cached flag.

    Raises :class:`InvalidFern` with the full violation list on failure.
    Step i of the flag is spanned by the translations that fix the i-th
    chain component c.  The translation by v carries the chain onto the
    path from the v-mark to infinity, one component at a time, so it fixes
    c exactly when the v-mark is not reached from c through the point
    toward infinity: the flag is read off the chain's entry points.
    """
    violations, chain = _check_axioms(tree, space)
    if violations:
        raise InvalidFern(violations)
    steps = [space.mod]
    for cid in chain:
        entry = tree.entry[cid]
        fixed = [v for v in space.vectors() if entry[v] != entry[INF]]
        steps.append(Subspace.from_vectors(
            space.vs, list(space.mod.rows) + fixed))
    if steps[-1] != space.sub:  # pragma: no cover - theory guarantee
        raise InvalidFern(["chain stabilizers do not exhaust the space"])
    return Fern(tree, space, chain, Flag(tuple(steps)))


# ---------------------------------------------------------------------------
# Contraction and grafting
# ---------------------------------------------------------------------------

def contract_fern(f: Fern, w: Subspace) -> Fern:
    """Contract with respect to the marks in w (plus infinity).

    ``w`` must sit strictly between the modulus and the subspace of the
    fern's space.  Returns the fern on the smaller space, still carrying
    the forgotten marks as extra points.
    """
    space = f.space
    if not (w.contains_subspace(space.mod) and space.sub.contains_subspace(w)):
        raise ValueError("subspace is not a step of the fern's space")
    if w.dim == space.mod.dim:
        raise ValueError("contraction needs a nonzero subspace")
    keep = [v for v in space.vectors() if w.contains(v)] + [INF]
    return validate_fern(curve.contract(f.tree, keep), space.subquotient(w))


def graft(sub_fern: Fern, quot_fern: Fern, complement: Subspace) -> Fern:
    """Glue a copy of ``sub_fern`` onto every vector mark of ``quot_fern``.

    ``sub_fern`` lives on W/U and ``quot_fern`` on S/W; the result lives on
    S/U.  The copies are indexed by the representatives of the complement,
    which must satisfy complement n W = U and complement + W = S.  The
    infinity mark of each copy is glued to the corresponding quotient
    mark, and the copy indexed by u re-marks u + v' at the v' mark.
    """
    return validate_fern(*_glue((sub_fern.tree, sub_fern.space),
                                (quot_fern.tree, quot_fern.space), complement))


def _glue(sub: Tuple[MarkedTree, LinSpace], quot: Tuple[MarkedTree, LinSpace],
          complement: Subspace) -> Tuple[MarkedTree, LinSpace]:
    """The tree and the space of :func:`graft`, from the (tree, space)
    pairs of the two ferns, not yet validated."""
    (sub_tree, sp_sub), (quot_tree, sp_quot) = sub, quot
    if sp_sub.vs != sp_quot.vs:
        raise ValueError("ferns live over different coordinate spaces")
    if sp_quot.mod != sp_sub.sub:
        raise ValueError("quotient fern must be modulo the sub fern's space")
    w, u_mod, s_top = sp_sub.sub, sp_sub.mod, sp_quot.sub
    ok = (complement.contains_subspace(u_mod)
          and s_top.contains_subspace(complement)
          and complement.intersect(w) == u_mod
          and complement.add_subspace(w) == s_top)
    if not ok:
        raise ValueError("not a complement of the sub space")
    target = LinSpace(sp_sub.vs, s_top, u_mod)
    reps = LinSpace(sp_sub.vs, complement, u_mod).vectors()

    fld = sp_sub.field
    components = [("quot", c) for c in quot_tree.components]
    nodes = [curve.node(("quot", c1), p1, ("quot", c2), p2)
             for (c1, p1), (c2, p2) in map(tuple, quot_tree.nodes)]
    marking = {INF: (("quot", quot_tree.marking[INF][0]),
                     quot_tree.marking[INF][1])}
    for u in reps:
        tag = ("sub", u)
        components.extend([(tag, c) for c in sub_tree.components])
        nodes.extend(curve.node((tag, c1), p1, (tag, c2), p2)
                     for (c1, p1), (c2, p2) in map(tuple, sub_tree.nodes))
        for v in sp_sub.vectors():
            cid, pt = sub_tree.marking[v]
            marking[target.add(u, v)] = ((tag, cid), pt)
        # glue the copy's infinity point to the quotient mark of u
        inf_cid, inf_pt = sub_tree.marking[INF]
        qmark = sp_quot.reduce(u)
        q_cid, q_pt = quot_tree.marking[qmark]
        nodes.append(curve.node((tag, inf_cid), inf_pt, ("quot", q_cid), q_pt))
    return MarkedTree(fld, components, nodes, marking), target


# ---------------------------------------------------------------------------
# Line data, reciprocal data, and the additive polynomial
# ---------------------------------------------------------------------------

def _canonical_scale(space: LinSpace, values: Dict[Vec, FieldElement]):
    """Divide through by the value at the canonical anchor vector.

    The anchor is the basis vector of largest index with nonzero value;
    if every basis vector lands on zero (possible for reciprocal data),
    the first nonzero vector in enumeration order is used instead.
    """
    anchor = None
    for b in reversed(space.basis()):
        if values.get(b):
            anchor = b
            break
    if anchor is None:
        anchor = next(v for v in space.vectors() if values.get(v))
    scale = values[anchor].inverse()
    return {v: x * scale for v, x in values.items()}


@dataclass(frozen=True)
class LineData:
    """Translation values on V up to a common scalar; F_q-linear, nonzero."""

    space: LinSpace
    values: dict  # vector rep -> FieldElement

    def kernel(self) -> Subspace:
        vecs = [v for v, x in self.values.items() if not x]
        return Subspace.from_vectors(self.space.vs,
                                     list(self.space.mod.rows) + vecs)

    def is_injective(self) -> bool:
        return self.kernel().dim == self.space.mod.dim


@dataclass(frozen=True)
class RecipData:
    """Reciprocal values on the nonzero vectors, up to a common scalar."""

    space: LinSpace
    values: dict  # nonzero vector rep -> FieldElement


def _line_values(entry: dict, origin, pole, marks) -> Dict[Vec, FieldElement]:
    """Values of the vector ``marks`` (not ``pole``) on one component,
    given every mark's entry point there (``MarkedTree.entry``), in
    a coordinate that puts the ``origin`` mark at zero and the pole at
    infinity.  That fixes the values up to one common scalar, which the
    callers fix by canonical scaling."""
    coord = Mobius.zero_infinity(entry[origin], entry[pole])
    return {v: coord.apply(entry[v]).affine_value() for v in marks}


def line_data(f: Fern) -> LineData:
    """Values of the marks on the contraction to the infinity component.

    The coordinate puts the 0-mark at zero and the infinity mark at
    infinity; the scale is then canonicalized.  The kernel is exactly the
    second to last step of the associated flag.
    """
    entry = f.tree.entry[f.tree.marking[INF][0]]
    values = _line_values(entry, f.space.zero, INF, f.space.vectors())
    return LineData(f.space, _canonical_scale(f.space, values))


def reciprocal_data(f: Fern) -> RecipData:
    """Values of the nonzero marks on the contraction to the zero component.

    The coordinate puts the infinity mark at zero and the 0-mark at
    infinity, so the values vanish exactly on the marks that collapse onto
    the infinity direction (everything off the first flag step).
    """
    zero = f.space.zero
    entry = f.tree.entry[f.tree.marking[zero][0]]
    values = _line_values(entry, INF, zero,
                          [v for v in f.space.vectors() if v != zero])
    return RecipData(f.space, _canonical_scale(f.space, values))


@dataclass(frozen=True)
class AdditivePoly:
    """t * sum_i coeffs[q^i] * x^(q^i): the coefficient table of psi_t.

    The factor t stays formal; the stored coefficients are the scalars
    multiplying it, so the x-coefficient entry is one by construction.
    """

    field: object
    q: int
    coeffs: dict  # exponent (a power of q) -> FieldElement

    @property
    def degree(self) -> int:
        return max(self.coeffs)

    def x_coefficient(self) -> FieldElement:
        return self.coeffs[1]

    def evaluate_scalar_part(self, x: FieldElement) -> FieldElement:
        acc = self.field.zero
        for exp, c in self.coeffs.items():
            acc = acc + c * x ** exp
        return acc


def expand_root_product(fld, roots) -> list:
    """Dense coefficients of prod (x - r) over the given roots."""
    coeffs = [fld.one]
    for r in roots:
        coeffs = ([fld.zero] + coeffs[:])  # multiply by x
        for i in range(len(coeffs) - 1):
            coeffs[i] = coeffs[i] - r * coeffs[i + 1]
    return coeffs


def drinfeld_psi(ld: LineData, scale: Optional[FieldElement] = None) -> AdditivePoly:
    """The additive polynomial determined by an injective line datum.

    psi_t(x) = t * x * prod over nonzero v of (1 - x / lambda_v), with
    lambda = scale * (canonical values), built as the subspace polynomial
    of the lambda values: P_0 = x and, over a basis b_1..b_n,
    P_{k+1} = P_k^q - P_k(lambda_{b_{k+1}})^(q-1) P_k, whose roots are the
    lambda_v with v in span(b_1..b_{k+1}); psi is P_n over its
    x-coefficient.  The degree is q^dim and every lambda_v is a root.
    """
    if not ld.is_injective():
        raise ValueError("line datum has a nonzero kernel")
    space = ld.space
    fld, q = space.field, space.q
    scale = fld.one if scale is None else scale
    lam = {v: scale * x for v, x in ld.values.items()}
    poly = AdditivePoly(fld, q, {1: fld.one})
    for b in space.basis():
        c = poly.evaluate_scalar_part(lam[b]) ** (q - 1)
        table = {e * q: a ** q for e, a in poly.coeffs.items()}
        for e, a in poly.coeffs.items():
            table[e] = table.get(e, fld.zero) - c * a
        poly = AdditivePoly(fld, q, {e: a for e, a in sorted(table.items())
                                     if a})
    x_coeff = poly.coeffs.get(1)
    if not x_coeff:
        raise AssertionError("x-coefficient of psi vanishes")
    inv = x_coeff.inverse()
    poly = AdditivePoly(fld, q, {e: a * inv for e, a in poly.coeffs.items()})
    if poly.degree != q ** space.dim:
        raise AssertionError(f"psi has degree {poly.degree}, not q^dim")
    for v in space.vectors():
        if poly.evaluate_scalar_part(lam[v] if v != space.zero else fld.zero):
            raise AssertionError("marked value is not a root of psi")
    return poly
