import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ferns import curve
from ferns import fern as fern_mod
from ferns.curve import MarkedTree, Mobius, ProjPoint, single_component_tree
from ferns.fern import (InvalidFern, LineData, contract_fern, drinfeld_psi,
                        expand_root_product, fern_violations, graft,
                        line_data, reciprocal_data, validate_fern)
from ferns.gf import (INF, LinSpace, Subspace, VSpace, field_make, group_act,
                      group_elements)
from ferns.rand import (injective_linear_marking, random_fern,
                        random_pipeline_fern, random_remap)
from ferns.universal import classify

from conftest import space


def with_marking(tree, marking, extra=None):
    """The tree's components and nodes with another marking, and its
    extra points unless others are given."""
    return MarkedTree(tree.field, tree.components, tree.nodes, marking,
                      tree.extra if extra is None else extra)


def linear_marking_tree(fld, sp, images):
    """Single line with the linear marking determined by basis images."""
    marking = {}
    for v in sp.vectors():
        coords = sp.coords(v)
        total = fld.zero
        for c, img in zip(coords, images):
            if c:
                total = total + fld.scalar(c) * img
        marking[v] = ProjPoint.affine(total)
    marking[INF] = ProjPoint.infinity(fld)
    return single_component_tree(fld, marking)


@pytest.fixture
def smooth_f4():
    # the spec anchor: one projective line over F_4 with V of dimension 2
    fld = field_make(2, 1, 2)
    sp = space(2, 2, 2)
    tree = linear_marking_tree(fld, sp, [fld.element((0, 1)), fld.one])
    return validate_fern(tree, sp)


@pytest.fixture
def singular_q2():
    # graft of two dimension-1 pieces over F_2: the basic singular shape
    sp = space(2, 2)
    vs, fld = sp.vs, sp.field
    w = Subspace.from_vectors(vs, [(1, 0)])

    def dim1(sub_space):
        nz = next(v for v in sub_space.vectors() if v != sub_space.zero)
        marking = {sub_space.zero: ProjPoint.zero(fld),
                   nz: ProjPoint.affine(fld.one),
                   INF: ProjPoint.infinity(fld)}
        return validate_fern(
            single_component_tree(fld, marking, cid=("P", sub_space.sub.key())),
            sub_space)

    sub = dim1(LinSpace(vs, w, Subspace.zero(vs)))
    quot = dim1(LinSpace(vs, Subspace.full(vs), w))
    return graft(sub, quot, Subspace.from_vectors(vs, [(0, 1)])), w


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_smooth_fern_validates(smooth_f4):
    assert smooth_f4.is_smooth()
    assert len(smooth_f4.flag.steps) - 1 == 1


def test_validation_rejects_off_pattern_mark():
    fld = field_make(2, 1, 3)  # room to move a mark off the pattern
    sp = space(2, 2, 3)
    tree = linear_marking_tree(fld, sp, [fld.element((0, 1)), fld.one])
    taken = set(tree.marking.values())
    moved = 0
    for x in fld.elements():
        cand = ProjPoint.affine(x)
        if ("c0", cand) in taken or cand in {p for _, p in taken}:
            continue
        bad = dict(tree.marking)
        bad[(1, 1)] = ("c0", cand)
        assert fern_violations(with_marking(tree, bad), sp)
        moved += 1
    assert moved >= 3


def test_validation_perturbation_rejection_random(rng):
    # on a smooth fern, moving a nonzero, non-infinity mark anywhere else
    # never yields a fern: its position is forced by cross ratios against
    # 0, infinity, and the other marks.  (Zero and infinity marks, and
    # marks on three-special-point tails of singular ferns, can land on a
    # different valid presentation over a small field, so only the smooth
    # nonzero case is a theorem.)
    from ferns.rand import _smooth_tree
    cases = [(space(2, 2, 3), 50), (space(2, 3, 3), 50)]
    for sp, trials in cases:
        fld = sp.field
        fern = validate_fern(_smooth_tree(sp, rng), sp)
        rejected = 0
        for _ in range(trials):
            tree = fern.tree
            target = rng.choice([v for v in sp.vectors() if v != sp.zero])
            cid = tree.marking[target][0]
            taken = set(tree.marks_on(cid).values()) | \
                set(tree.neighbors(cid).values())
            free = [ProjPoint.affine(x) for x in fld.elements()
                    if ProjPoint.affine(x) not in taken]
            if ProjPoint.infinity(fld) not in taken:
                free.append(ProjPoint.infinity(fld))
            free = [p for p in free if p != tree.marking[target][1]]
            if not free:
                continue
            bad = dict(tree.marking)
            bad[target] = (cid, rng.choice(free))
            assert fern_violations(with_marking(tree, bad), sp), \
                f"perturbation of {target} accepted"
            rejected += 1
        assert rejected >= trials * 3 // 4


def test_scalar_axiom_binds_for_q3():
    fld = field_make(3, 1, 2)
    sp = space(1, 3, 2)
    good = {(0,): ProjPoint.zero(fld), (1,): ProjPoint.affine(fld.one),
            (2,): ProjPoint.affine(fld.scalar(2)), INF: ProjPoint.infinity(fld)}
    validate_fern(single_component_tree(fld, good), sp)
    wrong = next(x for x in fld.elements()
                 if x and x != fld.one and x != fld.scalar(2))
    bad = dict(good)
    bad[(2,)] = ProjPoint.affine(wrong)
    with pytest.raises(InvalidFern):
        validate_fern(single_component_tree(fld, bad), sp)


def test_validation_requires_full_mark_set():
    fld = field_make(2)
    sp = space(2, 2)
    tree = single_component_tree(fld, {
        (0, 0): ProjPoint.zero(fld), (1, 0): ProjPoint.affine(fld.one),
        INF: ProjPoint.infinity(fld)})
    assert any("indexed" in v for v in fern_violations(tree, sp))


# ---------------------------------------------------------------------------
# chains, flags, special points
# ---------------------------------------------------------------------------

def test_smooth_fern_trivial_flag(smooth_f4):
    assert smooth_f4.flag.steps[0].dim == 0
    assert smooth_f4.flag.steps[1].dim == 2


def test_singular_flag_and_chain(singular_q2):
    fern, w = singular_q2
    assert len(fern.chain) == 2
    assert [s.dim for s in fern.flag.steps] == [0, 1, 2]
    assert fern.flag.steps[1] == w


def test_dim2_singular_fern_q3(rng):
    # build the dimension-2 singular shape over F_3 by grafting
    sp = space(2, 3)
    vs, fld = sp.vs, sp.field
    w = Subspace.from_vectors(vs, [(1, 0)])
    sub = random_fern(LinSpace(vs, w, Subspace.zero(vs)), rng)
    quot = random_fern(LinSpace(vs, Subspace.full(vs), w), rng)
    fern = graft(sub, quot, Subspace.from_vectors(vs, [(0, 1)]))
    assert [s.dim for s in fern.flag.steps] == [0, 1, 2]
    assert fern.flag.steps[1] == w
    assert len(fern.tree.components) == 4  # spine plus q tails


def test_chain_special_points_match_subquotient(singular_q2):
    # special points on chain component i biject with V_i/V_{i-1} plus one
    fern, w = singular_q2
    q = fern.space.q
    for i, cid in enumerate(fern.chain):
        specials = len(fern.tree.marks_on(cid)) + len(fern.tree.neighbors(cid))
        lo, hi = fern.flag.steps[i], fern.flag.steps[i + 1]
        assert specials == q ** (hi.dim - lo.dim) + 1


# ---------------------------------------------------------------------------
# contraction and grafting
# ---------------------------------------------------------------------------

def test_contract_fern_full_space_is_identity(smooth_f4):
    out = contract_fern(smooth_f4, smooth_f4.space.sub)
    assert curve.are_isomorphic(out.tree, smooth_f4.tree) is not None


def test_contract_fern_rejects_zero():
    sp = space(2, 2)
    fern = random_fern(sp, random.Random(1))
    with pytest.raises(ValueError):
        contract_fern(fern, Subspace.zero(sp.vs))


def test_contract_fern_flag_compatibility(rng):
    for _ in range(100):
        n, q, m = rng.choice([(2, 2, 1), (2, 2, 2), (3, 2, 1),
                              (2, 3, 1), (3, 3, 1)])
        sp = space(n, q, m)
        fern = random_fern(sp, rng)
        w = rng.choice(sp.proper_steps())
        sub = contract_fern(fern, w)
        assert fern.flag.intersect(w).steps == sub.flag.steps


def test_contract_smooth_gives_smooth(smooth_f4):
    w = Subspace.from_vectors(smooth_f4.space.vs, [(1, 0)])
    out = contract_fern(smooth_f4, w)
    assert out.is_smooth()
    # the restricted marking agrees up to coordinate choice
    ld_full = line_data(smooth_f4)
    ld_sub = line_data(out)
    ratios = {(ld_full.values[v] / ld_sub.values[v]).coeffs
              for v in out.space.vectors() if v != out.space.zero}
    assert len(ratios) == 1


def test_graft_matches_fiber_shape(singular_q2):
    fern, w = singular_q2
    assert len(fern.tree.components) == 3
    spine = fern.chain[-1]
    assert len(fern.tree.neighbors(spine)) == 2
    tails = [c for c in fern.tree.components if c != spine]
    for tail in tails:
        assert len(fern.tree.marks_on(tail)) == 2  # one coset each


def test_graft_complement_independence(rng):
    sp = space(2, 3)
    vs = sp.vs
    w = Subspace.from_vectors(vs, [(1, 0)])
    sub = random_fern(LinSpace(vs, w, Subspace.zero(vs)), rng)
    quot = random_fern(LinSpace(vs, Subspace.full(vs), w), rng)
    grafts = [graft(sub, quot, Subspace.from_vectors(vs, [t]))
              for t in [(0, 1), (1, 1), (2, 1)]]
    for other in grafts[1:]:
        assert curve.are_isomorphic(grafts[0].tree, other.tree) is not None


def test_graft_rejects_non_complement():
    sp = space(2, 2)
    vs = sp.vs
    w = Subspace.from_vectors(vs, [(1, 0)])
    sub = random_fern(LinSpace(vs, w, Subspace.zero(vs)), random.Random(2))
    quot = random_fern(LinSpace(vs, Subspace.full(vs), w), random.Random(3))
    with pytest.raises(ValueError):
        graft(sub, quot, w)  # w itself is not a complement


def test_graft_flag_contains_subspace(rng):
    sp = space(3, 2)
    vs = sp.vs
    w = Subspace.from_vectors(vs, [(1, 0, 0), (0, 1, 0)])
    sub = random_fern(LinSpace(vs, w, Subspace.zero(vs)), rng)
    quot = random_fern(LinSpace(vs, Subspace.full(vs), w), rng)
    fern = graft(sub, quot, Subspace.from_vectors(vs, [(0, 0, 1)]))
    assert w in fern.flag.steps


def test_dim1_ferns_unique_up_to_iso(rng):
    for q, m in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        sp = space(1, q, m)
        ferns = [random_fern(sp, rng) for _ in range(4)]
        for other in ferns[1:]:
            assert curve.are_isomorphic(ferns[0].tree, other.tree) is not None


def test_validate_accepts_remapped_pipeline_output(rng):
    for _ in range(10):
        fern, _ = random_pipeline_fern(space(2, 2, 2), rng)
        again = validate_fern(random_remap(fern.tree, rng), fern.space)
        assert again.flag.steps == fern.flag.steps


def test_random_fern_validated_once(monkeypatch, rng):
    # every fern random_fern builds, smooth or grafted, is validated
    # exactly once, after its coordinate change, and is a valid fern
    from ferns import rand
    builds, validated = [], []
    real_build, real_validate = rand.random_fern, rand.validate_fern

    def build(*args, **kwargs):
        builds.append(1)
        return real_build(*args, **kwargs)

    def validate(tree, sp):
        validated.append(tree)
        return real_validate(tree, sp)

    monkeypatch.setattr(rand, "random_fern", build)
    monkeypatch.setattr(rand, "validate_fern", validate)
    grafted = 0
    for sp in [space(3, 2), space(2, 3), space(2, 4), space(2, 2, 2),
               space(1, 3)]:
        for _ in range(4):
            builds.clear()
            validated.clear()
            f = rand.random_fern(sp, rng)
            grafted += not f.is_smooth()
            assert len(validated) == len(builds)
            assert validated[-1] is f.tree
            assert real_validate(f.tree, sp).flag == f.flag
    assert 6 <= grafted < 20


SEEDED_PROBE = """
import hashlib, random
from ferns.gf import LinSpace, VSpace, field_make
from ferns.jsonio import dumps, fern_to_json
from ferns.curve import contract
from ferns.rand import random_fern, random_stable_tree
for_ferns, for_trees = hashlib.md5(), hashlib.md5()
for_contractions = hashlib.md5()
for p, e, m in [(3, 1, 1), (2, 1, 2)]:  # F_3^3 over GF(3), F_2^3 over GF(4)
    sp = LinSpace.full(VSpace(field_make(p, e, m), 3))
    for seed in range(2):
        f = random_fern(sp, random.Random(seed))
        for_ferns.update(dumps(fern_to_json(f)).encode())
for seed in range(50):
    rng = random.Random(seed)
    t = random_stable_tree(field_make(2, 1, 2), range(1, 10), rng)
    for_trees.update(repr(t.canonical_key()).encode())
    c = contract(t, rng.sample(range(1, 10), rng.randint(3, 8)))
    for_contractions.update(
        repr((c.canonical_key(), list(c.marking), list(c.extra))).encode())
print(for_ferns.hexdigest(), for_trees.hexdigest(),
      for_contractions.hexdigest())
"""


def test_seeded_builds_do_not_depend_on_the_hash_seed():
    # component ids hold strings, and the iteration order of a set of them
    # follows their hashes, which change from process to process unless
    # PYTHONHASHSEED fixes them; a seeded build must not read that order
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
        run = subprocess.run([sys.executable, "-c", SEEDED_PROBE],
                             capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        outputs.add(run.stdout)
    assert len(outputs) == 1, outputs


# ---------------------------------------------------------------------------
# line data and reciprocal data
# ---------------------------------------------------------------------------

def test_line_data_smooth_injective_and_proportional(smooth_f4):
    ld = line_data(smooth_f4)
    assert ld.is_injective()
    # proportional to the defining marking
    fld = smooth_f4.space.field
    defining = {v: smooth_f4.tree.marking[v][1].affine_value()
                for v in smooth_f4.space.vectors()}
    ratios = {(ld.values[v] / defining[v]).coeffs
              for v in smooth_f4.space.vectors() if defining[v]}
    assert len(ratios) == 1


def test_line_data_linearity_exhaustive(singular_q2):
    fern, _ = singular_q2
    sp = fern.space
    ld = line_data(fern)
    for u in sp.vectors():
        for v in sp.vectors():
            assert ld.values[sp.add(u, v)] == ld.values[u] + ld.values[v]


def test_line_data_kernel_is_second_to_last_step(singular_q2):
    fern, w = singular_q2
    assert line_data(fern).kernel() == w


def test_line_data_of_graft_factors_through_quotient(singular_q2):
    fern, w = singular_q2
    ld = line_data(fern)
    sp = fern.space
    assert all(not ld.values[v] for v in sp.vectors() if w.contains(v))
    # values on a coset are constant: the datum factors through V/W
    for v in sp.vectors():
        for u in sp.vectors():
            if w.contains(u):
                assert ld.values[sp.add(v, u)] == ld.values[v]


def test_reciprocal_smooth_is_inverse(smooth_f4):
    ld, rd = line_data(smooth_f4), reciprocal_data(smooth_f4)
    sp = smooth_f4.space
    products = {(ld.values[v] * rd.values[v]).coeffs
                for v in sp.vectors() if v != sp.zero}
    assert len(products) == 1


def test_reciprocal_vanishes_off_first_step(singular_q2):
    fern, w = singular_q2
    rd = reciprocal_data(fern)
    assert {v for v, x in rd.values.items() if x} == \
        {v for v in fern.space.vectors() if w.contains(v) and any(v)}


def test_reciprocal_axioms_exhaustive(singular_q2):
    fern, _ = singular_q2
    sp, fld = fern.space, fern.space.field
    rd = reciprocal_data(fern)
    for c in range(2, sp.q):
        for v in sp.vectors():
            if v == sp.zero:
                continue
            assert rd.values[sp.scale(c, v)] == \
                fld.scalar(fld.s_inv[c]) * rd.values[v]
    for v in sp.vectors():
        for u in sp.vectors():
            if v == sp.zero or u == sp.zero or sp.add(v, u) == sp.zero:
                continue
            assert rd.values[v] * rd.values[u] == \
                rd.values[sp.add(v, u)] * (rd.values[v] + rd.values[u])


# ---------------------------------------------------------------------------
# the additive polynomial
# ---------------------------------------------------------------------------

def test_drinfeld_smallest_case():
    sp = space(1, 2)
    fld = sp.field
    ld = LineData(sp, {(0,): fld.zero, (1,): fld.one})
    psi = drinfeld_psi(ld)
    # t*x*(1 - x/1) = t*(x + x^2) over F_2
    assert psi.coeffs == {1: fld.one, 2: fld.one}


def test_drinfeld_zero_on_marks(smooth_f4):
    ld = line_data(smooth_f4)
    psi = drinfeld_psi(ld)
    for v in smooth_f4.space.vectors():
        value = ld.values[v]
        assert not psi.evaluate_scalar_part(value)
    assert psi.degree == 4 and psi.x_coefficient() == smooth_f4.space.field.one


def test_drinfeld_rejects_kernel(singular_q2):
    fern, _ = singular_q2
    with pytest.raises(ValueError):
        drinfeld_psi(line_data(fern))


def test_drinfeld_scale_changes_roots(smooth_f4):
    fld = smooth_f4.space.field
    ld = line_data(smooth_f4)
    scale = fld.element((0, 1))
    psi = drinfeld_psi(ld, scale)
    for v in smooth_f4.space.vectors():
        assert not psi.evaluate_scalar_part(scale * ld.values[v])


def test_root_product_additivity_random(rng):
    for _ in range(50):
        n, q, m = rng.choice([(1, 2, 1), (2, 2, 2), (3, 2, 3),
                              (1, 3, 2), (2, 3, 2), (2, 3, 3)])
        sp = space(n, q, m)
        lam = injective_linear_marking(sp, rng)
        coeffs = expand_root_product(sp.field, [lam[v] for v in sp.vectors()])
        qpowers = {q ** j for j in range(n + 1)}
        for exp, c in enumerate(coeffs):
            assert not c or exp in qpowers


# ---------------------------------------------------------------------------
# validation from generators against the scan over all of G
# ---------------------------------------------------------------------------

def fresh_entry(tree):
    """Every component's entry points, read with curve.entry_points and not
    from the maps the tree keeps."""
    return {c: curve.entry_points(tree, c) for c in tree.components}


def scales_chain(entry, sp, chain, corr, xi):
    """Whether the automorphism fixes every chain component and multiplies
    by xi the coordinate that puts the entry points of the 0-mark and the
    infinity mark at zero and infinity, tested at every entry point."""
    scale = sp.field.scalar(xi)
    for cid in chain:
        if corr.components[cid] != cid:
            return False
        coord = Mobius.zero_infinity(entry[cid][sp.zero], entry[cid][INF])
        for pt in entry[cid].values():
            z = coord.apply(pt)
            image = coord.apply(corr.maps[cid].apply(pt))
            if z.is_infinity != image.is_infinity:
                return False
            if not z.is_infinity and image.x != scale * z.x:
                return False
    return True


def scan_axioms(tree, sp):
    """The scan over all of G, each element searched as the isomorphism
    to a copy of the tree remarked by it, on fresh entry maps: the oracle
    for validation from generators and for its flag.

    The tree must pass the mark-set and stability checks.  Returns the
    elements (v, xi) without an automorphism, the scalars whose
    automorphism does not scale the chain, the chain, and every
    translation's component permutation."""
    assert not fern_mod._shape_violations(tree, sp)
    chain = tuple(tree.path(tree.marking[sp.zero][0], tree.marking[INF][0]))
    entry = fresh_entry(tree)
    missing, unscaled, perms = [], set(), {}
    for g in group_elements(sp):
        corr = reference_isomorphism(tree, remarked(tree, g))
        if corr is None:
            missing.append((g.v, g.xi))
        elif g.xi == 1:
            perms[g.v] = corr.components
        elif g.v == sp.zero and not scales_chain(entry, sp, chain, corr, g.xi):
            unscaled.add(g.xi)
    return missing, unscaled, chain, perms


def stabilizer_flag(sp, chain, perms):
    """Step i: the translations that fix the i-th chain component."""
    return [Subspace.from_vectors(sp.vs, list(sp.mod.rows) + [
        v for v in sp.vectors() if perms[v][cid] == cid]) for cid in chain]


def primitive_scalar(fld):
    """The smallest scalar index whose powers give all of F_q^*."""
    return min(xi for xi in range(2, fld.q)
               if len({(fld.scalar(xi) ** k).coeffs
                       for k in range(1, fld.q)}) == fld.q - 1)


def generators(sp):
    """The basis translations, then for q > 2 the primitive scalar."""
    out = [(b, 1) for b in sp.basis()]
    if sp.q > 2:
        out.append((sp.zero, primitive_scalar(sp.field)))
    return out


MISSING = re.compile(r"no marked isomorphism for \(v=.*, xi=\d+\)$")


def perturbed_trees(f, rng):
    """The fern's tree, one copy with two marks swapped and one with a mark
    moved to a free point of its component."""
    tree, sp = f.tree, f.space
    labels = list(sp.vectors()) + [INF]
    a, b = rng.sample(labels, 2)
    swapped = dict(tree.marking)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    out = [tree, with_marking(tree, swapped)]
    target = rng.choice(labels)
    cid = tree.marking[target][0]
    taken = set(tree.marks_on(cid).values()) | set(tree.neighbors(cid).values())
    free = [p for p in [ProjPoint.affine(x) for x in sp.field.elements()]
            + [ProjPoint.infinity(sp.field)] if p not in taken]
    if free:
        moved = dict(tree.marking)
        moved[target] = (cid, rng.choice(free))
        out.append(with_marking(tree, moved))
    return out


def assert_generators_match_scan(tree, sp):
    """Validation accepts exactly what the scan accepts.  On a rejection
    it names, in order, exactly the generators without an automorphism
    in the scan, and words any other violation as a scaling failure of
    the primitive scalar, present when the scan finds that scalar not
    scaling the chain.  On acceptance the chain and the flag agree."""
    missing, unscaled, chain, perms = scan_axioms(tree, sp)
    accepted = not missing and not unscaled
    violations = fern_violations(tree, sp)
    assert accepted != bool(violations)
    if not accepted:
        named = [v for v in violations if MISSING.match(v)]
        assert named == [f"no marked isomorphism for (v={v}, xi={xi})"
                         for v, xi in generators(sp) if (v, xi) in missing]
        scaling = [v for v in violations if not MISSING.match(v)]
        if sp.q > 2:
            xi0 = primitive_scalar(sp.field)
            assert all(f"xi={xi0} " in v for v in scaling)
            assert bool(scaling) == (xi0 in unscaled)
        else:
            assert not scaling
        with pytest.raises(InvalidFern) as info:
            validate_fern(tree, sp)
        assert info.value.violations == violations
        return False
    f = validate_fern(tree, sp)
    assert f.chain == chain
    assert list(f.flag.steps[1:]) == stabilizer_flag(sp, chain, perms)
    return True


def frobenius_tree(sp):
    """One line marked by v -> v^p on F_q: every element of G has an
    automorphism, but the scalars act by xi^p, not by xi."""
    fld = sp.field
    marking = {(c,): ProjPoint.affine(fld.scalar(c) ** fld.p)
               for c in range(sp.q)}
    marking[INF] = ProjPoint.infinity(fld)
    return single_component_tree(fld, marking)


# (n, p, e, m) -> ferns per configuration; q = 4 and q = 8 are the fields
# where V is not spanned over F_p by the basis, so the flag's translations
# are reached only through the scalar generator
ORACLE_QUICK = [((2, 2, 1, 1), 4), ((3, 2, 1, 1), 2), ((2, 2, 1, 2), 4),
                ((2, 3, 1, 1), 3), ((1, 5, 1, 1), 4), ((1, 2, 2, 2), 4),
                ((2, 2, 2, 1), 4), ((1, 2, 3, 1), 4)]
ORACLE_SWEEP = [((2, 2, 1, 1), 40), ((3, 2, 1, 1), 40), ((2, 2, 1, 2), 40),
                ((4, 2, 1, 1), 10), ((2, 3, 1, 1), 40), ((3, 3, 1, 1), 4),
                ((2, 3, 1, 2), 40), ((1, 5, 1, 1), 40), ((2, 5, 1, 1), 4),
                ((1, 2, 2, 2), 40), ((2, 2, 2, 1), 20), ((2, 2, 2, 2), 12),
                ((1, 2, 3, 1), 40), ((1, 2, 3, 2), 20)]


def run_oracle(configs, seed):
    rng = random.Random(seed)
    accepted = rejected = 0
    for (n, p, e, m), count in configs:
        sp = LinSpace.full(VSpace(field_make(p, e, m), n))
        for _ in range(count):
            for tree in perturbed_trees(random_fern(sp, rng), rng):
                if assert_generators_match_scan(tree, sp):
                    accepted += 1
                else:
                    rejected += 1
    return accepted, rejected


def test_generators_match_scan_quick():
    accepted, rejected = run_oracle(ORACLE_QUICK, 0)
    assert accepted >= 30 and rejected >= 20


@pytest.mark.slow
def test_generators_match_scan_sweep():
    accepted, rejected = run_oracle(ORACLE_SWEEP, 1)
    assert accepted >= 400 and rejected >= 350


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2)])
def test_scaling_failure_names_primitive_scalar(p, e):
    sp = LinSpace.full(VSpace(field_make(p, e), 1))
    xi0 = primitive_scalar(sp.field)
    tree = frobenius_tree(sp)
    # the scan finds every automorphism, and the scalars outside F_p,
    # xi0 among them, not scaling
    missing, unscaled, _, _ = scan_axioms(tree, sp)
    assert not missing and xi0 in unscaled
    expected = [f"xi={xi0} does not act by scaling on chain component 'c0'"]
    assert fern_violations(tree, sp) == expected
    assert not assert_generators_match_scan(tree, sp)
    # the same tree in other coordinates on its component fails the same way
    rng = random.Random(p ** e)
    for _ in range(3):
        moved = random_remap(tree, rng)
        assert fern_violations(moved, sp) == expected
        assert not assert_generators_match_scan(moved, sp)


def test_generator_searches_per_validation(monkeypatch):
    # n + 1 searches for q > 2 and n for q = 2, accepted or rejected
    calls = []
    real = curve.marked_isomorphism

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(curve, "marked_isomorphism", counted)
    rng = random.Random(5)
    rejected = 0
    for (n, p, e, m), searches in [((3, 2, 1, 1), 3), ((3, 3, 1, 1), 4),
                                   ((2, 2, 2, 1), 3), ((2, 3, 1, 1), 3)]:
        sp = LinSpace.full(VSpace(field_make(p, e, m), n))
        for _ in range(3):
            for tree in perturbed_trees(random_fern(sp, rng), rng):
                if fern_mod._shape_violations(tree, sp):
                    continue
                calls.clear()
                violations = fern_violations(tree, sp)
                assert len(calls) == searches
                rejected += bool(violations)
    assert rejected >= 8


def test_tree_builds_each_entry_map_once(monkeypatch):
    # validation, classification, line data and isomorphism searches all
    # read the entry maps that each tree builds once per component
    built = []
    real = curve.entry_points

    def counted(t, c):
        built.append((id(t), c))
        return real(t, c)

    monkeypatch.setattr(curve, "entry_points", counted)
    sp = space(3, 2)
    f = random_fern(sp, random.Random(4))
    tree = with_marking(f.tree, f.tree.marking)
    other = random_remap(tree, random.Random(5))
    assert len(tree.components) >= 3
    built.clear()
    fern = validate_fern(tree, sp)
    classify(fern)
    line_data(fern)
    reciprocal_data(fern)
    for t1, t2 in [(tree, other), (other, tree), (tree, tree)]:
        assert curve.are_isomorphic(t1, t2) is not None
    assert sorted(built, key=repr) == sorted(
        [(id(tree), c) for c in tree.components]
        + [(id(other), c) for c in other.components], key=repr)


# ---------------------------------------------------------------------------
# automorphisms on the tree's own data against a relabelled copy
# ---------------------------------------------------------------------------

def remarked(tree, g):
    """The same tree with marking w -> position of (g.w); infinity is fixed."""
    marking = {w: tree.marking[group_act(g, w)] for w in tree.marking}
    return with_marking(tree, marking, extra={})


def reference_isomorphism(t1, t2):
    """The label-preserving isomorphism found from fresh entry maps of both
    trees, anchors sorted per call: the search without per-tree data."""
    entry1, entry2 = fresh_entry(t1), fresh_entry(t2)
    comp_map, mobius = {}, {}
    for c in t1.components:
        by_point = {}
        for lbl, pt in entry1[c].items():
            by_point.setdefault(pt, []).append(lbl)
        anchors = sorted((min(lbls, key=repr) for lbls in by_point.values()),
                         key=repr)[:3]
        candidates = [d for d in t2.components
                      if len({entry2[d][a] for a in anchors}) == 3]
        if not candidates:
            return None
        assert len(candidates) == 1
        d = comp_map[c] = candidates[0]
        to_standard = curve.Mobius.to_standard
        mobius[c] = to_standard(*(entry2[d][a] for a in anchors)).inverse() \
            .compose(to_standard(*(entry1[c][a] for a in anchors)))
    if len(set(comp_map.values())) != len(comp_map):
        return None
    for lbl, (cid, pt) in t1.marking.items():
        cid2, pt2 = t2.marking[lbl]
        if comp_map[cid] != cid2 or mobius[cid].apply(pt) != pt2:
            return None
    for nd in t1.nodes:
        (c1, p1), (c2, p2) = tuple(nd)
        if curve.node(comp_map[c1], mobius[c1].apply(p1), comp_map[c2],
                      mobius[c2].apply(p2)) not in t2.nodes:
            return None
    return curve.Correspondence(comp_map, mobius)


def assert_automorphisms_match_reference(tree, sp):
    """For every g in G, the automorphism found on the tree's own data is
    the isomorphism to the copy remarked by g: the same component map and
    equal maps, or None on both sides.  Returns how many were None."""
    missing = 0
    for g in group_elements(sp):
        found = fern_mod._automorphism(tree, g)
        expected = reference_isomorphism(tree, remarked(tree, g))
        assert (found is None) == (expected is None), (g.v, g.xi)
        if found is None:
            missing += 1
        else:
            assert found.components == expected.components
            assert found.maps == expected.maps
    return missing


def run_automorphism_oracle(configs, seed):
    rng = random.Random(seed)
    searched = missing = 0
    for (n, p, e, m), count in configs:
        sp = LinSpace.full(VSpace(field_make(p, e, m), n))
        for _ in range(count):
            for tree in perturbed_trees(random_fern(sp, rng), rng):
                missing += assert_automorphisms_match_reference(tree, sp)
                searched += len(group_elements(sp))
    return searched, missing


# q in {2, 3, 4, 5, 8}
AUTOMORPHISM_QUICK = [((2, 2, 1, 1), 2), ((3, 2, 1, 1), 1), ((2, 3, 1, 1), 2),
                      ((1, 5, 1, 1), 2), ((1, 2, 2, 2), 2), ((2, 2, 2, 1), 1),
                      ((1, 2, 3, 1), 1)]
AUTOMORPHISM_SWEEP = [((2, 2, 1, 1), 10), ((3, 2, 1, 1), 10),
                      ((3, 3, 1, 1), 2), ((2, 3, 1, 1), 10),
                      ((2, 2, 1, 2), 10), ((2, 5, 1, 1), 2), ((1, 5, 1, 1), 10),
                      ((2, 2, 2, 1), 5), ((1, 2, 2, 2), 10), ((1, 2, 3, 1), 10),
                      ((4, 2, 1, 1), 2)]


def test_automorphisms_match_remarked_copy_quick():
    searched, missing = run_automorphism_oracle(AUTOMORPHISM_QUICK, 0)
    assert searched >= 300 and 0 < missing < searched


@pytest.mark.slow
def test_automorphisms_match_remarked_copy_sweep():
    searched, missing = run_automorphism_oracle(AUTOMORPHISM_SWEEP, 1)
    assert searched >= 3000 and 0 < missing < searched


def test_are_isomorphic_matches_reference(rng):
    # label-preserving searches between two presentations of one fern,
    # and against a copy with two marks swapped
    for n, q, m in [(2, 2, 1), (2, 3, 1), (3, 2, 1), (1, 4, 2)]:
        sp = space(n, q, m)
        for _ in range(3):
            f = random_fern(sp, rng)
            for other in [random_remap(f.tree, rng)] + \
                    perturbed_trees(f, rng)[1:]:
                found = curve.are_isomorphic(f.tree, other)
                expected = reference_isomorphism(f.tree, other)
                assert (found is None) == (expected is None)
                if found is not None:
                    assert found.components == expected.components
                    assert found.maps == expected.maps


# ---------------------------------------------------------------------------
# the walk's refusals, pair by pair against the reference search
# ---------------------------------------------------------------------------

F5 = field_make(5)


def f5(v):
    return ProjPoint.infinity(F5) if v is None else ProjPoint.affine(F5.from_int(v))


def two_line_tree(node_on_b=0, marks=None):
    """The parent A carries marks 4, 5 and meets the child B at (0:1) of
    A; B carries marks 1, 2, 3, 6.  Mark 4 comes first, so the walk
    starts at A, and B's anchors are its own marks 1, 2, 3."""
    placed = {4: ("A", 1), 5: ("A", 2),
              1: ("B", 1), 2: ("B", 2), 3: ("B", 3), 6: ("B", None)}
    placed.update(marks or {})
    return MarkedTree(F5, ["A", "B"], [curve.node("A", f5(0), "B", f5(node_on_b))],
                      {lbl: (c, f5(v)) for lbl, (c, v) in placed.items()})


def assert_refused(t2):
    """The stable tree of ``two_line_tree()`` maps to an unmoved copy of
    itself, and neither search maps it to t2."""
    t1 = two_line_tree()
    assert t1.validate().ok
    assert curve.are_isomorphic(t1, two_line_tree()) is not None
    assert (len(t1.components), len(t1.nodes)) == (len(t2.components), len(t2.nodes))
    assert reference_isomorphism(t1, t2) is None
    assert curve.are_isomorphic(t1, t2) is None


def test_walk_refuses_a_node_moved_on_the_child_side():
    # every mark sits where the identity sends it, so only the node from
    # B's end, the edge back to B's parent, tells the trees apart
    moved = two_line_tree(node_on_b=4)
    assert moved.validate().ok
    assert_refused(moved)


def test_walk_refuses_a_root_whose_anchors_meet_nowhere():
    # with 5 on top of 4, no component is reached by 4, 5 and 1 through
    # three distinct points
    assert_refused(two_line_tree(marks={5: ("A", 1)}))


def test_walk_refuses_a_mark_at_the_wrong_point():
    # 6 stays on B, the image of its component, but at (4:1)
    assert_refused(two_line_tree(marks={6: ("B", 4)}))


UNSTABLE_PROBE = """
from ferns import curve
from ferns.curve import MarkedTree, ProjPoint
from ferns.gf import field_make
K = field_make(5)
pt = lambda v: ProjPoint.affine(K.from_int(v))
def tree(five):
    # B carries one mark and its node: two special points
    return MarkedTree(K, ["A", "B"], [curve.node("A", pt(0), "B", pt(0))],
                      {4: ("A", pt(1)), 5: ("A", pt(five)), 1: ("B", pt(1))})
try:
    curve.are_isomorphic(tree(2), tree(1))
except ValueError as exc:
    print(exc)
"""


def test_unstable_tree_raises_before_the_walk():
    # hash seeds 0 and 3 iterate {"A", "B"} in opposite orders; either way
    # the search refuses the unstable source before it can find that the
    # other tree does not match
    src = Path(__file__).resolve().parents[1] / "src"
    for hash_seed in ("0", "3"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
        run = subprocess.run([sys.executable, "-c", UNSTABLE_PROBE],
                             capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "tree is not stable\n"
