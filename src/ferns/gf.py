"""Exact arithmetic in small finite fields, with the F_q-linear combinatorics
built on top of them.

A field F_{q^m} with q = p^e is realized as F_p[x]/(f) for a canonical
irreducible f of degree e*m.  Every element is an immutable, interned
coefficient tuple, so elements hash and compare exactly and are safe to
share between threads.  There is one arithmetic path for every field:
log/antilog tables over a primitive element, with Zech logarithms for
addition, built once per field in O(order) time and memory.  Fields whose
order or q^2 exceeds ``_TABLE_LIMIT`` (2^16) are rejected with ValueError.
The field object also carries the embedded copy of F_q (the subfield fixed
by x -> x^q) together with integer-indexed scalar tables, which is what the
vector-space layer uses for coordinates.

On top of the scalars this module provides:

* ``VSpace``      the coordinate space F_q^n (vectors are int tuples),
* ``Subspace``    subspaces in reduced row-echelon form (canonical),
* ``Flag``        strictly increasing chains of subspaces,
* ``LinSpace``    a subquotient S/U of F_q^n with canonical coset
                  representatives (needed for contracting and grafting),
* ``GroupElement``  the group V x| F_q^* acting on V u {inf}.

Everything is deterministic: canonical moduli, canonical echelon bases and
lexicographic enumeration orders make serialized output reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Optional, Sequence

#: Marker for the extra point at infinity in marked sets V u {inf}.
INF = "inf"

Coeffs = tuple  # little-endian coefficient tuple over F_p
Vec = tuple  # coordinate tuple over F_q (ints in range(q))


# ---------------------------------------------------------------------------
# Polynomial helpers over F_p.  Polynomials are little-endian int tuples.
# ---------------------------------------------------------------------------

def _trim(c: Sequence[int]) -> Coeffs:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    inv_lead = pow(b[-1], p - 2, p)
    db, q = len(b) - 1, [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + db] * inv_lead) % p
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] = (a[i + j] - c * bj) % p
    return _trim(q), _trim(a)


def is_irreducible(f: Sequence[int], p: int) -> bool:
    """Trial-division irreducibility test for a monic polynomial over F_p."""
    f = _trim(f)
    d = len(f) - 1
    if d <= 0:
        return False
    if d == 1:
        return True
    if f[0] == 0:
        return False
    for deg in range(1, d // 2 + 1):
        for packed in range(p ** deg):
            g = _unpack(packed, deg, p) + (1,)
            if not _poly_divmod(f, g, p)[1]:
                return False
    return True


def _unpack(k: int, width: int, p: int) -> Coeffs:
    digits = []
    for _ in range(width):
        digits.append(k % p)
        k //= p
    return tuple(digits)


def _pack(coeffs: Sequence[int], p: int) -> int:
    k = 0
    for c in reversed(coeffs):
        k = k * p + c
    return k


def canonical_modulus(p: int, d: int) -> Coeffs:
    """The canonical monic irreducible of degree d over F_p.

    Candidates x^d + c_{d-1} x^{d-1} + ... + c_0 are scanned in increasing
    order of the packed integer sum(c_i * p^i); the first irreducible wins.
    """
    for packed in range(p ** d):
        f = _unpack(packed, d, p) + (1,)
        if is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found (internal bug)")


def _prime_factors(n: int) -> list:
    """The distinct prime factors of n >= 1, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def _power_walk(p: int, modulus: Coeffs, gen: Coeffs, units: int) -> list:
    """The packed values of gen^i for i < units, one multiplication by gen
    per step: Horner's rule over gen's coefficients, where multiplying by
    x shifts the coefficients up and folds the one leaving the top back in
    through the monic modulus."""
    d = len(modulus) - 1
    fold = [-c % p for c in modulus[:d]]  # x^d as a residue
    lead, rest = gen[-1], gen[-2::-1]
    out, x = [], [1] + [0] * (d - 1)
    for _ in range(units):
        out.append(_pack(x, p))
        y = [lead * b % p for b in x]
        for c in rest:
            t = y[-1]
            y = [(a + t * f + c * b) % p
                 for a, f, b in zip([0] + y[:-1], fold, x)]
        x = y
    return out


#: Bound on every table a field builds: the field order (log, antilog and
#: Zech tables, interned elements) and q^2 (the F_q scalar tables).
_TABLE_LIMIT = 2 ** 16


# ---------------------------------------------------------------------------
# Field elements and fields
# ---------------------------------------------------------------------------

class FieldElement:
    """An element of an :class:`ExtField`, stored as a residue mod the modulus.

    Elements are interned: the field holds exactly one object per packed
    value ``pk``, so equality and hashing are by identity.  Each nonzero
    element carries its discrete log ``lg`` (None for zero), and all
    arithmetic is lookup in the field's ``exp`` and ``zech`` tables: O(1)
    in every field up to order ``_TABLE_LIMIT``.
    """

    __slots__ = ("field", "coeffs", "pk", "lg")

    def __init__(self, field: "ExtField", coeffs: Coeffs, pk: int):
        self.field = field
        self.coeffs = coeffs
        self.pk = pk
        self.lg = None

    def __bool__(self) -> bool:
        return bool(self.pk)

    def __add__(self, other):
        # a + b = a * (1 + b/a) = g^(log a + Z(log b - log a))
        self._check(other)
        if not self.pk:
            return other
        if not other.pk:
            return self
        f = self.field
        z = f.zech[other.lg - self.lg]
        return f.zero if z is None else f.exp[self.lg + z]

    def __neg__(self):
        f = self.field
        return f.exp[self.lg + f.log_neg_one] if self.pk else self

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        f = self.field
        if self.pk and other.pk:
            return f.exp[self.lg + other.lg]
        return f.zero

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, k: int):
        f = self.field
        if self.pk:
            return f.exp[self.lg * k % f.units]
        if k < 0:
            raise ZeroDivisionError("inverse of zero")
        return f.one if k == 0 else self

    def inverse(self) -> "FieldElement":
        if not self.pk:
            raise ZeroDivisionError("inverse of zero")
        f = self.field
        return f.exp[f.units - self.lg]

    def __repr__(self):
        return f"FieldElement({self.field.describe()}, {list(self.coeffs)})"

    def _check(self, other):
        if not isinstance(other, FieldElement) or other.field is not self.field:
            raise TypeError("field elements belong to different fields")


class ExtField:
    """The finite field F_{q^m} with q = p^e, as F_p[x]/(canonical modulus).

    Built once, at construction, from the smallest primitive element g
    (tested against the prime factors of units = order - 1): the interned
    elements in packed order, each with its log ``lg``; ``exp``, g^i for
    i < 2 * units, so a sum of two logs needs no reduction; and ``zech``,
    i -> log(1 + g^i) or None where 1 + g^i = 0, whose negative indices
    wrap as exponents live mod units.  Fields whose order or q^2 exceeds
    ``_TABLE_LIMIT`` are rejected with ValueError.

    Carries the canonical embedding of F_q: ``scalars[i]`` is the image of
    the i-th element of F_q (in packed order), and the s_* tables give F_q
    arithmetic on those integer indices.
    """

    def __init__(self, p: int, e: int, m: int):
        if e < 1 or m < 1:
            raise ValueError("e and m must be >= 1")
        # e * m at or past the limit's bit length already means order > limit
        if p >= 2 and (e * m >= _TABLE_LIMIT.bit_length()
                       or max(p ** (e * m), p ** (2 * e)) > _TABLE_LIMIT):
            raise ValueError(
                f"GF({p}^{e * m}) with q = {p}^{e} is larger than the table "
                f"limit: the order and q^2 must be at most {_TABLE_LIMIT}")
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        self.p, self.e, self.m = p, e, m
        self.q = p ** e
        self.order = self.q ** m
        self.units = self.order - 1
        self.degree = e * m
        self.modulus = canonical_modulus(p, self.degree)
        self.interned = tuple(
            FieldElement(self, _trim(c[::-1]), k)
            for k, c in enumerate(itertools.product(range(p), repeat=self.degree)))
        self.zero, self.one = self.interned[0], self.interned[1]
        self._build_tables()
        self._init_scalars()

    def _build_tables(self):
        p, f, units = self.p, self.modulus, self.units

        def mulmod(a, b):
            return _poly_divmod(_poly_mul(a, b, p), f, p)[1]

        def power(a, k):
            out = (1,)
            while k:
                if k & 1:
                    out = mulmod(out, a)
                a, k = mulmod(a, a), k >> 1
            return out

        factors = _prime_factors(units)
        gen = next(x.coeffs for x in self.interned[1:]
                   if all(power(x.coeffs, units // r) != (1,) for r in factors))
        els = self.interned
        exp = [els[k] for k in _power_walk(p, f, gen, units)]
        for i, el in enumerate(exp):
            el.lg = i
        self.exp = exp * 2
        self.log_neg_one = els[p - 1].lg
        # 1 + g^i differs from g^i only in the constant digit; zero has lg None
        self.zech = [els[k - k % p + (k + 1) % p].lg
                     for k in (el.pk for el in exp)]

    # -- construction ------------------------------------------------------

    def element(self, coeffs: Iterable[int]) -> FieldElement:
        c = _trim([x % self.p for x in coeffs])
        if len(c) > self.degree:
            c = _poly_divmod(c, self.modulus, self.p)[1]
        return self.interned[_pack(c, self.p)]

    def from_int(self, k: int) -> FieldElement:
        if not 0 <= k < self.order:
            raise ValueError("packed value out of range")
        return self.interned[k]

    def elements(self) -> tuple:
        return self.interned

    def frobenius(self, x: FieldElement) -> FieldElement:
        return x ** self.q

    def describe(self) -> str:
        return f"GF({self.p}^{self.e * self.m})" if self.m > 1 or self.e > 1 \
            else f"GF({self.p})"

    def __repr__(self):
        return f"ExtField(p={self.p}, e={self.e}, m={self.m})"

    # -- the embedded F_q ----------------------------------------------------

    def _init_scalars(self):
        if self.m == 1:
            base = self
            self.scalars = self.interned
        else:
            # base field F_q on its own canonical modulus g, embedded via the
            # canonically smallest root of g inside this field (0 when e = 1)
            base = field_make(self.p, self.e)
            root = next(x for x in self.interned
                        if not self._eval_base(base.modulus, x))
            self.scalars = tuple(self._eval_base(b.coeffs, root)
                                 for b in base.interned)
        els = base.interned
        self.s_add = [[(a + b).pk for b in els] for a in els]
        self.s_mul = [[(a * b).pk for b in els] for a in els]
        self.s_neg = [(-a).pk for a in els]
        self.s_inv = [a.inverse().pk if a else None for a in els]

    def _eval_base(self, poly: Coeffs, x: FieldElement) -> FieldElement:
        acc = self.zero
        for c in reversed(poly):
            acc = acc * x + self.element((c,))
        return acc

    def scalar(self, i: int) -> FieldElement:
        """The embedded image in F_{q^m} of the i-th element of F_q."""
        return self.scalars[i]

    def combine(self, coeffs: Sequence[int],
                values: Sequence[FieldElement]) -> FieldElement:
        """The F_q-linear combination sum scalar(c) * x of ``values`` with
        the scalar indices ``coeffs``; the counterpart of
        :meth:`LinSpace.combine` for values in this field."""
        total = self.zero
        for c, x in zip(coeffs, values):
            if c:
                total = total + self.scalars[c] * x
        return total


@lru_cache(maxsize=None)
def field_make(p: int, e: int = 1, m: int = 1) -> ExtField:
    """Construct (and cache) the field F_{(p^e)^m} with its canonical modulus.

    The cache must stay unbounded.  Elements are interned per field object,
    and fields are compared by identity (``FieldElement._check``,
    ``VSpace.__eq__``, ``MarkedTree.__eq__`` and ``curve.are_isomorphic``),
    so a bounded cache that evicted a field and built it again would leave
    old and new elements of the same GF(p^k) unable to mix.
    """
    return ExtField(p, e, m)


# ---------------------------------------------------------------------------
# The coordinate space V = F_q^n
# ---------------------------------------------------------------------------

class VSpace:
    """The space F_q^n of coordinate tuples over the scalars of ``field``.

    ``field`` is the value field F_{q^m}; vectors only use its embedded F_q,
    through the integer-indexed scalar tables.
    """

    def __init__(self, field: ExtField, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.field = field
        self.n = n
        self.q = field.q
        self.zero: Vec = (0,) * n
        self._vectors: Optional[tuple] = None

    def __eq__(self, other):
        return (isinstance(other, VSpace) and other.field is self.field
                and other.n == self.n)

    def __hash__(self):
        return hash((id(self.field), self.n))

    def __repr__(self):
        return f"VSpace({self.field.describe()}^... n={self.n}, q={self.q})"

    def vectors(self) -> tuple:
        if self._vectors is None:
            self._vectors = tuple(itertools.product(range(self.q), repeat=self.n))
        return self._vectors

    def basis_vector(self, i: int) -> Vec:
        """The i-th standard basis vector, 1-based."""
        return tuple(1 if j == i - 1 else 0 for j in range(self.n))

    def add(self, u: Vec, v: Vec) -> Vec:
        s = self.field.s_add
        return tuple(s[a][b] for a, b in zip(u, v))

    def neg(self, v: Vec) -> Vec:
        s = self.field.s_neg
        return tuple(s[a] for a in v)

    def sub(self, u: Vec, v: Vec) -> Vec:
        return self.add(u, self.neg(v))

    def scale(self, c: int, v: Vec) -> Vec:
        s = self.field.s_mul
        return tuple(s[c][a] for a in v)


# ---------------------------------------------------------------------------
# Subspaces, flags and their enumeration
# ---------------------------------------------------------------------------

def _rref(space: VSpace, rows: Iterable[Vec]) -> tuple:
    """Reduced row-echelon form over F_q; returns the canonical basis tuple."""
    f = space.field
    work = [list(r) for r in rows]
    n, out, col = space.n, [], 0
    while work and col < n:
        pivot = next((r for r in work if r[col] != 0), None)
        if pivot is None:
            col += 1
            continue
        work.remove(pivot)
        inv = f.s_inv[pivot[col]]
        pivot = [f.s_mul[inv][c] for c in pivot]
        for r in out + work:
            c = r[col]
            if c:
                for j in range(n):
                    r[j] = f.s_add[r[j]][f.s_neg[f.s_mul[c][pivot[j]]]]
        out.append(pivot)
        work = [r for r in work if any(r)]
        col += 1
    out.sort(key=lambda r: next(j for j in range(n) if r[j]))
    return tuple(tuple(r) for r in out)


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_q^n in reduced echelon form (canonical, hashable).

    The hash reads ``rows`` alone; equality also compares the space.
    """

    space: VSpace
    rows: tuple

    @classmethod
    def from_vectors(cls, space: VSpace, vecs: Iterable[Vec]) -> "Subspace":
        return cls(space, _rref(space, vecs))

    @classmethod
    def zero(cls, space: VSpace) -> "Subspace":
        return cls(space, ())

    @classmethod
    def full(cls, space: VSpace) -> "Subspace":
        return cls(space, tuple(space.basis_vector(i + 1) for i in range(space.n)))

    def __hash__(self):
        return hash(self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def pivots(self) -> tuple:
        """The pivot column of each echelon row."""
        return tuple(next(j for j, c in enumerate(row) if c) for row in self.rows)

    def reduce(self, v: Vec) -> Vec:
        """The canonical representative of v modulo this subspace."""
        f = self.space.field
        add, mul, neg = f.s_add, f.s_mul, f.s_neg
        for lead, row in zip(self.pivots, self.rows):
            c = v[lead]
            if c:  # v - c * row, with the pivot entry of row one
                scaled = mul[neg[c]]
                v = [add[a][scaled[b]] for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, v: Vec) -> bool:
        return not any(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def elements(self) -> list:
        """All member vectors, in a deterministic order."""
        sp, out = self.space, []
        for coeffs in itertools.product(range(sp.q), repeat=self.dim):
            v = sp.zero
            for c, row in zip(coeffs, self.rows):
                v = sp.add(v, sp.scale(c, row))
            out.append(v)
        return sorted(out)

    def intersect(self, other: "Subspace") -> "Subspace":
        small, big = (self, other) if self.dim <= other.dim else (other, self)
        vecs = [v for v in small.elements() if big.contains(v)]
        return Subspace.from_vectors(self.space, vecs)

    def add_subspace(self, other: "Subspace") -> "Subspace":
        return Subspace.from_vectors(self.space, self.rows + other.rows)

    def key(self) -> str:
        """Canonical string key (used for serialization and sorting)."""
        return self._key

    @cached_property
    def _key(self) -> str:
        """The key string, built once per subspace like its pivots."""
        return ";".join(",".join(str(c) for c in row) for row in self.rows)

    def __repr__(self):
        return f"Subspace<{self.key() or '0'}>"


def gaussian_binomial(n: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of F_q^n, computed exactly."""
    if d < 0 or d > n:
        return 0
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise AssertionError(f"Gaussian binomial [{n} choose {d}]_{q} is not integral")
    return num // den


def subspaces(space: VSpace, d: int) -> list:
    """All d-dimensional subspaces, each in canonical echelon form.

    Enumerates echelon bases directly: one matrix per choice of pivot
    columns and free entries, so no duplicates arise.
    """
    n, q = space.n, space.q
    if d < 0 or d > n:
        raise ValueError("dimension out of range")
    if d == 0:
        return [Subspace.zero(space)]
    out = []
    for pivots in itertools.combinations(range(n), d):
        free = [(r, c) for r in range(d) for c in range(n)
                if c > pivots[r] and c not in pivots]
        for values in itertools.product(range(q), repeat=len(free)):
            rows = [[0] * n for _ in range(d)]
            for r, pc in enumerate(pivots):
                rows[r][pc] = 1
            for (r, c), val in zip(free, values):
                rows[r][c] = val
            out.append(Subspace(space, tuple(tuple(r) for r in rows)))
    return out


def all_subspaces(space: VSpace) -> list:
    return [w for d in range(space.n + 1) for w in subspaces(space, d)]


@dataclass(frozen=True)
class Flag:
    """A strictly increasing chain of subspaces V_0 < V_1 < ... < V_m."""

    steps: tuple

    def __post_init__(self):
        for a, b in zip(self.steps, self.steps[1:]):
            if not (b.contains_subspace(a) and a.dim < b.dim):
                raise ValueError("flag steps must strictly increase")

    def is_complete(self) -> bool:
        return all(b.dim == a.dim + 1 for a, b in zip(self.steps, self.steps[1:]))

    def intersect(self, w: Subspace) -> "Flag":
        """The flag of w cut out by this flag: steps V_i n w, deduplicated."""
        seen, steps = set(), []
        for s in self.steps:
            cut = s.intersect(w)
            if cut not in seen:
                seen.add(cut)
                steps.append(cut)
        return Flag(tuple(steps))

    def key(self) -> str:
        return "|".join(s.key() or "0" for s in self.steps)

    def __repr__(self):
        return f"Flag[{' < '.join(str(s.dim) for s in self.steps)}]"


def _chains(space: VSpace, max_step: int) -> Iterator[Flag]:
    """The flags of F_q^n whose steps each grow the dimension by at most
    ``max_step``, one at a time, in depth-first order over the lattice.

    The containment table is built once per call and lives as long as the
    generator: for every subspace w of the lattice (``all_subspaces``
    order, which is by dimension), the subspaces u of dimension
    ``w.dim + 1`` to ``w.dim + max_step``, in that order, that contain it.
    u contains w when every echelon row of w is a member of u, read from
    a member set made once per subspace for this call.  The search
    extends a chain from the zero space by each entry of its top's row in
    turn and yields it on reaching the whole space.
    """
    lattice = all_subspaces(space)
    members = [frozenset(u.elements()) for u in lattice]
    start = [0] * (space.n + 2)  # start[d]: first index of dimension >= d
    for d in range(space.n + 1):
        start[d + 1] = start[d] + gaussian_binomial(space.n, d, space.q)
    above = []
    for w in lattice:
        top = min(w.dim + max_step, space.n)
        above.append([j for j in range(start[w.dim + 1], start[top + 1])
                      if all(r in members[j] for r in w.rows)])
    full = len(lattice) - 1  # the only subspace of dimension n comes last
    stack = [[0]]
    while stack:
        chain = stack.pop()
        top = chain[-1]
        if top == full:
            yield Flag(tuple(lattice[i] for i in chain))
        else:
            stack.extend(chain + [j] for j in reversed(above[top]))


def iter_flags(space: VSpace) -> Iterator[Flag]:
    """The flags of :func:`flags`, one at a time."""
    return _chains(space, space.n)


def flags(space: VSpace) -> list:
    """Every flag of F_q^n, i.e. every chain from the zero space to the whole.

    A depth-first search over a containment table built once per call (see
    :func:`_chains`): each subspace lists, in lattice order, the larger
    subspaces that contain it, and each chain is extended by the entries
    of its top in turn.  The flags come out in that order.
    """
    return list(iter_flags(space))


def complete_flags(space: VSpace) -> list:
    """The complete flags of F_q^n, in the order :func:`flags` lists them:
    the same search over the subspaces one dimension up."""
    return list(_chains(space, 1))


def adapted_basis(flag: Flag) -> tuple:
    """An ordered basis (b_1..b_n) with V_i = span(b_1..b_i), for a complete flag.

    Deterministic: b_i is the first echelon row of V_i outside V_{i-1}.
    """
    if not flag.is_complete():
        raise ValueError("adapted basis requires a complete flag")
    basis = []
    for prev, step in zip(flag.steps, flag.steps[1:]):
        basis.append(next(r for r in step.rows if not prev.contains(r)))
    return tuple(basis)


# ---------------------------------------------------------------------------
# Subquotients S/U with canonical representatives
# ---------------------------------------------------------------------------

class LinSpace:
    """A subquotient S/U of F_q^n, with vectors the canonical coset reps.

    The canonical representative of s + U is ``U.reduce(s)``; all vector
    operations reduce their result, so the reps form an F_q-space of
    dimension dim S - dim U.  Full spaces are LinSpace(V, 0).
    """

    def __init__(self, vs: VSpace, sub: Subspace, mod: Subspace):
        if not sub.contains_subspace(mod):
            raise ValueError("modulus subspace must sit inside the subspace")
        self.vs = vs
        self.field = vs.field
        self.q = vs.q
        self.sub = sub
        self.mod = mod
        self.dim = sub.dim - mod.dim
        self.zero = mod.reduce(vs.zero)
        self._vectors: Optional[tuple] = None
        self._basis: Optional[tuple] = None
        # basis (None: canonical) -> (its echelon form, {vector: coords})
        self._coords: dict = {}
        self._subquotients: dict = {}
        self._steps: dict = {}  # d -> subspace_steps(d)

    @classmethod
    def full(cls, vs: VSpace) -> "LinSpace":
        return cls(vs, Subspace.full(vs), Subspace.zero(vs))

    def subquotient(self, sub: Subspace) -> "LinSpace":
        """The subquotient sub/U over this space's modulus U, kept on this
        space so that its caches amortize across callers."""
        out = self._subquotients.get(sub)
        if out is None:
            out = self._subquotients[sub] = LinSpace(self.vs, sub, self.mod)
        return out

    def __eq__(self, other):
        return (isinstance(other, LinSpace) and other.vs == self.vs
                and other.sub == self.sub and other.mod == self.mod)

    def __hash__(self):
        return hash((self.vs, self.sub, self.mod))

    def __repr__(self):
        return f"LinSpace(dim={self.dim}, q={self.q})"

    def reduce(self, v: Vec) -> Vec:
        return self.mod.reduce(v)

    def vectors(self) -> tuple:
        if self._vectors is None:
            reps = {self.reduce(v) for v in self.sub.elements()}
            self._vectors = tuple(sorted(reps))
        return self._vectors

    def basis(self) -> tuple:
        """Canonical ordered basis of the subquotient (as reduced reps).

        Echelon rows of the subspace, in pivot order, skipping rows that
        fall into the modulus; for a full space this is the standard basis.
        """
        if self._basis is None:
            span = self.mod
            basis = []
            for row in self.sub.rows:
                if not span.contains(row):
                    basis.append(self.reduce(row))
                    span = span.add_subspace(Subspace.from_vectors(self.vs, [row]))
            if len(basis) != self.dim:
                raise AssertionError("subquotient basis size differs from the dimension")
            self._basis = tuple(basis)
        return self._basis

    def add(self, u: Vec, v: Vec) -> Vec:
        return self.reduce(self.vs.add(u, v))

    def neg(self, v: Vec) -> Vec:
        return self.reduce(self.vs.neg(v))

    def scale(self, c: int, v: Vec) -> Vec:
        return self.reduce(self.vs.scale(c, v))

    def combine(self, coeffs: Sequence[int],
                basis: Optional[Sequence[Vec]] = None) -> Vec:
        """The rep with the given coordinates in ``basis`` (default the
        canonical one)."""
        v = self.vs.zero
        for c, b in zip(coeffs, self.basis() if basis is None else basis):
            v = self.vs.add(v, self.vs.scale(c, b))
        return self.reduce(v)

    def coords(self, v: Vec, basis: Optional[Sequence[Vec]] = None) -> Vec:
        """Coordinates of v in ``basis`` (default the canonical one),
        memoized per space and basis; ValueError if v is not a member.

        The rows (b_i | e_i) and (u | 0), u over the modulus, are brought
        to echelon form once per basis.  Reducing (v | 0) by it leaves
        (0 | -coordinates) for a member and a nonzero left part otherwise.
        """
        key = None if basis is None else tuple(basis)
        found = self._coords.get(key)
        if found is None:
            basis = self.basis() if key is None else key
            k = len(basis)
            rows = [tuple(b) + tuple(int(i == j) for j in range(k))
                    for i, b in enumerate(basis)]
            rows += [r + (0,) * k for r in self.mod.rows]
            echelon = Subspace.from_vectors(VSpace(self.field, self.vs.n + k),
                                            rows)
            found = self._coords[key] = (echelon, {})
        echelon, memo = found
        out = memo.get(v)
        if out is None:
            n, neg = self.vs.n, self.field.s_neg
            rest = echelon.reduce(tuple(v) + (0,) * (echelon.space.n - n))
            if any(rest[:n]):
                raise ValueError("vector is not a member of the subquotient")
            out = memo[v] = tuple(neg[c] for c in rest[n:])
        return out

    def subspace_steps(self, d: int) -> list:
        """Ambient subspaces W with U <= W <= S and dim W/U = d, sorted by
        key; built once per d and kept on this space, returned as a new
        list."""
        out = self._steps.get(d)
        if out is None:
            if not 0 <= d <= self.dim:
                raise ValueError("dimension out of range")
            if d == 0:
                out = (self.mod,)
            else:
                lifted = (
                    Subspace.from_vectors(
                        self.vs, list(self.mod.rows)
                        + [self.combine(row) for row in qs.rows])
                    for qs in subspaces(VSpace(self.field, self.dim), d))
                out = tuple(sorted(set(lifted), key=Subspace.key))
            self._steps[d] = out
        return list(out)

    def proper_steps(self) -> list:
        """All W with U < W < S (candidates for contraction and grafting)."""
        return [w for d in range(1, self.dim) for w in self.subspace_steps(d)]


# ---------------------------------------------------------------------------
# The group G = V x| F_q^*
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupElement:
    """(v, xi) in V x| F_q^*, with xi a nonzero scalar index."""

    space: LinSpace
    v: Vec
    xi: int

    def __post_init__(self):
        if self.xi == 0:
            raise ValueError("xi must be a nonzero scalar")

    @classmethod
    def identity(cls, space: LinSpace) -> "GroupElement":
        return cls(space, space.zero, 1)


def group_mul(a: GroupElement, b: GroupElement) -> GroupElement:
    sp, f = a.space, a.space.field
    return GroupElement(sp, sp.add(sp.scale(a.xi, b.v), a.v), f.s_mul[a.xi][b.xi])


def group_inv(a: GroupElement) -> GroupElement:
    sp, f = a.space, a.space.field
    xi_inv = f.s_inv[a.xi]
    return GroupElement(sp, sp.neg(sp.scale(xi_inv, a.v)), xi_inv)


def group_act(a: GroupElement, w):
    """The left action on V u {inf}: (v, xi).w = xi*w + v, with inf fixed."""
    if w == INF:
        return INF
    sp = a.space
    return sp.add(sp.scale(a.xi, w), a.v)


def group_elements(space: LinSpace) -> list:
    return [GroupElement(space, v, xi)
            for v in space.vectors() for xi in range(1, space.q)]
