"""Exact arithmetic in small finite fields, with the F_q-linear combinatorics
built on top of them.

A field F_{q^m} with q = p^e is realized as F_p[x]/(f) for a canonical
irreducible f of degree e*m.  Every element is an immutable coefficient
tuple, so elements hash and compare exactly and are safe to share between
threads.  The field object also carries the embedded copy of F_q (the
subfield fixed by x -> x^q) together with integer-indexed scalar tables,
which is what the vector-space layer uses for coordinates.

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
from functools import lru_cache
from typing import Iterable, Optional, Sequence

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


def _poly_add(a, b, p):
    n = max(len(a), len(b))
    return _trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p
                  for i in range(n)])


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


def _poly_ext_inv(a, f, p):
    # inverse of a modulo f via extended Euclid
    r0, r1 = tuple(f), _trim(a)
    s0, s1 = (), (1,)
    while r1:
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_add(s0, _poly_mul((p - 1,), _poly_mul(q, s1, p), p), p)
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible")
    c = pow(r0[0], p - 2, p)
    return _poly_divmod(_poly_mul(s0, (c,), p), f, p)[1]


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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


# ---------------------------------------------------------------------------
# Lazy stand-ins for scalar tables (used when the subfield is large)
# ---------------------------------------------------------------------------

class _Lazy2D:
    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __getitem__(self, a):
        return _Lazy2DRow(self.fn, a)


class _Lazy2DRow:
    __slots__ = ("fn", "a")

    def __init__(self, fn, a):
        self.fn = fn
        self.a = a

    def __getitem__(self, b):
        return self.fn(self.a, b)


class _Lazy1D:
    __slots__ = ("fn", "size")

    def __init__(self, fn, size):
        self.fn = fn
        self.size = size

    def __getitem__(self, a):
        return self.fn(a)

    def __len__(self):
        return self.size

    def __iter__(self):
        return (self.fn(a) for a in range(self.size))


#: Largest subfield for which scalar tables are materialized eagerly.
_EAGER_TABLE_LIMIT = 512

#: Largest field whose element arithmetic runs on packed-int tables.
_ELEMENT_TABLE_LIMIT = 64


# ---------------------------------------------------------------------------
# Field elements and fields
# ---------------------------------------------------------------------------

class FieldElement:
    """An element of an :class:`ExtField`, stored as a residue mod the modulus.

    Small fields run their arithmetic on packed-int tables; larger ones
    fall back to polynomial arithmetic on the coefficient tuples.
    """

    __slots__ = ("field", "coeffs", "pk")

    def __init__(self, field: "ExtField", coeffs: Coeffs):
        self.field = field
        self.coeffs = coeffs
        self.pk = _pack(coeffs, field.p)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldElement) and self.field is other.field
                and self.pk == other.pk)

    def __hash__(self):
        return hash((id(self.field), self.pk))

    def __add__(self, other):
        self._check(other)
        f = self.field
        if f.add_tab is not None:
            return f.interned[f.add_tab[self.pk][other.pk]]
        return f.element(_poly_add(self.coeffs, other.coeffs, f.p))

    def __neg__(self):
        f = self.field
        if f.neg_tab is not None:
            return f.interned[f.neg_tab[self.pk]]
        p = f.p
        return f.element(tuple((p - c) % p for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        f = self.field
        if f.mul_tab is not None:
            return f.interned[f.mul_tab[self.pk][other.pk]]
        prod = _poly_mul(self.coeffs, other.coeffs, f.p)
        return f.element(_poly_divmod(prod, f.modulus, f.p)[1])

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, k: int):
        f = self.field
        if k < 0:
            return self.inverse() ** (-k)
        result, base = f.one, self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "FieldElement":
        if not self.pk:
            raise ZeroDivisionError("inverse of zero")
        f = self.field
        if f.inv_tab is not None:
            return f.interned[f.inv_tab[self.pk]]
        return f.element(_poly_ext_inv(self.coeffs, f.modulus, f.p))

    def packed(self) -> int:
        """Integer encoding sum(c_i * p^i); defines the canonical element order."""
        return self.pk

    def __repr__(self):
        return f"FieldElement({self.field.describe()}, {list(self.coeffs)})"

    def _check(self, other):
        if not isinstance(other, FieldElement) or other.field is not self.field:
            raise TypeError("field elements belong to different fields")


class ExtField:
    """The finite field F_{q^m} with q = p^e, as F_p[x]/(canonical modulus).

    Carries the canonical embedding of F_q: ``scalars[i]`` is the image of
    the i-th element of F_q (in packed order), and the s_* tables give F_q
    arithmetic on those integer indices.
    """

    def __init__(self, p: int, e: int, m: int):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if e < 1 or m < 1:
            raise ValueError("e and m must be >= 1")
        self.p, self.e, self.m = p, e, m
        self.q = p ** e
        self.order = self.q ** m
        self.degree = e * m
        self.modulus = canonical_modulus(p, self.degree)
        self.add_tab = self.mul_tab = self.neg_tab = self.inv_tab = None
        self.interned: Optional[tuple] = None
        self.zero = FieldElement(self, ())
        self.one = FieldElement(self, (1,))
        self._elements: Optional[tuple] = None
        if self.order <= _ELEMENT_TABLE_LIMIT:
            self._build_element_tables()
        self._init_scalars()

    def _build_element_tables(self):
        p, f = self.p, self.modulus
        coeff_of = [_trim(_unpack(k, self.degree, p)) for k in range(self.order)]
        self.interned = tuple(FieldElement(self, c) for c in coeff_of)

        def mul(a, b):
            return _pack(_poly_divmod(_poly_mul(a, b, p), f, p)[1], p)

        self.add_tab = [[_pack(_poly_add(a, b, p), p) for b in coeff_of]
                        for a in coeff_of]
        self.mul_tab = [[mul(a, b) for b in coeff_of] for a in coeff_of]
        self.neg_tab = [_pack(tuple((p - c) % p for c in a), p) for a in coeff_of]
        inv = [0] * self.order
        for a in range(1, self.order):
            inv[a] = next(b for b in range(1, self.order)
                          if self.mul_tab[a][b] == 1)
        self.inv_tab = inv

    # -- construction ------------------------------------------------------

    def element(self, coeffs: Iterable[int]) -> FieldElement:
        c = _trim([x % self.p for x in coeffs])
        if len(c) > self.degree:
            c = _poly_divmod(c, self.modulus, self.p)[1]
        if self.interned is not None:
            return self.interned[_pack(c, self.p)]
        return FieldElement(self, c)

    def from_int(self, k: int) -> FieldElement:
        if not 0 <= k < self.order:
            raise ValueError("packed value out of range")
        if self.interned is not None:
            return self.interned[k]
        return FieldElement(self, _trim(_unpack(k, self.degree, self.p)))

    def elements(self) -> tuple:
        if self._elements is None:
            if self.interned is not None:
                self._elements = self.interned
            else:
                self._elements = tuple(self.from_int(k)
                                       for k in range(self.order))
        return self._elements

    def frobenius(self, x: FieldElement) -> FieldElement:
        return x ** self.q

    def describe(self) -> str:
        return f"GF({self.p}^{self.e * self.m})" if self.m > 1 or self.e > 1 \
            else f"GF({self.p})"

    def __repr__(self):
        return f"ExtField(p={self.p}, e={self.e}, m={self.m})"

    # -- the embedded F_q ----------------------------------------------------

    def _init_scalars(self):
        p, e, q = self.p, self.e, self.q
        if e == 1:
            embed = lambda i: self.element((i,))
            sc_add = lambda a, b: (a + b) % p
            sc_mul = lambda a, b: (a * b) % p
            sc_neg = lambda a: (p - a) % p
            sc_inv = lambda a: pow(a, p - 2, p) if a else None
        else:
            # base field F_q on its own canonical modulus g, embedded via the
            # canonically smallest root of g inside this field
            base = self if self.m == 1 else _base_field(p, e)
            if self.m == 1:
                root = self.element((0, 1))  # g is this field's own modulus
            else:
                base_mod = base.modulus
                root = next(x for x in self.elements()
                            if not self._eval_base(base_mod, x))
            powers = [self.one]
            for _ in range(e - 1):
                powers.append(powers[-1] * root)

            def embed(k):
                acc = self.zero
                for d, w in zip(_unpack(k, e, p), powers):
                    if d:
                        acc = acc + self.element((d,)) * w
                return acc

            sc_add = lambda a, b: (base.from_int(a) + base.from_int(b)).packed()
            sc_mul = lambda a, b: (base.from_int(a) * base.from_int(b)).packed()
            sc_neg = lambda a: (-base.from_int(a)).packed()
            sc_inv = lambda a: base.from_int(a).inverse().packed() if a else None

        if q <= _EAGER_TABLE_LIMIT:
            self.scalars = tuple(embed(i) for i in range(q))
            self.s_add = [[sc_add(i, j) for j in range(q)] for i in range(q)]
            self.s_mul = [[sc_mul(i, j) for j in range(q)] for i in range(q)]
            self.s_neg = [sc_neg(i) for i in range(q)]
            self.s_inv = [sc_inv(i) for i in range(q)]
        else:
            self.scalars = _Lazy1D(embed, q)
            self.s_add = _Lazy2D(sc_add)
            self.s_mul = _Lazy2D(sc_mul)
            self.s_neg = _Lazy1D(sc_neg, q)
            self.s_inv = _Lazy1D(sc_inv, q)

    def _eval_base(self, poly: Coeffs, x: FieldElement) -> FieldElement:
        acc = self.zero
        for c in reversed(poly):
            acc = acc * x + self.element((c,))
        return acc

    def scalar(self, i: int) -> FieldElement:
        """The embedded image in F_{q^m} of the i-th element of F_q."""
        return self.scalars[i]


@lru_cache(maxsize=None)
def _base_field(p: int, e: int) -> "ExtField":
    return ExtField(p, e, 1)


@lru_cache(maxsize=None)
def field_make(p: int, e: int = 1, m: int = 1) -> ExtField:
    """Construct (and cache) the field F_{(p^e)^m} with its canonical modulus."""
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
    """A subspace of F_q^n in reduced echelon form (canonical, hashable)."""

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

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: Vec) -> Vec:
        """The canonical representative of v modulo this subspace."""
        f = self.space.field
        v = list(v)
        for row in self.rows:
            lead = next(j for j in range(len(row)) if row[j])
            c = v[lead]
            if c:
                for j in range(len(v)):
                    v[j] = f.s_add[v[j]][f.s_neg[f.s_mul[c][row[j]]]]
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

    @property
    def length(self) -> int:
        return len(self.steps) - 1

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


def flags(space: VSpace) -> list:
    """Every flag of F_q^n, i.e. every chain from the zero space to the whole."""
    lattice = all_subspaces(space)
    full = Subspace.full(space)
    out = []

    def grow(chain):
        top = chain[-1]
        if top == full:
            out.append(Flag(tuple(chain)))
            return
        for w in lattice:
            if w.dim > top.dim and w.contains_subspace(top):
                grow(chain + [w])

    grow([Subspace.zero(space)])
    return out


def complete_flags(space: VSpace) -> list:
    return [f for f in flags(space) if f.is_complete()]


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
        self._coords: dict = {}  # basis (None: canonical) -> {vector: coords}
        self._subquotients: dict = {}
        #: universal.compatibility_checker's checker for this space, once built
        self.checker = None

    @classmethod
    def full(cls, vs: VSpace) -> "LinSpace":
        return cls(vs, Subspace.full(vs), Subspace.zero(vs))

    def subquotient(self, sub: Subspace, mod: Optional[Subspace] = None) -> "LinSpace":
        """The subquotient sub/mod (default mod: this space's modulus), kept
        on this space so that its caches amortize across callers."""
        key = (sub, self.mod if mod is None else mod)
        out = self._subquotients.get(key)
        if out is None:
            out = self._subquotients[key] = LinSpace(self.vs, *key)
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

    def sub_vec(self, u: Vec, v: Vec) -> Vec:
        return self.reduce(self.vs.sub(u, v))

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
        memoized per space and basis."""
        key = None if basis is None else tuple(basis)
        memo = self._coords.get(key)
        if memo is None:
            memo = self._coords[key] = {}
        out = memo.get(v)
        if out is None:
            out = memo[v] = self._solve(
                self.reduce(v), self.basis() if basis is None else key)
        return out

    def _solve(self, v: Vec, basis: tuple) -> Vec:
        f, n = self.field, self.vs.n
        rows = [list(b) + [1 if i == j else 0 for j in range(len(basis))]
                for i, b in enumerate(basis)]
        rows += [list(r) + [0] * len(basis) for r in self.mod.rows]
        target = list(v)
        # eliminate: solve sum c_i basis_i = v modulo U
        pivots = []
        for row in rows:
            lead = next((j for j in range(n) if row[j]), None)
            if lead is None:
                continue
            inv = f.s_inv[row[lead]]
            row[:] = [f.s_mul[inv][c] for c in row]
            for other in rows:
                if other is not row and other[lead]:
                    c = other[lead]
                    for j in range(len(row)):
                        other[j] = f.s_add[other[j]][f.s_neg[f.s_mul[c][row[j]]]]
            pivots.append((lead, row))
        coeffs = [0] * len(basis)
        for lead, row in pivots:
            c = target[lead]
            if c:
                for j in range(len(basis)):
                    coeffs[j] = f.s_add[coeffs[j]][f.s_mul[c][row[n + j]]]
                for j in range(n):
                    target[j] = f.s_add[target[j]][f.s_neg[f.s_mul[c][row[j]]]]
        if any(target):
            raise ValueError("vector is not a member of the subquotient")
        return tuple(coeffs)

    def subspace_steps(self, d: int) -> list:
        """Ambient subspaces W with U <= W <= S and dim W/U = d."""
        quotient_subs = subspaces(VSpace(self.field, self.dim), d) if self.dim else []
        if d == 0:
            return [self.mod]
        out = []
        for qs in quotient_subs:
            lifted = [self.combine(row) for row in qs.rows]
            out.append(Subspace.from_vectors(self.vs, list(self.mod.rows) + lifted))
        return sorted(set(out), key=Subspace.key)

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
