"""Expected values computed apart from the ferns package.

Counts come from closed formulas evaluated with plain integers, vector
arithmetic over a prime field is done mod p on int tuples, and the
polynomial whose roots are the marked values is expanded here.  Field
elements are only added and multiplied through their own operators; no
ferns function that computes a checked quantity is called.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache


def gaussian_binomial(n: int, d: int, q: int) -> int:
    """Number of d-dimensional subspaces of F_q^n."""
    if d < 0 or d > n:
        return 0
    num = den = 1
    for i in range(d):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def omega(d: int, q: int, m: int) -> int:
    """prod_{i=1}^{d-1} (q^m - q^i): the stratum count of one step of
    dimension d, which is zero once F_q^d does not embed in F_{q^m}."""
    out = 1
    for i in range(1, d):
        out *= q ** m - q ** i
    return out


@lru_cache(maxsize=None)
def total_count(n: int, q: int, m: int) -> int:
    """T(n) = sum_d [n choose d]_q * omega(d) * T(n - d), T(0) = 1."""
    if n == 0:
        return 1
    return sum(gaussian_binomial(n, d, q) * omega(d, q, m)
               * total_count(n - d, q, m) for d in range(1, n + 1))


@lru_cache(maxsize=None)
def flag_count(n: int, q: int) -> int:
    """F(n) = sum_d [n choose d]_q * F(n - d), F(0) = 1: flags of F_q^n."""
    if n == 0:
        return 1
    return sum(gaussian_binomial(n, d, q) * flag_count(n - d, q)
               for d in range(1, n + 1))


def compositions(n: int):
    """Every ordered tuple of positive integers summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def chart_point_count(n: int, q: int, m: int) -> int:
    """Points of one complete-flag chart: the sum over compositions of n of
    the product of omega over the parts."""
    total = 0
    for parts in compositions(n):
        prod = 1
        for d in parts:
            prod *= omega(d, q, m)
        total += prod
    return total


def flag_key_dims(key: str) -> list:
    """Step dimensions read from a flag key: steps joined by '|', rows of a
    step joined by ';', the zero step written '0'."""
    return [0 if step == "0" else len(step.split(";"))
            for step in key.split("|")]


def row_count(key: str, q: int, m: int) -> int:
    dims = flag_key_dims(key)
    out = 1
    for lo, hi in zip(dims, dims[1:]):
        out *= omega(hi - lo, q, m)
    return out


def fiber_component_count(t_is_zero, n: int, q: int) -> int:
    """sum_k q^(n - i_k) over the stratum positions i_k: the 1-based
    indices of the zero coordinates of t, followed by n."""
    positions = [i + 1 for i, zero in enumerate(t_is_zero) if zero] + [n]
    return sum(q ** (n - i) for i in positions)


def last_zero_position(t_is_zero) -> int:
    """Dimension of the second-to-last stratum step (0 when t has no zero)."""
    return max((i + 1 for i, zero in enumerate(t_is_zero) if zero), default=0)


# -- vectors over a prime field ---------------------------------------------

def vec_add(u, v, p: int) -> tuple:
    return tuple((a + b) % p for a, b in zip(u, v))


def vec_scale(c: int, v, p: int) -> tuple:
    return tuple((c * a) % p for a in v)


def span(rows, n: int, p: int) -> set:
    """All F_p-combinations of the given rows."""
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        v = (0,) * n
        for c, row in zip(coeffs, rows):
            v = vec_add(v, vec_scale(c, row, p), p)
        out.add(v)
    return out


def additivity_failures(values: dict, p: int) -> int:
    """Pairs (u, v) of the domain with values[u + v] != values[u] + values[v]."""
    bad = 0
    for u in values:
        for v in values:
            if values[vec_add(u, v, p)] != values[u] + values[v]:
                bad += 1
    return bad


def reciprocal_failures(values: dict, fld, p: int) -> int:
    """Violations of the reciprocal axioms on the nonzero vectors:
    scaling r(c v) = c^-1 r(v), and addition r(v) r(w) = r(v+w) (r(v) + r(w))
    whenever v + w is nonzero."""
    bad = 0
    for v in values:
        for c in range(2, p):
            inv = fld.element([pow(c, p - 2, p)])
            if values[vec_scale(c, v, p)] != inv * values[v]:
                bad += 1
        for w in values:
            s = vec_add(v, w, p)
            if s in values and \
                    values[v] * values[w] != values[s] * (values[v] + values[w]):
                bad += 1
    return bad


# -- the additive polynomial -------------------------------------------------

def expand_roots(fld, roots) -> list:
    """Dense coefficients, constant term first, of prod (x - r)."""
    coeffs = [fld.one]
    for r in roots:
        shifted = [fld.zero] + coeffs
        for i in range(len(coeffs)):
            shifted[i] = shifted[i] - r * coeffs[i]
        coeffs = shifted
    return coeffs


def psi_failures(psi, lam: dict, fld, q: int, dim: int) -> list:
    """Checks on a Drinfeld polynomial against prod_v (x - lambda_v),
    normalised to x-coefficient one; returns the failed checks by name."""
    failed = []
    expo = 1
    qpowers = set()
    while expo <= q ** dim:
        qpowers.add(expo)
        expo *= q
    if psi.q != q or max(psi.coeffs) != q ** dim:
        failed.append("degree")
    if any(e not in qpowers for e in psi.coeffs):
        failed.append("exponents")
    if psi.coeffs.get(1) != fld.one:
        failed.append("x-coefficient")
    dense = expand_roots(fld, list(lam.values()))
    lead = dense[1].inverse()
    for e, c in enumerate(dense):
        if psi.coeffs.get(e, fld.zero) != c * lead:
            failed.append(f"coefficient {e}")
            break
    roots = set()
    for x in fld.elements():
        acc = fld.zero
        for e, c in psi.coeffs.items():
            power = fld.one
            for _ in range(e):
                power = power * x
            acc = acc + c * power
        if not acc:
            roots.add(x.coeffs)
    if roots != {x.coeffs for x in lam.values()}:
        failed.append("roots")
    return failed


GROUP_ELEMENT_VIOLATION = re.compile(
    r"^no marked isomorphism for \(v=\([0-9, ]*\), xi=[0-9]+\)$")


def names_group_element(violations) -> bool:
    return any(GROUP_ELEMENT_VIOLATION.match(v) for v in violations)
