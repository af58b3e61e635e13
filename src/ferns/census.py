"""Exact point counts of the period domain, its strata, and the
compactification, each with an independent brute-force oracle.

The stratum-sum count multiplies, over the steps of every flag, the number
of injective-linear classes on the successive subquotients.  The oracle
counts raw functional tuples that meet the compatibility condition: a
depth-first search fixes the functionals from the largest subspace down
and drops a partial tuple at the first nested pair it fails.  So the two
computations share nothing but the field tables.
"""

from __future__ import annotations

import csv
import dataclasses
import io
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .gf import (ExtField, LinSpace, VSpace, field_make, gaussian_binomial,
                 iter_flags)
from .universal import compatibility_checker, functional_candidates


#: The default bound on the oracle's tuple space (``ferns census --budget``).
BUDGET = 10 ** 6


class BudgetExceeded(RuntimeError):
    """The brute-force tuple space is larger than the configured budget;
    ``size`` is a lower bound on its size."""

    def __init__(self, size: int, budget: int):
        self.size, self.budget = size, budget
        super().__init__(f"enumeration size at least {size} exceeds budget {budget}")


def omega_count(n: int, q: int, m: int) -> int:
    """Injective F_q-linear maps from an n-space into F_{q^m}, up to scalar.

    prod over i < n of (q^m - q^i), divided by (q^m - 1); zero as soon as
    the field is too small to embed the space.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = 1
    for i in range(n):
        count = q ** m - q ** i
        if count <= 0:
            return 0
        total *= count
    if total % (q ** m - 1):
        raise AssertionError("injective maps do not split into scalar classes")
    return total // (q ** m - 1)


def omega_count_bruteforce(field: ExtField, n: int) -> int:
    """Oracle: enumerate basis images with linear-independence pruning."""
    q = field.q
    elements = field.elements()

    def extend(span: set, depth: int) -> int:
        if depth == n - 1:
            # leaves: any image outside the current span works
            return field.order - len(span)
        total = 0
        for x in elements:
            if x.coeffs in span:
                continue
            new_span = {(field.scalar(c) * x + field.element(s)).coeffs
                        for c in range(q) for s in span}
            total += extend(new_span, depth + 1)
        return total

    injective = extend({()}, 0)
    if injective % (field.order - 1):
        raise AssertionError("enumerated maps do not split into scalar classes")
    return injective // (field.order - 1)


@dataclass(frozen=True)
class CountReport:
    """Stratum-by-stratum census of the compactified domain."""

    n: int
    q: int
    m: int
    strata: Tuple[Tuple[str, int], ...]  # (flag key, stratum count)
    total: int
    oracle_total: Optional[int]

    @property
    def agreement(self) -> Optional[bool]:
        return None if self.oracle_total is None else self.total == self.oracle_total

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "q", "m", "flag", "stratum_count"])
        for key, count in self.strata:
            writer.writerow([self.n, self.q, self.m, key, count])
        writer.writerow([self.n, self.q, self.m, "TOTAL", self.total])
        if self.oracle_total is not None:
            writer.writerow([self.n, self.q, self.m, "ORACLE", self.oracle_total])
        return buf.getvalue()


def _field_for(q: int, m: int) -> ExtField:
    p, e = _prime_power(q)
    return field_make(p, e, m)


def _prime_power(q: int) -> Tuple[int, int]:
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            while q % p == 0 and q > 1:
                q //= p
                e += 1
            if q != 1:
                raise ValueError("q is not a prime power")
            return p, e
    raise ValueError("q must be at least 2")


def bv_count_strata(n: int, q: int, m: int) -> CountReport:
    """Stratum sum: over every flag, the product of subquotient counts."""
    fld = _field_for(q, m)
    space = VSpace(fld, n)
    omega = [None] + [omega_count(d, q, m) for d in range(1, n + 1)]
    strata = []
    for flag in iter_flags(space):
        count = 1
        for lo, hi in zip(flag.steps, flag.steps[1:]):
            count *= omega[hi.dim - lo.dim]
        strata.append((flag.key(), count))
    strata.sort()  # by key: keys are distinct
    return CountReport(n, q, m, tuple(strata), sum(c for _, c in strata), None)


def _check_budget(n: int, q: int, m: int, budget: int) -> None:
    """Raise BudgetExceeded unless the oracle's tuple space fits the budget.

    The oracle picks one of the (Q^d - 1)/(Q - 1) canonically scaled
    functionals, Q = q^m, on each of the [n choose d]_q subspaces of
    dimension d.  The product is not multiplied out past the budget.
    """
    order = _field_for(q, m).order
    size = 1
    for d in range(1, n + 1):
        classes = (order ** d - 1) // (order - 1)
        # classes^k >= 2^k, so an exponent beyond the budget's bit length
        # exceeds it on its own
        size *= classes ** min(gaussian_binomial(n, d, q), budget.bit_length())
        if size > budget:
            raise BudgetExceeded(size, budget)


def bv_count_bruteforce(n: int, q: int, m: int, budget: int = BUDGET) -> int:
    """Oracle: count the compatible functional tuples by a depth-first
    search that fixes one subspace's functional at a time, the largest
    subspace first (``checker.subs`` reversed).

    Fixing w checks the plane pairs whose small side is w, the only pairs
    whose other side is already fixed.  A candidate that fails one is
    dropped with every tuple below it, and each compatible tuple is
    reached as one leaf.  ``budget`` bounds the whole tuple space, as
    :func:`_check_budget` measures it.
    """
    _check_budget(n, q, m, budget)
    space = LinSpace.full(VSpace(_field_for(q, m), n))
    checker = compatibility_checker(space)
    order = checker.subs[::-1]
    candidates = [functional_candidates(space, w) for w in order]
    checks = [[pair for pair in checker.plane_pairs if pair[0] == w]
              for w in order]
    functionals = {}

    def count(k: int) -> int:
        if k == len(order):
            return 1
        total = 0
        for values in candidates[k]:
            functionals[order[k]] = values
            if not checks[k] or checker.bv_ok(functionals, checks[k]):
                total += count(k + 1)
        return total

    return count(0)


def census(n: int, q: int, m: int, with_oracle: bool = True,
           budget: int = BUDGET) -> CountReport:
    # the oracle first, so that its budget check fails fast, before the
    # stratum sum, which can take long itself
    oracle = bv_count_bruteforce(n, q, m, budget) if with_oracle else None
    return dataclasses.replace(bv_count_strata(n, q, m), oracle_total=oracle)


def confirm_omega_closed_form(limit: int) -> List[Tuple[int, int, int]]:
    """Check the closed-form count against the oracle on every (n, q, m)
    with q^(n*m) at most ``limit``; returns the configurations checked."""
    checked = []
    q = 2
    while q <= limit:
        try:
            _prime_power(q)
        except ValueError:
            q += 1
            continue
        m = 1
        while q ** m <= limit:
            fld = _field_for(q, m)
            n = 1
            while q ** (n * m) <= limit:
                if omega_count(n, q, m) != omega_count_bruteforce(fld, n):
                    raise AssertionError(
                        f"closed form disagrees with the oracle at {(n, q, m)}")
                checked.append((n, q, m))
                n += 1
            m += 1
        q += 1
    return checked
