import itertools
import math

import pytest

from ferns.census import BudgetExceeded, bv_count_bruteforce, bv_count_strata
from ferns.universal import compatibility_checker, functional_candidates

from conftest import space

# the configurations of the benchmark's census table; the oracle runs on
# the first six, whose tuple space fits the CLI's default budget
CENSUS_TABLE = [(1, 2, 1), (2, 2, 1), (2, 2, 2), (2, 3, 1), (2, 2, 3),
                (3, 2, 1), (3, 2, 2), (3, 3, 1), (3, 4, 1), (3, 5, 1),
                (4, 2, 1), (4, 2, 2), (4, 3, 1)]
ORACLE_CASES = CENSUS_TABLE[:6] + [(2, 3, 2), (2, 2, 4), (2, 4, 2)]


def reference_bruteforce(n, q, m):
    # every tuple of the full product, each checked on all plane pairs
    sp = space(n, q, m)
    checker = compatibility_checker(sp)
    candidates = [functional_candidates(sp, w) for w in checker.subs]
    return sum(checker.bv_ok(dict(zip(checker.subs, combo)))
               for combo in itertools.product(*candidates))


@pytest.mark.parametrize("n,q,m", ORACLE_CASES)
def test_pruned_oracle_matches_the_full_product(n, q, m):
    # only (3,2,1) has a plane pair, so only there can a branch be pruned
    assert bool(compatibility_checker(space(n, q, m)).plane_pairs) \
        == ((n, q, m) == (3, 2, 1))
    assert bv_count_bruteforce(n, q, m) == reference_bruteforce(n, q, m)


@pytest.mark.parametrize("n,q,m,total", [(3, 2, 2, 49), (3, 3, 1, 52),
                                         (3, 4, 1, 105)])
def test_pruned_oracle_reaches_past_the_cli_budget(n, q, m, total):
    with pytest.raises(BudgetExceeded):
        bv_count_bruteforce(n, q, m)
    assert bv_count_bruteforce(n, q, m, budget=10 ** 20) == total
    assert bv_count_strata(n, q, m).total == total


def q_binomial(n, d, q):
    # q-Pascal: [n choose d] = [n-1 choose d-1] + q^d [n-1 choose d]
    if d in (0, n):
        return 1
    return q_binomial(n - 1, d - 1, q) + q ** d * q_binomial(n - 1, d, q)


def recursion_total(n, q, m):
    # a stratum's count depends only on the dimensions of its steps:
    # T(n) = sum_d [n choose d]_q * omega(d) * T(n - d), T(0) = 1, with
    # omega(d) = prod_{i=1}^{d-1} (q^m - q^i) on a step of dimension d
    totals = [1]
    for k in range(1, n + 1):
        totals.append(sum(q_binomial(k, d, q)
                          * math.prod(q ** m - q ** i for i in range(1, d))
                          * totals[k - d] for d in range(1, k + 1)))
    return totals[n]


def check_recursion(n, q, m):
    total = recursion_total(n, q, m)
    assert bv_count_strata(n, q, m).total == total
    if m == 1:  # only complete flags have a nonzero count
        assert total == math.prod((q ** i - 1) // (q - 1)
                                  for i in range(1, n + 1))


@pytest.mark.parametrize("n,q,m", CENSUS_TABLE)
def test_stratum_sum_matches_the_recursion(n, q, m):
    check_recursion(n, q, m)


@pytest.mark.slow
def test_stratum_sum_matches_the_recursion_at_5_2_1():
    assert recursion_total(5, 2, 1) == 9765
    check_recursion(5, 2, 1)
