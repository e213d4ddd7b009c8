"""Factoring and primality against trial division, at the edges of the two
shortcuts: a cofactor below 1009^2 left by trial division is prime, and
Miller-Rabin takes the first k primes as witnesses below each bound."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdinv._factor import _SMALL_PRIMES, factorize, is_probable_prime


def naive_factor(n: int) -> tuple[tuple[int, int], ...]:
    n, out, p = abs(n), {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return tuple(sorted(out.items()))


def naive_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def strong_probable_prime(n: int, a: int) -> bool:
    """One Miller-Rabin round of the odd n > 2 to base a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


# (n, k): n is a strong pseudoprime to the first k prime bases, and the least
# one to the bases its bound in the witness table admits, so it sits exactly
# on that bound
STRONG_PSEUDOPRIMES = (
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 8),
    (3_825_123_056_546_413_051, 11),
    (318_665_857_834_031_151_167_461, 12),
)
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def test_1009_is_the_least_prime_above_the_trial_divisors():
    assert _SMALL_PRIMES[-1] == 997
    assert [n for n in range(998, 1010) if naive_is_prime(n)] == [1009]


@pytest.mark.parametrize("n, expected", [
    (997 ** 2, ((997, 2),)),
    (997 * 1009, ((997, 1), (1009, 1))),
    (1009 ** 2, ((1009, 2),)),
    (1009 ** 2 - 2, naive_factor(1009 ** 2 - 2)),
    (1009 * 1013, ((1009, 1), (1013, 1))),
    (2 * 1009 ** 2, ((2, 1), (1009, 2))),
    (1009 ** 3, ((1009, 3),)),
])
def test_factorize_at_the_prime_cofactor_bound(n, expected):
    assert factorize(n) == expected


@pytest.mark.parametrize("n, k", STRONG_PSEUDOPRIMES)
def test_strong_pseudoprimes_are_composite(n, k):
    assert all(strong_probable_prime(n, a) for a in PRIMES[:k])
    assert not is_probable_prime(n)
    factors = factorize(n)
    assert len(factors) > 1 or factors[0][1] > 1
    assert math.prod(p ** e for p, e in factors) == n
    assert all(is_probable_prime(p) for p, _ in factors)


@settings(max_examples=300, deadline=None)
@given(st.integers(-(10 ** 7), 10 ** 7))
def test_factorize_matches_trial_division(n):
    assert factorize(n) == naive_factor(n)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4 * 10 ** 6))
def test_is_probable_prime_matches_trial_division(n):
    assert is_probable_prime(n) == naive_is_prime(n)


@settings(max_examples=200, deadline=None)
@given(st.integers(1009, 10 ** 5), st.integers(1009, 10 ** 5))
def test_factorize_products_of_large_factors(a, b):
    assert factorize(a * b) == naive_factor(a * b)
