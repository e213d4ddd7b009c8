"""Integer factorization for the quadratic-form code and for the prime of a
modular non-membership certificate, the first prime ``factorize`` returns.

Everything here is exact and deterministic.  Inputs in this project are
either tiny (parts of the invariant factors of small lattices) or smooth
products of small primes (square-class representatives), so trial division
does almost all the work; Pollard rho is a fallback for stray large cofactors.
"""

from __future__ import annotations

import math
from functools import lru_cache


def _primes_below(n: int) -> tuple[int, ...]:
    """Sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(i for i, flag in enumerate(sieve) if flag)


_SMALL_PRIMES = _primes_below(1000)

# A cofactor that trial division by _SMALL_PRIMES leaves has no prime factor
# below 1009, the least prime above them, so below 1009^2 it is prime.
_PRIME_COFACTOR_BOUND = 1009 * 1009

# Deterministic Miller-Rabin witness sets: the first k primes as bases decide
# every n below the bound (Pomerance, Selfridge and Wagstaff 1980 and
# Jaeschke 1993 up to 7 bases, Jiang and Deng 2014 for 9 and 12).  All 13
# bases decide every n < 3.3 * 10^24 (Sorenson and Webster 2015); above that
# the test is probabilistic.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUNDS = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
)


def _witnesses(n: int) -> tuple[int, ...]:
    for bound, k in _MR_BOUNDS:
        if n < bound:
            return _MR_BASES[:k]
    return _MR_BASES


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES[:20]:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _witnesses(n):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Brent's cycle variant with batched gcds; n must be odd and composite."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


@lru_cache(maxsize=65536)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of ``|n|`` as a sorted tuple of (prime, exponent)."""
    n = abs(n)
    if n <= 1:
        return ()
    fact = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            fact[p] = fact.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m < _PRIME_COFACTOR_BOUND or is_probable_prime(m):
            fact[m] = fact.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return tuple(sorted(fact.items()))

