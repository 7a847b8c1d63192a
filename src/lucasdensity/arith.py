"""Exact integer and rational utilities.

Factorization, squarefree kernels, gcd-with-a-supernatural-power, divisor
enumeration, multiplicative functions and Jacobi symbols.  Everything here is
deterministic and pure; all results are exact.  `factorize` returns the
sorted tuple of (prime, exponent) pairs and caches its _FACTOR_CACHE_SIZE most
recently used results (a tuple is safe to share), so the divisor and
multiplicative helpers built on it, and their callers, factor a recurring
integer once.
"""

from __future__ import annotations

import bisect
import functools
import math
from fractions import Fraction

from .errors import LucasDensityError

# Deterministic Miller-Rabin base set: the first 13 primes certify primality
# for every n < 3.317e24.  Discriminants a1^2 - 4*a2 reach past that, and
# there is_probable_prime adds a strong Lucas test (BPSW).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The first k bases already certify every n below _MR_BOUNDS[k-1] (OEIS A014233,
# the least odd composite that passes them), so a small n needs only a few.
_MR_BOUNDS = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 341550071728321, 3825123056546413051,
              3825123056546413051, 3825123056546413051, 318665857834031151167461,
              3317044064679887385961981)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97)

# factorize results kept; the series oracle's integers d*v for one d fit many times over
_FACTOR_CACHE_SIZE = 512


def _is_strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters, for odd n > 11.

    D is the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4.
    Writing n + 1 = k * 2^s with k odd, n passes when U_k = 0 or some
    V_(k*2^r) = 0 mod n, r < s.
    """
    if math.isqrt(n) ** 2 == n:
        return False  # no D has (D/n) = -1
    d = 5
    while (j := jacobi(d, n)) == 1:
        d = -d - 2 if d > 0 else -d + 2
    if j == 0:
        return False
    q, half = (1 - d) // 4, (n + 1) // 2
    k = n + 1
    s = (k & -k).bit_length() - 1
    k >>= s
    u, v, qk = 0, 2, 1  # U_m, V_m and Q^m for m = 0, then the leading bits of k
    for bit in bin(k)[2:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = (u + v) * half % n, (d * u + v) * half % n, qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin, deterministic for n < 3.3e24; BPSW (with a strong Lucas test) above.

    >>> is_probable_prime(9999991)
    True
    >>> is_probable_prime(1369)
    False
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES[:bisect.bisect_right(_MR_BOUNDS, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_BOUNDS[-1] or _is_strong_lucas_prp(n)


def _pollard_rho(n: int) -> int:
    # Brent's cycle variant; n is odd, composite, and has no factor < 100.
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        seed += 1
        y, c, m = seed, seed + 1, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        # rare cycle degeneracy: retry with a new polynomial


@functools.lru_cache(maxsize=_FACTOR_CACHE_SIZE)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Exact prime factorization of |n| as sorted (prime, exponent) pairs; the sign is ignored.

    >>> dict(factorize(12))
    {2: 2, 3: 1}
    >>> factorize(-1)
    ()
    """
    if n == 0:
        raise LucasDensityError("factorize(0) is undefined")
    n = abs(n)
    fac: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            fac[m] = fac.get(m, 0) + 1
            continue
        r = math.isqrt(m)
        if r * r == m:
            stack += [r, r]
            continue
        d = _pollard_rho(m)
        stack += [d, m // d]
    return tuple(sorted(fac.items()))


def validate_positive(**kwargs: int) -> None:
    """Raise LucasDensityError naming the first argument that is not an int >= 1 (bool refused)."""
    for name, val in kwargs.items():
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            raise LucasDensityError(f"{name} must be a positive integer, got {val!r}")


def validate_int(**kwargs: int) -> None:
    """Raise LucasDensityError naming the first argument that is not an int (bool refused)."""
    for name, val in kwargs.items():
        if not isinstance(val, int) or isinstance(val, bool):
            raise LucasDensityError(f"{name} must be an integer, got {val!r}")


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of |n|."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


def moebius(n: int) -> int:
    """Moebius function of n >= 1."""
    if n == 1:
        return 1
    mu = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def euler_phi(n: int) -> int:
    """Euler totient of n >= 1."""
    out = n
    for p, _ in factorize(n):
        out -= out // p
    return out


def prime_factors(n: int) -> list[int]:
    """Distinct primes dividing |n| (empty for |n| = 1)."""
    return [p for p, _ in factorize(n)]


def squarefree_kernel(q: Fraction | int) -> tuple[int, Fraction]:
    """Write q = s * t**2 with s a squarefree integer carrying q's sign, t > 0.

    >>> squarefree_kernel(Fraction(-4, 5))
    (-5, Fraction(2, 5))
    >>> squarefree_kernel(Fraction(1, 40))
    (10, Fraction(1, 20))
    """
    q = Fraction(q)
    if q == 0:
        raise LucasDensityError("squarefree_kernel(0) is undefined")
    s, t = 1, Fraction(1)
    for p, e in factorize(q.numerator):
        if e % 2:
            s *= p
        t *= Fraction(p) ** (e // 2)
    for p, e in factorize(q.denominator):
        # 1/p = p * (1/p)^2, so an odd denominator prime lands in s and costs t a factor p
        if e % 2:
            s *= p
            t /= p
        t /= p ** (e // 2)
    if q < 0:
        s = -s
    assert s * t * t == q, "kernel decomposition must be exact"
    return s, t


def gcd_power_infinity(h: int, m: int) -> int:
    """Largest divisor of h composed only of primes dividing m ("(h, m^inf)").

    >>> gcd_power_infinity(12, 2)
    4
    >>> gcd_power_infinity(4, 10)
    4
    >>> gcd_power_infinity(2, 3)
    1
    """
    if h < 1 or m < 1:
        raise LucasDensityError("gcd_power_infinity needs positive arguments")
    a = h
    g = math.gcd(a, m)
    while g > 1:
        a //= g
        g = math.gcd(a, g)
    return h // a


def divides_power_infinity(e: int, d: int) -> bool:
    """True when every prime of e divides d ("e | d^inf")."""
    if e < 1:
        raise LucasDensityError("e must be positive")
    return gcd_power_infinity(e, d) == e


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a / n) for odd positive n.

    >>> jacobi(5, 11), jacobi(5, 13), jacobi(10, 5)
    (1, -1, 0)
    """
    if n <= 0 or n % 2 == 0:
        raise LucasDensityError("jacobi: modulus must be odd and positive")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0
