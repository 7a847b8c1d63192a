import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lucasdensity.arith import (
    divides_power_infinity,
    divisors,
    euler_phi,
    factorize,
    gcd_power_infinity,
    is_probable_prime,
    jacobi,
    moebius,
    prime_factors,
    squarefree_kernel,
)
from lucasdensity.errors import LucasDensityError


def test_factorize_small():
    assert dict(factorize(12)) == {2: 2, 3: 1}
    assert dict(factorize(1369)) == {37: 2}
    assert factorize(-1) == ()
    assert factorize(1) == ()
    assert dict(factorize(-360)) == {2: 3, 3: 2, 5: 1}


def test_factorize_rejects_zero():
    with pytest.raises(LucasDensityError):
        factorize(0)


def test_is_probable_prime_matches_sieve_and_base_bounds():
    limit = 200_000
    sieve = [True] * limit
    sieve[0] = sieve[1] = False
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, limit, i))
    assert [n for n in range(limit) if is_probable_prime(n)] == [
        n for n in range(limit) if sieve[n]]
    # each bound is the least odd composite that passes the bases below it;
    # the last one passes all 13, and only the strong Lucas test rejects it
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461,
              3317044064679887385961981):
        assert not is_probable_prime(n), n
    # 10**25 + 349 is a prime whose Lucas test ends on V_k = 0 with r = 0
    for n in (2**31 - 1, 2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1, 10**25 + 349):
        assert is_probable_prime(n), n


def test_factorize_large_semiprime():
    # two 10-digit primes; exercises the rho path
    p, q = 1000000007, 1000000009
    assert dict(factorize(p * q)) == {p: 1, q: 1}


def test_factorization_cache_is_bounded():
    info = factorize.cache_info()
    assert info.maxsize is not None and info.maxsize > 0
    for n in range(10**6, 10**6 + info.maxsize + 50):
        factorize(n)
    assert factorize.cache_info().currsize <= info.maxsize
    first = factorize(2**10 * 3**5 * 1000003)
    assert factorize(2**10 * 3**5 * 1000003) == first
    assert dict(first) == {2: 10, 3: 5, 1000003: 1}
    for _ in range(3):  # a raised error is not cached: every call raises again
        with pytest.raises(LucasDensityError):
            factorize(0)


@given(st.integers(min_value=1, max_value=10**9))
def test_factorize_recomposes(n):
    fac = factorize(n)
    assert math.prod(p ** e for p, e in fac) == n
    assert all(is_probable_prime(p) for p, _ in fac)


def test_squarefree_kernel_pinned():
    assert squarefree_kernel(Fraction(-4, 5)) == (-5, Fraction(2, 5))
    assert squarefree_kernel(Fraction(1, 40)) == (10, Fraction(1, 20))
    assert squarefree_kernel(Fraction(9, 4)) == (1, Fraction(3, 2))
    assert squarefree_kernel(8) == (2, Fraction(2))
    with pytest.raises(LucasDensityError):
        squarefree_kernel(Fraction(0))


@given(st.fractions(min_value=Fraction(-10**6), max_value=Fraction(10**6),
                    max_denominator=10**4).filter(lambda q: q != 0))
def test_squarefree_kernel_properties(q):
    s, t = squarefree_kernel(q)
    assert s * t * t == q
    assert t > 0
    assert (s < 0) == (q < 0)
    assert all(e == 1 for _, e in factorize(s))


def test_gcd_power_infinity_pinned():
    assert gcd_power_infinity(12, 2) == 4
    assert gcd_power_infinity(4, 10) == 4
    assert gcd_power_infinity(2, 3) == 1
    assert gcd_power_infinity(1, 7) == 1
    assert gcd_power_infinity(720, 6) == 144


@given(st.integers(min_value=1, max_value=10**6),
       st.integers(min_value=1, max_value=10**6))
def test_gcd_power_infinity_properties(h, m):
    g = gcd_power_infinity(h, m)
    assert h % g == 0
    # the cofactor is coprime to m, and g's primes all divide m
    assert math.gcd(h // g, m) == 1
    assert divides_power_infinity(g, m) if g > 1 else g == 1


def test_divides_power_infinity():
    assert divides_power_infinity(8, 2)
    assert divides_power_infinity(1, 5)
    assert not divides_power_infinity(6, 2)
    assert divides_power_infinity(144, 6)


def test_jacobi_pinned():
    assert jacobi(5, 11) == 1
    assert jacobi(5, 13) == -1
    assert jacobi(10, 5) == 0
    assert jacobi(-1, 3) == -1
    assert jacobi(2, 7) == 1
    with pytest.raises(LucasDensityError):
        jacobi(3, 8)


def test_jacobi_matches_quadratic_residues():
    # against explicit residue sets, for every odd prime below 1000
    primes = [p for p in range(3, 1000, 2) if is_probable_prime(p)]
    for p in primes:
        residues = {x * x % p for x in range(1, p)}
        for a in range(p):
            expect = 0 if a % p == 0 else (1 if a in residues else -1)
            assert jacobi(a, p) == expect, (a, p)


def test_divisors_and_multiplicative():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(-9) == [1, 3, 9]
    assert prime_factors(60) == [2, 3, 5]
    assert moebius(1) == 1 and moebius(6) == 1 and moebius(30) == -1
    assert moebius(12) == 0
    assert euler_phi(1) == 1 and euler_phi(10) == 4 and euler_phi(97) == 96


@given(st.integers(min_value=1, max_value=5000))
def test_totient_divisor_sum(n):
    assert sum(euler_phi(d) for d in divisors(n)) == n
    assert sum(moebius(d) for d in divisors(n)) == (1 if n == 1 else 0)
