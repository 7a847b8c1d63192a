"""Independent references used by the test suite.

Most of these deliberately avoid the closed forms in the package: the S-sum
oracle enumerates the defining double sum term by term, each exponent of v up
to the point past which the terms form a geometric series, the naive rank
oracle walks the recurrence one index at a time, the support-exponent oracle
reads each valuation off a p-adic square root of the discriminant instead of
off the denominator, and the conductor oracles compute the discriminant of a
defining polynomial by round two instead of reading the ramified primes off
the root.  fraction_s_eval is the S closed form itself, multiplied out one
Fraction factor at a time: the reference for the package's integer form.
reference_fundamental_unit is not independent: it is the package's earlier
fundamental unit (Pell's equation in Z[sqrt(d)], then a cube-root test for
index 3), kept verbatim as a regression reference for the one continued
fraction that replaced it.
"""

from __future__ import annotations

from fractions import Fraction

from lucasdensity.arith import (divides_power_infinity, divisors, euler_phi, factorize,
                                gcd_power_infinity, jacobi, moebius, prime_factors,
                                validate_positive)
from lucasdensity.errors import HypothesisError, LucasDensityError
from lucasdensity.kummer import poly_field_disc, sqrt_data
from lucasdensity.quadfield import QuadElem, _lift_root, _roots_mod_prime, is_nth_power, qf_norm

import math


def brute_s_sum(d: int, e: int, h: int, nu: int) -> Fraction:
    """The double sum over v | d^inf (e | v) and u | d (nu | uv), summed exactly.

    Its term is mu(u) * gcd(uv, h) / (phi(dv) * uv).  Every prime of v divides
    d, so phi(dv) = phi(d) * v and the term sees a_p = v_p(v) only through
    e | v, nu | uv and gcd(uv, h).  Once a_p reaches
    T_p = max(v_p(e), v_p(nu), v_p(h)) each further step divides the term by
    p^2, so a_p runs over 0..T_p and the top value carries the whole geometric
    tail, the weight p^2 / (p^2 - 1).  For a prime dividing none of e, nu, h
    that is T_p = 0: the Euler factor comes out of the enumeration over u.
    """
    vs = [(1, Fraction(1))]
    for p in prime_factors(d):
        top = max(_padic_valuation(x, p) for x in (e, nu, h))
        vs = [(v * p ** a, w * (Fraction(p * p, p * p - 1) if a == top else 1))
              for v, w in vs for a in range(top + 1)]
    ds = divisors(d)
    total = Fraction(0)
    for v, w in vs:
        if v % e:
            continue
        phi_dv = euler_phi(d * v)
        for u in ds:
            if (u * v) % nu:
                continue
            total += w * Fraction(moebius(u) * math.gcd(u * v, h), phi_dv * u * v)
    return total


def fraction_s_eval(d: int, e: int, h: int, nu: int = 1) -> Fraction:
    """Closed form of the inner density sum S_{d,e,h}(nu)."""
    validate_positive(d=d, e=e, h=h, nu=nu)
    if nu % gcd_power_infinity(h, nu):
        raise HypothesisError(
            f"s_eval({d},{e},{h},{nu}): ({h},{nu}^inf) does not divide {nu}"
        )
    if not (divides_power_infinity(e, d) and divides_power_infinity(nu, d)):
        return Fraction(0)
    big_d = d // gcd_power_infinity(d, nu)
    h_d = gcd_power_infinity(h, big_d)
    out = Fraction(
        gcd_power_infinity(h, d) * nu,
        d * euler_phi(nu) * math.lcm(e, nu * h_d) ** 2,
    )
    for p in prime_factors(nu):
        out *= 1 - Fraction(math.gcd(p * e, nu) ** 2, p * math.gcd(e, nu) ** 2)
    for p in prime_factors(d):
        out *= Fraction(p * p, p * p - 1)
    return out


def naive_rank(p: int, a1: int, a2: int, bound: int | None = None) -> int:
    """Least n >= 1 with p | U_n, by stepping the recurrence mod p."""
    limit = bound if bound is not None else 2 * p + 2
    u0, u1 = 0, 1
    for n in range(1, limit + 1):
        if u1 % p == 0:
            return n
        u0, u1 = u1, (a1 * u1 - a2 * u0) % p
    raise AssertionError(f"no rank below {limit} for p={p}, ({a1},{a2})")


def _is_split(p: int, disc: int) -> bool:
    if p == 2:
        return disc % 8 == 1
    return disc % p != 0 and jacobi(disc % p, p) == 1


def _padic_valuation(n: int, p: int) -> int:
    assert n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _sqrt_mod_prime_power(n: int, p: int, exp: int) -> int:
    """r with r**2 = n mod p**exp, for p split (p odd, or p = 2 with n = 1 mod 8)."""
    if p == 2:
        assert n % 8 == 1, "2 must split"
        r, k = 1, 3
        while k < exp:
            if (r * r - n) % (1 << (k + 1)):
                r += 1 << (k - 1)
            k += 1
        return r % (1 << exp)
    root = _roots_mod_prime(n % p, 2, p, (p - 1) & (1 - p), (2,))[0]
    return _lift_root(root, n % p ** exp, 2, p, exp)


def padic_support_exponents(x: QuadElem) -> list[tuple[int, int]]:
    """(p, |v_P(x)|) over the split primes P | p of a norm-1 x, one p-adic embedding at a time.

    For each split p | c, sqrt(D) is lifted mod p^(3*v_p(c) + 1) and the
    valuation of a + b*sqrt(D) under that embedding is compared with v_p(c).
    """
    disc = x.disc_k
    c = math.lcm(x.u.denominator, x.v.denominator)
    a, b = int(x.u * c), int(x.v * c)
    assert a * a - disc * b * b == c * c, "norm-1 element expected"
    out = []
    for p in prime_factors(c):
        if not _is_split(p, disc):
            continue
        vc = _padic_valuation(c, p)
        exp = 3 * vc + 1
        mod = p ** exp
        r = _sqrt_mod_prime_power(disc % mod, p, exp)
        t = (a + b * r) % mod
        assert t != 0, "valuation exceeded its a-priori bound"
        k = _padic_valuation(t, p) - vc
        if k:
            out.append((p, abs(k)))
    return out


def integralize(poly: list[Fraction]) -> list[int]:
    """Substitute Y = m*X with m minimal so the monic polynomial gets integer coefficients."""
    n = len(poly) - 1
    assert poly[-1] == 1
    need: dict[int, int] = {}  # p -> max over coefficients of ceil(e / (n-i))
    for i, c in enumerate(poly[:-1]):
        for p, e in factorize(Fraction(c).denominator):
            need[p] = max(need.get(p, 0), -(-e // (n - i)))
    m = math.prod(p ** k for p, k in need.items())
    return [int(Fraction(c) * m ** (n - i)) for i, c in enumerate(poly[:-1])] + [1]


def reference_quartic_conductor(root: QuadElem) -> int:
    """lcm(4, f) for the conductor f of the cyclic quartic field of X^4 - X^2 - c/4.

    ``root`` is a norm-1 non-square over disc -4 and c = (u - 1)/2.  The field
    discriminant is f^2 times that of its quadratic subfield Q(sqrt(c/-4)).
    """
    data = sqrt_data(root)
    disc_f = poly_field_disc(integralize([-data.c / 4, Fraction(0), Fraction(-1),
                                          Fraction(0), Fraction(1)]))
    quotient, rem = divmod(disc_f, abs(data.delta2))
    assert rem == 0 and quotient > 0 and math.isqrt(quotient) ** 2 == quotient, disc_f
    return math.lcm(4, math.isqrt(quotient))


def reference_cubic_conductor(root: QuadElem) -> int:
    """Conductor of the cyclic cubic field of X^3 - 3X - 2u, for root = u + v*sqrt(-3)."""
    disc_f = poly_field_disc(integralize([-2 * root.u, Fraction(-3), Fraction(0), Fraction(1)]))
    assert disc_f > 0 and math.isqrt(disc_f) ** 2 == disc_f, disc_f
    return math.isqrt(disc_f)


def _pell_fundamental(d: int) -> tuple[int, int]:
    """Smallest (x, y), x, y >= 1, with x**2 - d*y**2 = +-1, for non-square d > 1."""
    a0 = math.isqrt(d)
    m, den, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    while True:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        if a == 2 * a0 and den == 1:
            return p, q
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev


def reference_fundamental_unit(disc_k: int) -> QuadElem:
    """Fundamental unit > 1 of the maximal order of the real field of disc_k."""
    if disc_k <= 0:
        raise LucasDensityError("fundamental_unit needs a positive discriminant")
    d = disc_k if disc_k % 4 == 1 else disc_k // 4
    px, py = _pell_fundamental(d)
    if disc_k % 4 == 1:
        eps = QuadElem(disc_k, Fraction(px), Fraction(py))
        # the order Z[sqrt(d)] may sit at index 3 below the maximal order's units
        cube = is_nth_power(eps, 3)
        if cube is not None:
            eps = cube
    else:
        eps = QuadElem(disc_k, Fraction(px), Fraction(py, 2))
    assert qf_norm(eps) in (1, -1), "unit must have norm +-1"
    return eps
