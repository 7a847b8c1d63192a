"""Exact arithmetic in real and imaginary quadratic fields.

Elements are stored over the fundamental discriminant of their field.  On top
of the field arithmetic this module builds the three nontrivial computations
everything else depends on: exact n-th-power testing (floating candidates,
exact certificates), fundamental units by continued fractions, and the power
index of a norm-one element under all torsion twists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath

from .arith import divisors, is_probable_prime, jacobi, prime_factors, squarefree_kernel
from .errors import (
    DiscMismatchError,
    DivisionByZeroError,
    LucasDensityError,
    PrecisionExhaustedError,
    ReducibleError,
    TorsionError,
    ZeroParameterError,
)

# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadElem:
    """u + v*sqrt(disc_k) with rational u, v and fundamental discriminant disc_k."""

    disc_k: int
    u: Fraction
    v: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", Fraction(self.u))
        object.__setattr__(self, "v", Fraction(self.v))
        d = self.disc_k
        if d % 4 not in (0, 1) or d == 0:
            raise LucasDensityError(f"not a discriminant: {d}")
        if d > 0 and math.isqrt(d) ** 2 == d:
            raise LucasDensityError(f"square discriminant: {d}")

    def __neg__(self) -> "QuadElem":
        return QuadElem(self.disc_k, -self.u, -self.v)

    def __str__(self) -> str:
        """ASCII form (a+b*sqrt(D))/c over the common denominator; b always shown."""
        c = math.lcm(self.u.denominator, self.v.denominator)
        a, b = self.u * c, self.v * c
        core = f"{a}{'+' if b >= 0 else '-'}{abs(b)}*sqrt({self.disc_k})"
        return f"({core})/{c}" if c != 1 else core


def qf_one(disc_k: int) -> QuadElem:
    return QuadElem(disc_k, Fraction(1), Fraction(0))


def qf_norm(x: QuadElem) -> Fraction:
    """Field norm: u**2 - disc_k * v**2."""
    return x.u * x.u - x.disc_k * x.v * x.v


def qf_trace(x: QuadElem) -> Fraction:
    return 2 * x.u


def qf_conj(x: QuadElem) -> QuadElem:
    return QuadElem(x.disc_k, x.u, -x.v)


def qf_mul(x: QuadElem, y: QuadElem) -> QuadElem:
    if x.disc_k != y.disc_k:
        raise DiscMismatchError(f"cannot multiply over discs {x.disc_k} and {y.disc_k}")
    return QuadElem(
        x.disc_k,
        x.u * y.u + x.disc_k * x.v * y.v,
        x.u * y.v + x.v * y.u,
    )


def qf_inv(x: QuadElem) -> QuadElem:
    n = qf_norm(x)
    if n == 0:
        raise DivisionByZeroError("inverse of zero (or of a zero-norm element)")
    return QuadElem(x.disc_k, x.u / n, -x.v / n)


def qf_pow(x: QuadElem, k: int) -> QuadElem:
    if k < 0:
        return qf_pow(qf_inv(x), -k)
    out = qf_one(x.disc_k)
    base = x
    while k:
        if k & 1:
            out = qf_mul(out, base)
        base = qf_mul(base, base)
        k >>= 1
    return out


def disc_and_scale(q: Fraction | int) -> tuple[int, Fraction]:
    """Fundamental discriminant of Q(sqrt(q)) and the scale with sqrt(q) = scale*sqrt(disc).

    The discriminant is 1 when q is a rational square.

    >>> [disc_and_scale(q)[0] for q in (Fraction(-4, 5), Fraction(1, 40), Fraction(9, 4))]
    [-20, 40, 1]
    >>> disc_and_scale(-12)
    (-3, Fraction(2, 1))
    """
    s, t = squarefree_kernel(Fraction(q))
    return (s, t) if s % 4 == 1 else (4 * s, t / 2)


def gamma_from_radicand(u: Fraction, v: Fraction, radicand: int) -> QuadElem:
    """Rewrite u + v*sqrt(radicand) over the fundamental discriminant."""
    if radicand == 0 or math.isqrt(abs(radicand)) ** 2 == radicand:
        raise ReducibleError(f"radicand {radicand} is a perfect square: no quadratic field")
    disc, scale = disc_and_scale(radicand)
    return QuadElem(disc, Fraction(u), Fraction(v) * scale)


# ---------------------------------------------------------------------------
# sequence contexts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequenceContext:
    """A recurrence x_{n+2} = a1*x_{n+1} - a2*x_n together with its root quotient."""

    a1: int
    a2: int
    delta: int
    disc_k: int
    gamma: QuadElem


def torsion_units(disc_k: int) -> list[QuadElem]:
    """The roots of unity of Q(sqrt(disc_k)), as consecutive powers of a generator."""
    if disc_k == -4:
        gen = QuadElem(-4, Fraction(0), Fraction(1, 2))  # i
    elif disc_k == -3:
        gen = QuadElem(-3, Fraction(1, 2), Fraction(1, 2))  # primitive 6th root
    else:
        gen = QuadElem(disc_k, Fraction(-1), Fraction(0))
    out = [qf_one(disc_k)]
    while True:
        nxt = qf_mul(out[-1], gen)
        if nxt == out[0]:
            return out
        out.append(nxt)


def is_torsion(x: QuadElem) -> bool:
    """True when x is a root of unity (of order dividing 4 or 6, as in any quadratic field)."""
    one = qf_one(x.disc_k)
    y = x
    for _ in range(6):
        if y == one:
            return True
        y = qf_mul(y, x)
    return False


def make_context(a1: int, a2: int) -> SequenceContext:
    """Build the context for the recurrence with parameters (a1, a2)."""
    if a1 == 0 or a2 == 0:
        raise ZeroParameterError(f"parameters must be nonzero, got ({a1}, {a2})")
    delta = a1 * a1 - 4 * a2
    if delta >= 0 and math.isqrt(delta) ** 2 == delta:
        raise ReducibleError(f"characteristic polynomial splits over Q (delta = {delta})")
    disc, scale = disc_and_scale(delta)
    gamma = QuadElem(
        disc,
        Fraction(a1 * a1 - 2 * a2, 2 * a2),
        Fraction(a1, 2 * a2) * scale,
    )
    assert qf_norm(gamma) == 1, "root quotient must have norm 1"
    if is_torsion(gamma):
        raise TorsionError(f"root quotient of ({a1}, {a2}) is a root of unity")
    return SequenceContext(a1=a1, a2=a2, delta=delta, disc_k=disc, gamma=gamma)


# ---------------------------------------------------------------------------
# n-th power testing
# ---------------------------------------------------------------------------

_DPS_LADDER = (60, 120, 240, 480)
_REJECT = 0.01  # fast-path residual: beyond this, skip the exact check entirely

_ESCALATE = object()


def _mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    if man == 0:
        if x != 0:
            raise PrecisionExhaustedError("nonfinite value during reconstruction")
        return Fraction(0)
    f = Fraction(man) * Fraction(2) ** exp
    return -f if sign else f


def _reconstruct(value, bound: int) -> tuple[Fraction, float]:
    cand = _mpf_to_fraction(value).limit_denominator(bound)
    residual = abs(mpmath.mpf(cand.numerator) / cand.denominator - value)
    return cand, float(residual)


def _attempt_root(x: QuadElem, n: int, bound: int, dps: int):
    """One precision level: a root, None (certified absent), or _ESCALATE."""
    disc = x.disc_k
    with mpmath.workdps(dps):
        # float error must stay far below the spacing ~1/bound^2 of candidate
        # rationals, otherwise "closest candidate" is not trustworthy
        err_gate = mpmath.mpf(10) ** (12 - dps)
        if disc > 0:
            w = mpmath.sqrt(disc)
            s1 = x.u.numerator / mpmath.mpf(x.u.denominator) + x.v.numerator / mpmath.mpf(x.v.denominator) * w
            s2 = 2 * x.u.numerator / mpmath.mpf(x.u.denominator) - s1
            if err_gate * (1 + abs(s1) + abs(s2)) > mpmath.mpf(1) / (4 * bound * bound):
                return _ESCALATE
            if n % 2 == 0 and (s1 < 0 or s2 < 0):
                return None  # even powers are totally positive
            r1 = mpmath.root(s1, n) if s1 >= 0 else -mpmath.root(-s1, n)
            r2 = mpmath.root(s2, n) if s2 >= 0 else -mpmath.root(-s2, n)
            pairs = [(r1, r2)] if n % 2 else [(r1, r2), (r1, -r2)]
            coords = [((t1 + t2) / 2, (t1 - t2) / (2 * w)) for t1, t2 in pairs]
        else:
            w = mpmath.sqrt(-disc)
            target = mpmath.mpc(
                x.u.numerator / mpmath.mpf(x.u.denominator),
                x.v.numerator / mpmath.mpf(x.v.denominator) * w,
            )
            if err_gate * (1 + abs(target)) > mpmath.mpf(1) / (4 * bound * bound):
                return _ESCALATE
            r = target ** (mpmath.mpf(1) / n)
            coords = []
            for k in range(n):
                cand = r * mpmath.expjpi(mpmath.mpf(2 * k) / n)
                coords.append((cand.real, cand.imag / w))
        for cu_f, cv_f in coords:
            cu, res_u = _reconstruct(cu_f, bound)
            cv, res_v = _reconstruct(cv_f, bound)
            if max(res_u, res_v) > _REJECT:
                continue  # nowhere near a bounded-denominator rational
            y = QuadElem(disc, cu, cv)
            # the norm test is cheap and rejects most wrong candidates
            if qf_norm(y) ** n == qf_norm(x) and qf_pow(y, n) == x:
                return y
            # the closest admissible rational fails the exact certificate,
            # so this twist carries no root at all
    return None


def is_nth_power(x: QuadElem, n: int) -> Optional[QuadElem]:
    """Some y with y**n == x exactly, or None if x is not an n-th power in K.

    Floating point only ever proposes candidates; acceptance is by exact
    re-powering and absence by exhausting every root-of-unity twist.
    """
    if n < 1:
        raise LucasDensityError(f"is_nth_power needs n >= 1, got {n}")
    if x.u == 0 and x.v == 0:
        raise LucasDensityError("is_nth_power(0, n) is not meaningful here")
    if n == 1:
        return x
    bound = 2 * x.u.denominator * x.v.denominator * abs(x.disc_k)
    for dps in _DPS_LADDER:
        outcome = _attempt_root(x, n, bound, dps)
        if outcome is not _ESCALATE:
            return outcome
    raise PrecisionExhaustedError(f"root certification for n={n} did not converge")


# ---------------------------------------------------------------------------
# fundamental units (continued fractions)
# ---------------------------------------------------------------------------


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


def fundamental_unit(disc_k: int) -> QuadElem:
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


# ---------------------------------------------------------------------------
# power index
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerIndexData:
    """h(zeta) for every torsion twist, with the maximising twist singled out.

    ``table`` and ``roots`` are keyed by the exponent of the torsion generator
    (the one returned by torsion_units); ``roots[j]`` is a table[j]-th root of
    zeta^j * gamma.
    """

    disc_k: int
    table: dict[int, int]
    roots: dict[int, QuadElem]
    h: int
    zeta_star_exp: int
    zeta_star: QuadElem
    gamma_tilde: QuadElem
    gamma0: QuadElem

    def restricted(self, m: int) -> tuple[int, int, QuadElem]:
        """(h_m, exponent, root) maximising h(zeta) over twists with zeta^m = 1."""
        nmu = len(self.table)
        assert nmu % m == 0, f"m={m} does not divide the torsion order {nmu}"
        eligible = [j for j in _tie_break_order(nmu) if j * m % nmu == 0]
        h_m = max(self.table[j] for j in eligible)
        j = next(j for j in eligible if self.table[j] == h_m)
        return h_m, j, self.roots[j]


def _tie_break_order(nmu: int) -> tuple[int, ...]:
    # 1 first, then -1, then the rest by ascending multiplicative order and
    # exponent: ties between twists differing by -1 (inevitable whenever the
    # maximum is odd) must resolve to the lower-order root so that the
    # specialised density formulas apply without an extra sign switch
    if nmu == 2:
        return (0, 1)
    if nmu == 4:
        return (0, 2, 1, 3)
    assert nmu == 6, f"impossible torsion order {nmu}"
    return (0, 3, 2, 4, 1, 5)


def _is_split(p: int, disc: int) -> bool:
    if p == 2:
        return disc % 8 == 1
    return disc % p != 0 and jacobi(disc % p, p) == 1


def _sqrt_mod_prime(n: int, p: int) -> int:
    """Tonelli-Shanks; assumes p odd prime and n a nonzero square mod p."""
    n %= p
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while jacobi(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(n, q, p), pow(n, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


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
    r = _sqrt_mod_prime(n, p)
    k = 1
    while k < exp:
        k = min(2 * k, exp)
        mod = p ** k
        inv = pow(2 * r % mod, -1, mod)
        r = (r - (r * r - n) * inv) % mod
    return r


def _padic_valuation(n: int, p: int) -> int:
    assert n != 0
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _support_exponents(x: QuadElem) -> list[int]:
    """|v_P(x)| over the split primes P where x's fractional ideal is nontrivial.

    Only split primes can occur: norm 1 forces the valuation at every inert and
    ramified prime to vanish.
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
            out.append(abs(k))
    return out


def power_index(gamma: QuadElem) -> PowerIndexData:
    """h(zeta) for all torsion zeta, and the data of the maximising twist."""
    disc = gamma.disc_k
    if qf_norm(gamma) != 1:
        raise LucasDensityError(f"power index needs a norm-1 element, got {gamma}")
    if is_torsion(gamma):
        raise TorsionError(f"power index is undefined for the root of unity {gamma}")
    exps = _support_exponents(gamma)
    if exps:
        cap = math.gcd(*exps)
    else:
        # gamma is a unit; norm-1 units of imaginary fields are torsion, so
        # the field is real and +-gamma is a power of the fundamental unit
        assert disc > 0, "unit branch reached with an imaginary discriminant"
        eps = fundamental_unit(disc)
        with mpmath.workdps(60):
            w = mpmath.sqrt(disc)
            g1 = abs(gamma.u.numerator / mpmath.mpf(gamma.u.denominator)
                     + gamma.v.numerator / mpmath.mpf(gamma.v.denominator) * w)
            e1 = eps.u.numerator / mpmath.mpf(eps.u.denominator) \
                + eps.v.numerator / mpmath.mpf(eps.v.denominator) * w
            k0 = int(mpmath.nint(mpmath.log(g1) / mpmath.log(e1)))
        k = next(
            (k for k in range(k0 - 2, k0 + 3)
             if k and qf_pow(eps, k) in (gamma, -gamma)),
            None,
        )
        if k is None:
            raise LucasDensityError(
                f"the unit {gamma} is not +- a power of the fundamental unit of "
                f"disc {disc}; disc_k may not be fundamental"
            )
        cap = 2 * abs(k)
    units = torsion_units(disc)
    table: dict[int, int] = {}
    roots: dict[int, QuadElem] = {}
    for j, zeta in enumerate(units):
        twisted = qf_mul(zeta, gamma)
        for n in sorted(divisors(cap), reverse=True):
            root = is_nth_power(twisted, n)
            if root is not None:
                table[j], roots[j] = n, root
                break
    h = max(table.values())
    j_star = next(j for j in _tie_break_order(len(units)) if table[j] == h)
    return PowerIndexData(
        disc_k=disc,
        table=table,
        roots=roots,
        h=h,
        zeta_star_exp=j_star,
        zeta_star=units[j_star],
        gamma_tilde=qf_mul(units[j_star], gamma),
        gamma0=roots[j_star],
    )
