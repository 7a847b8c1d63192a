"""Exact density values for rank-of-apparition divisibility.

Everything here is exact rational arithmetic: the closed-form S sums, the
per-case density formulas, the recursive dispatcher over the torsion twist of
the root quotient, and an independent oracle that sums the defining
degree/fixed-point series exactly, in finitely many terms.  No floats anywhere:
sums are integer numerators over a running lcm (_lcm_sum), and only returned
values are Fractions.

The case layer has three pieces.  _normal picks, by field and by d, the term
rows of a normal form and sums them.  _hi_twist rescales _normal for a twist
by a primitive fourth or cube root of unity, from one (q, c, K) entry per
field, and _dispatch folds -1 and the sixth roots into the sign-switched
element by inclusion-exclusion.  Every trace term is an STerm, which derives
its value S_{d,e,h}(nu) by s_eval, so a trace cannot hold any other value.

Both the case formulas and the series see a normal form only through its
kummer.KummerProfile: h, #mu(K), delta1, delta2 and one conductor, which the
profile derives from gamma's power index, once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .arith import (
    divides_power_infinity,
    divisors,
    euler_phi,
    gcd_power_infinity,
    moebius,
    prime_factors,
    validate_positive,
)
from .errors import (
    HypothesisError,
    LucasDensityError,
    OracleMismatchError,
    UnreachableCaseError,
)
from .kummer import KummerProfile, kummer_degree, sigma_exists
from .quadfield import (
    PowerIndexData,
    QuadElem,
    Target,
    disc_and_scale,
    element_of,
    power_index,
    qf_conj,
    zeta_label,
)

CASE_Q0 = "Q0"
CASE_Q1_REAL = "Q1_real"
CASE_Q1_IMAG = "Q1_imag"
CASE_GAUSS = "GAUSS"
CASE_EISEN = "EISEN"
CASE_SWITCH = "SWITCH_MINUS1"
CASE_GAUSS_HI = "GAUSS_HI"
CASE_EISEN_HOMEGA = "EISEN_HOMEGA"
CASE_ODD_GENERIC = "ODD_GENERIC"

# ---------------------------------------------------------------------------
# value objects


def _lcm_sum(pairs) -> tuple[int, int]:
    """sum of a / b over the int pairs (a, b), b >= 1, as (numerator, lcm of the b)."""
    num, den = 0, 1
    for a, b in pairs:
        if den % b:
            step = math.lcm(den, b)
            num, den = num * (step // den), step
        num += a * (den // b)
    return num, den


@dataclass(frozen=True)
class STerm:
    """One S sum S_{d,e,h}(nu), derived by s_eval, with its multiplier in the density.

    >>> STerm(6, 1, 2, 1, Fraction(1, 2)).value, STerm(6, 5, 2, 1, Fraction(1)).value
    (Fraction(1, 8), Fraction(0, 1))
    """

    d: int
    e: int
    h: int
    nu: int
    coefficient: Fraction
    value: Fraction = field(init=False)

    def __post_init__(self) -> None:
        if not isinstance(self.coefficient, Fraction):
            raise LucasDensityError(f"STerm.coefficient must be a Fraction, got {self.coefficient!r}")
        object.__setattr__(self, "value", s_eval(self.d, self.e, self.h, self.nu))

    @property
    def contribution(self) -> Fraction:
        return self.coefficient * self.value


@dataclass(frozen=True)
class DensityResult:
    """Exact density of {p : d | rank(p)} with its split, trace and echo.

    delta = delta_plus + delta_minus (split and inert primes) is derived.
    """

    delta: Fraction = field(init=False)
    delta_plus: Fraction
    delta_minus: Fraction
    case_tag: str
    trace: tuple
    inputs_echo: dict

    def __post_init__(self) -> None:
        for name in ("delta_plus", "delta_minus"):
            val = getattr(self, name)
            if isinstance(val, bool) or not isinstance(val, (int, Fraction)):
                raise LucasDensityError(
                    f"DensityResult.{name} must be an int or a Fraction, got {val!r}")
            if val.numerator < 0:
                raise LucasDensityError(f"DensityResult.{name}={val} is negative")
        delta = self.delta_plus + self.delta_minus
        object.__setattr__(self, "delta", delta)
        if delta.numerator > delta.denominator:
            raise LucasDensityError(f"DensityResult.delta={delta} is outside [0, 1]")
        for t in self.trace:
            if not isinstance(t, STerm):
                raise LucasDensityError(f"DensityResult.trace must hold STerms, got {t!r}")
        num, den = _lcm_sum((t.coefficient.numerator * t.value.numerator,
                             t.coefficient.denominator * t.value.denominator) for t in self.trace)
        if num * delta.denominator != delta.numerator * den:
            raise LucasDensityError(f"DensityResult.trace does not reproduce delta={delta}")


# ---------------------------------------------------------------------------
# closed-form S evaluation


def s_eval(d: int, e: int, h: int, nu: int = 1) -> Fraction:
    """Closed form of the inner density sum S_{d,e,h}(nu)."""
    validate_positive(d=d, e=e, h=h, nu=nu)
    if nu % gcd_power_infinity(h, nu):
        raise HypothesisError(f"s_eval({d},{e},{h},{nu}): ({h},{nu}^inf) does not divide {nu}")
    if not (divides_power_infinity(e, d) and divides_power_infinity(nu, d)):
        return Fraction(0)
    big_d = d // gcd_power_infinity(d, nu)
    h_d = gcd_power_infinity(h, big_d)
    num = gcd_power_infinity(h, d) * nu
    den = d * euler_phi(nu) * math.lcm(e, nu * h_d) ** 2
    g2 = math.gcd(e, nu) ** 2
    for p in prime_factors(nu):
        # the factor 1 - gcd(p * e, nu)^2 / (p * gcd(e, nu)^2)
        num *= p * g2 - math.gcd(p * e, nu) ** 2
        den *= p * g2
    for p in prime_factors(d):
        num *= p * p
        den *= p * p - 1
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# per-element profile (power index + square-root data + conductor)


# Entries per profile cache.  The 18 reference rows fill 15 power-index and 9
# profile entries, so the bound only caps growth over a stream of new elements.
_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _pix(gamma: QuadElem) -> PowerIndexData:
    return power_index(gamma)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _field_disc(disc: int) -> int:
    return disc_and_scale(disc)[0]


# element_of runs before a cache hashes the target; root_quotient refuses norm
# and torsion inside the cached _pix -> power_index
def _gamma_of(target: Target, layer: str) -> QuadElem:
    gamma = element_of(target, layer)
    # a SequenceContext took its disc_k from disc_and_scale
    if isinstance(target, QuadElem) and _field_disc(gamma.disc_k) != gamma.disc_k:
        raise LucasDensityError(
            f"disc_k = {gamma.disc_k} is not a fundamental discriminant (the field's is"
            f" {_field_disc(gamma.disc_k)}): build the element with gamma_from_radicand"
        )
    return gamma


def normal_form(target: Target) -> QuadElem:
    """The twist zeta* * gamma attaining the power index; gamma itself when zeta* = 1.

    kummer_profile and series_oracle work on normal forms only; the density of
    a twisted element differs from its normal form's (dispatch handles both).
    """
    return _pix(_gamma_of(target, "normal form")).gamma_tilde


def kummer_profile(target: Target) -> KummerProfile:
    """Profile of a normal-form element or of a context's root quotient.

    disc_k must be fundamental, or the profile can be silently wrong;
    dispatch, series_oracle and normal_form refuse any other disc_k.
    """
    return _profile(element_of(target, "kummer profile"))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _profile(gamma: QuadElem) -> KummerProfile:
    return KummerProfile(gamma, _pix(gamma))


# ---------------------------------------------------------------------------
# series oracle


def _valuation(n: int, p: int) -> int:
    n, k = abs(n), 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def _stable_exponents(profile: KummerProfile, d: int) -> list[tuple[int, int]]:
    """(p, T_p) for each prime p | d, where T_p = max v_p over profile.fixed.

    T_p = 0 marks a prime that divides none of the fixed integers.
    """
    return [(p, max(_valuation(x, p) for x in profile.fixed)) for p in prime_factors(d)]


def series_oracle(target: Target, d: int) -> Fraction:
    """The density as the exact sum of the defining double series.

    delta = sum over v | d^inf and u | d of mu(u) * (1 + sigma(dv, uv)) / [K_{dv,uv} : Q]
    (Moree and Stevenhagen's Kummer-degree summation).  Every prime of v
    divides d, so phi(dv) = phi(d) * v and the degree is v^2 times a factor that
    sees v only through the tests in kummer_degree, _membership and
    sigma_exists.  Those compare dv and uv with the profile's fixed integers
    (KummerProfile.fixed says why that set).  Once a_p = v_p(v) reaches
    T_p = max v_p over the set, no outcome changes and each further step
    divides the term by p^2: a_p runs over 0..T_p, the top value weighted
    p^2 / (p^2 - 1).  A prime p | d with T_p = 0 never changes a test; its sum
    over a_p and over the p-part of u is the Euler factor
    (1 - 1/p) * p^2 / (p^2 - 1) = p / (p + 1).
    The terms are summed as integer numerators over a running lcm of the
    denominators.  The element must be in normal form (see normal_form).
    """
    gamma = _gamma_of(target, "series oracle")
    validate_positive(d=d)
    return _series(kummer_profile(gamma), d)


def _series(profile: KummerProfile, d: int) -> Fraction:
    # (v, w): w = prod over live p of p^2 if a_p = T_p else p^2 - 1; scale
    # holds prod (p^2 - 1) and, with euler, the factors p / (p + 1)
    vs, euler, scale, live = [(1, 1)], 1, 1, 1
    for p, top in _stable_exponents(profile, d):
        if top == 0:
            euler *= p
            scale *= p + 1
            continue
        live *= p
        scale *= p * p - 1
        vs = [(v * p ** a, w * (p * p if a == top else p * p - 1))
              for v, w in vs for a in range(top + 1)]
    sq_free = [(u, mu) for u in divisors(live) if (mu := moebius(u))]
    num, den = _lcm_sum((mu * (1 + sigma_exists(d * v, u * v, profile)) * w,
                         kummer_degree(d * v, u * v, profile))
                        for v, w in vs for u, mu in sq_free)
    return Fraction(euler * num, scale * den)


# ---------------------------------------------------------------------------
# case formulas


def _hat(n: int, d: int) -> int:
    """|n| / gcd(d, |n|): the part of n that d does not absorb."""
    return abs(n) // math.gcd(d, abs(n))


def _scaled(inner: DensityResult, factor: Fraction) -> tuple:
    if factor == 1:
        return inner.trace
    return tuple(STerm(t.d, t.e, t.h, t.nu, t.coefficient * factor) for t in inner.trace)


def _echo_base(profile: KummerProfile, **extra) -> dict:
    sq = profile.sqrt
    # a profile is a normal form: its twist is 1
    echo = {"h": profile.h, "zeta_star": "1", "q": int(sq.q_flag)}
    if sq.q_flag:
        echo.update(delta1=sq.delta1, delta2=sq.delta2)
    if profile.conductor is not None:
        echo["conductor"] = profile.conductor
    echo.update(extra)
    return echo


def _normal(d: int, profile: KummerProfile) -> DensityResult:
    """Density of a normal form at d, from its term rows (e, nu, 2 * c_plus, 2 * c_minus).

    The density is sum (c_plus + c_minus) * S_{d,e,h}(nu), each weight a
    multiple of 1/2; delta_plus and delta_minus are the sums with one weight
    each, and the trace keeps every nonzero S term with its total weight.
    The odd-generic case is certified against the series sum on every call.
    """
    disc, h, sq = profile.gamma.disc_k, profile.h, profile.sqrt
    h2 = gcd_power_infinity(h, 2)
    if disc == -3 and math.gcd(d, 6) > 1:
        e_min = min(_hat(sq.delta1, d), _hat(sq.delta2, d))
        f_hat = _hat(profile.conductor, d)
        ell = math.lcm(e_min, f_hat)
        lead = 2 if d % 3 == 0 else 1
        rows = [(1, 1, lead, lead), (e_min, 2 * h2, lead, lead),
                (f_hat, 3 * gcd_power_infinity(h, 3), 2 * lead, 2 * lead),
                (ell, 6 * gcd_power_infinity(h, 6), 2 * lead, 2 * lead)]
        tag, extra = CASE_EISEN, {"e_min": e_min, "f_hat": f_hat, "ell": ell}
    elif d % 2:  # coprime to 6 over the Eisenstein field
        if disc in (-3, -4):
            e, rows = 1, [(1, 1, 1, 1)]
        else:
            e = _hat(disc, d)
            rows = [(1, 1, 1, 1), (e, 1, 1, 1 if disc < 0 else -1)]
        tag, extra = CASE_ODD_GENERIC, {"e": e}
    elif not sq.q_flag:  # real field, fundamental-unit square root of norm -1
        e = _hat(disc, d)
        # the twisted sum enters the minus part only when (h, 2^inf) does not divide e
        rows = [(1, 1, 1, 3), (e, 1, 1, -3 if e % h2 else 0)]
        tag, extra = CASE_Q0, {"e": e}
    else:  # norm-one square root: Gaussian, other imaginary or real field
        e, e1, e2 = _hat(disc, d), _hat(sq.delta1, d), _hat(sq.delta2, d)
        if disc > 0:
            # the sign of c decides which square-root term the inert primes take
            sign = -1 if sq.c_positive else 1
            tag, minus = CASE_Q1_REAL, (1, -1, sign, -sign)
        else:
            tag, minus = CASE_Q1_IMAG, (1,) * 4
        rows = [(1, 1, 1, minus[0]), (e, 1, 1, minus[1]),
                (e1, 2 * h2, 1, minus[2]), (e2, 2 * h2, 1, minus[3])]
        extra = {"e": e, "e1": e1, "e2": e2}
        if disc == -4:
            f_hat = _hat(profile.conductor, d)
            rows.append((f_hat, 4 * h2, 4, 4))
            tag, extra["f_hat"] = CASE_GAUSS, f_hat

    plus, minus, trace = [], [], []
    for e_row, nu, c_plus, c_minus in rows:
        term = STerm(d, e_row, h, nu, Fraction(c_plus + c_minus, 2))
        if term.value:
            plus.append((c_plus * term.value.numerator, 2 * term.value.denominator))
            minus.append((c_minus * term.value.numerator, 2 * term.value.denominator))
            trace.append(term)
    result = DensityResult(Fraction(*_lcm_sum(plus)), Fraction(*_lcm_sum(minus)), tag,
                           tuple(trace), _echo_base(profile, **extra))
    if tag == CASE_ODD_GENERIC:
        series = _series(profile, d)
        if series != result.delta:
            raise OracleMismatchError(
                f"closed form {result.delta} differs from the series sum {series} "
                f"for d={d}, element {profile.gamma}"
            )
    return result


# Power index attained at a primitive fourth (Gaussian) or cube (Eisenstein)
# root of unity, by field: (q, c, K, tag, echo key of d / q^k, multiplier of
# d / q^k tested against |delta1| (0: no test), multiplier tested against the
# conductor).
_HI_TWIST = {
    -4: (2, 3, 2, CASE_GAUSS_HI, "d_odd", 8, 16),
    -3: (3, 4, 1, CASE_EISEN_HOMEGA, "d_prime", 0, 9),
}


def _hi_twist(d: int, twisted: QuadElem, echo_extra: dict) -> DensityResult:
    """The normal form's density at d / q^k, rescaled, where k = v_q(d).

    m counts the conductor tests that d / q^k passes; with h_q the q-smooth
    part of h, the scale is 1 at k = 0, 1 - q^k / (c * q^(m+K) * h_q) for
    1 <= k <= K, and q^(K+1) / (c * q^(k+m) * h_q) past K.  Split and inert
    primes take half each.
    """
    profile = kummer_profile(twisted)
    q, c, big_k, tag, key, sqrt_mult, cond_mult = _HI_TWIST[twisted.disc_k]
    k = _valuation(d, q)
    rest = d // q**k
    m = int(cond_mult * rest % profile.conductor == 0)
    if sqrt_mult:
        m += int(sqrt_mult * rest % abs(profile.sqrt.delta1) == 0)
    h_q = gcd_power_infinity(profile.h, q)
    if k == 0:
        terms = [(1, 1)]
    elif k <= big_k:
        terms = [(1, 1), (-(q**k), c * q ** (m + big_k) * h_q)]
    else:
        terms = [(q ** (big_k + 1), c * q ** (k + m) * h_q)]
    scale = Fraction(*_lcm_sum(terms))
    inner = _normal(rest, profile)
    half = inner.delta * scale / 2
    echo = _echo_base(profile, k=k, **{key: rest}, m=m, scale=scale, **echo_extra)
    return DensityResult(half, half, tag, _scaled(inner, scale), echo)


# ---------------------------------------------------------------------------
# dispatcher


def dispatch(target: Target, d: int) -> DensityResult:
    """Route (gamma, d) to its case formula and return the certified result."""
    gamma = _gamma_of(target, "dispatch")
    validate_positive(d=d)
    return _dispatch(gamma, d)


def _dispatch(gamma: QuadElem, d: int) -> DensityResult:
    pix = _pix(gamma)
    disc, j, n_mu = gamma.disc_k, pix.zeta_star_exp, len(pix.table)
    if j == 0:
        return _normal(d, kummer_profile(gamma))

    if d == 1:
        # trivially every rank is divisible by 1; no normalization needed
        trace = (STerm(1, 1, pix.table[0], 1, Fraction(1)),)
        echo = {"h": pix.h, "zeta_star": zeta_label(disc, j), "d": 1}
        return DensityResult(Fraction(1, 2), Fraction(1, 2), CASE_ODD_GENERIC, trace, echo)

    order = n_mu // math.gcd(j, n_mu)
    if order in (2, 6):
        # -1 or a primitive sixth root: the sign-switched element, with
        # inclusion-exclusion over d/2, d and 2d when 2 || d
        split, switched = d % 4 == 2, -gamma
        parts = [(c, _dispatch(switched, dd))
                 for c, dd in ([(1, 2 * d), (1, d // 2), (-1, d)] if split else [(1, d)])]
        plus = _lcm_sum((c * r.delta_plus.numerator, r.delta_plus.denominator) for c, r in parts)
        minus = _lcm_sum((c * r.delta_minus.numerator, r.delta_minus.denominator)
                         for c, r in parts)
        trace = tuple(t for c, r in parts for t in _scaled(r, Fraction(c)))
        echo = {"h": pix.h, "zeta_star": zeta_label(disc, j), "v2_split": split,
                "components": tuple((c, r.case_tag) for c, r in parts)}
        return DensityResult(Fraction(*plus), Fraction(*minus), CASE_SWITCH, trace, echo)

    # a primitive fourth (Gaussian) or cube (Eisenstein) root of unity
    conjugated = 2 * j > n_mu
    base_pix = _pix(qf_conj(gamma) if conjugated else gamma)
    if base_pix.zeta_star_exp != n_mu // order:
        raise UnreachableCaseError(
            f"no applicable density case for {gamma}, d={d}: conjugation did not"
            f" normalize the twist exponent {j}"
        )
    echo_extra = {"source_zeta": zeta_label(disc, j), "conjugated": conjugated}
    return _hi_twist(d, base_pix.gamma_tilde, echo_extra)


# ---------------------------------------------------------------------------
# bundled reference values


@dataclass(frozen=True)
class ReferenceRow:
    """One worked example: element, divisor, exact density, routing tag."""

    gamma: QuadElem
    d: int
    delta: Fraction
    case_tag: str
    annotation: Optional[str] = None


@dataclass(frozen=True)
class ProfileExpectation:
    """Per-element invariants: index, twist, canonical root, norm flag, conductor."""

    gamma: QuadElem
    h: int
    zeta_exp: int
    root: QuadElem
    q: int
    conductor: Optional[int]


_G_T1R1 = QuadElem(8, 3, 1)
_G_T1R2 = QuadElem(29, Fraction(-27, 2), Fraction(-5, 2))
_G_T1R3 = QuadElem(-15, Fraction(17, 32), Fraction(7, 32))
_G_T2R1 = QuadElem(-4, Fraction(-3, 5), Fraction(2, 5))
_G_T2R2 = QuadElem(-4, Fraction(24, 25), Fraction(7, 50))
_G_T2R3 = QuadElem(-4, Fraction(-120, 169), Fraction(-119, 338))
_G_T3R1 = QuadElem(-3, Fraction(-13, 14), Fraction(3, 14))
_G_T3R2 = QuadElem(-3, Fraction(683, 686), Fraction(37, 686))
_G_T3R3 = QuadElem(-3, Fraction(1031, 1369), Fraction(-520, 1369))

_ANNOT_26 = (
    "the source table prints 661/8064 here, but its own decimal column "
    "(0.075768) and the closed-form product (13/168)*(47/48) both give 611/8064"
)

REFERENCE_ROWS: tuple = (
    ReferenceRow(_G_T1R1, 6, Fraction(17, 64), CASE_Q0),
    ReferenceRow(_G_T1R1, 20, Fraction(25, 288), CASE_Q0),
    ReferenceRow(_G_T1R2, 8, Fraction(1, 6), CASE_SWITCH),
    ReferenceRow(_G_T1R2, 10, Fraction(5, 36), CASE_SWITCH),
    ReferenceRow(_G_T1R3, 10, Fraction(5, 288), CASE_Q1_IMAG),
    ReferenceRow(_G_T1R3, 30, Fraction(5, 384), CASE_Q1_IMAG),
    ReferenceRow(_G_T2R1, 8, Fraction(1, 3), CASE_GAUSS),
    ReferenceRow(_G_T2R1, 10, Fraction(5, 72), CASE_GAUSS),
    ReferenceRow(_G_T2R2, 10, Fraction(235, 1152), CASE_GAUSS_HI),
    ReferenceRow(_G_T2R2, 24, Fraction(1, 16), CASE_GAUSS_HI),
    ReferenceRow(_G_T2R3, 26, Fraction(611, 8064), CASE_GAUSS_HI, _ANNOT_26),
    ReferenceRow(_G_T2R3, 28, Fraction(35, 288), CASE_GAUSS_HI),
    ReferenceRow(_G_T3R1, 3, Fraction(3, 4), CASE_EISEN),
    ReferenceRow(_G_T3R1, 14, Fraction(35, 288), CASE_EISEN),
    ReferenceRow(_G_T3R2, 9, Fraction(1, 12), CASE_EISEN_HOMEGA),
    ReferenceRow(_G_T3R2, 42, Fraction(1225, 10368), CASE_EISEN_HOMEGA),
    ReferenceRow(_G_T3R3, 6, Fraction(5, 8), CASE_SWITCH),
    ReferenceRow(_G_T3R3, 111, Fraction(407, 16416), CASE_SWITCH),
)

REFERENCE_PROFILES: tuple = (
    ProfileExpectation(_G_T1R1, 2, 0, QuadElem(8, 1, Fraction(1, 2)), 0, None),
    ProfileExpectation(_G_T1R2, 2, 1, QuadElem(29, Fraction(5, 2), Fraction(1, 2)), 0, None),
    ProfileExpectation(_G_T1R3, 4, 0, QuadElem(-15, Fraction(1, 4), Fraction(-1, 4)), 1, None),
    ProfileExpectation(_G_T2R1, 1, 0, _G_T2R1, 1, 20),
    ProfileExpectation(_G_T2R2, 2, 1, QuadElem(-4, Fraction(3, 5), Fraction(2, 5)), 1, 40),
    ProfileExpectation(_G_T2R3, 2, 1, QuadElem(-4, Fraction(12, 13), Fraction(-5, 26)), 1, 208),
    ProfileExpectation(_G_T3R1, 1, 0, _G_T3R1, 1, 7),
    ProfileExpectation(_G_T3R2, 3, 4, QuadElem(-3, Fraction(1, 7), Fraction(4, 7)), 1, 63),
    ProfileExpectation(_G_T3R3, 2, 3, QuadElem(-3, Fraction(13, 37), Fraction(20, 37)), 1, 333),
)
