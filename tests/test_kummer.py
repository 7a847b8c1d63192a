"""Tests for square-root data, conductors, field discriminants, Kummer degrees."""

import math
import random
import time
from fractions import Fraction

import pytest

from lucasdensity.arith import divisors, euler_phi, factorize
from lucasdensity.density import (CASE_GAUSS, REFERENCE_PROFILES, dispatch, kummer_profile,
                                  normal_form)
from lucasdensity.errors import LucasDensityError, ReducibleError
from lucasdensity.kummer import (
    KummerProfile,
    _has_rational_root,
    _splits_into_quadratics,
    cubic_conductor,
    kummer_degree,
    poly_field_disc,
    quartic_conductor,
    sigma_exists,
    sqrt_data,
)
from lucasdensity.quadfield import (
    QuadElem,
    disc_and_scale,
    is_nth_power,
    power_index,
    qf_conj,
    qf_inv,
    qf_mul,
    qf_pow,
    torsion_units,
)

from oracles import integralize, reference_cubic_conductor, reference_quartic_conductor

F = Fraction


# ---------------------------------------------------------------------------
# fundamental discriminants (disc_and_scale)
# ---------------------------------------------------------------------------

QUAD_DISC_CASES = [
    (F(-4, 5), -20),
    (F(1, 40), 40),
    (F(9, 4), 1),
    (2, 8),
    (8, 8),
    (-2, -8),
    (-3, -3),
    (5, 5),
    (12, 12),
    (F(-1), -4),
    (F(25, 49), 1),
]


def test_quad_disc_pinned():
    for q, expected in QUAD_DISC_CASES:
        assert disc_and_scale(q)[0] == expected, f"disc_and_scale({q})"


def test_quad_disc_rejects_zero():
    with pytest.raises(LucasDensityError):
        disc_and_scale(0)


def test_quad_disc_is_a_discriminant():
    rng = random.Random(7)
    for _ in range(200):
        q = F(rng.randint(-80, 80), rng.randint(1, 80))
        if q == 0:
            continue
        d = disc_and_scale(q)[0]
        assert d % 4 in (0, 1)
        odd = abs(d)
        while odd % 2 == 0:
            odd //= 2
        assert all(e == 1 for _, e in factorize(odd)), f"odd part of {d} not squarefree"


# ---------------------------------------------------------------------------
# sqrt_data
# ---------------------------------------------------------------------------


def test_sqrt_data_norm_minus_one_rows():
    for elem in (QuadElem(8, 1, F(1, 2)), QuadElem(29, F(5, 2), F(1, 2))):
        data = sqrt_data(elem)
        assert data.q_flag is False
        assert data.c is None and data.delta1 is None and data.delta2 is None
        assert data.c_positive is None


SQRT_ROWS = [
    # (element, c, delta1, delta2)
    (QuadElem(-15, F(1, 4), F(-1, 4)), F(-3, 8), -24, 40),
    (QuadElem(-3, F(13, 37), F(20, 37)), F(-12, 37), -111, 37),
    (QuadElem(-4, F(-3, 5), F(2, 5)), F(-4, 5), -20, 5),
    (QuadElem(-3, F(-13, 14), F(3, 14)), F(-27, 28), -84, 28),
    (QuadElem(-3, F(1, 7), F(4, 7)), F(-3, 7), -84, 28),
]


def test_sqrt_data_norm_one_rows():
    for elem, c, d1, d2 in SQRT_ROWS:
        data = sqrt_data(elem)
        assert data.q_flag is True
        assert data.c == c
        assert data.delta1 == d1
        assert data.delta2 == d2
        assert data.c_positive == (c > 0)


def test_sqrt_data_degenerate():
    with pytest.raises(LucasDensityError,
                       match=r"sqrt_data needs a root of norm \+-1 off Q, got 1\+0\*sqrt\(8\)"):
        sqrt_data(QuadElem(8, 1, 0))


def test_sqrt_data_lcm_identity():
    for elem, _, d1, d2 in SQRT_ROWS:
        dk = abs(elem.disc_k)
        if abs(d1) == 1 or abs(d2) == 1:
            continue
        assert math.lcm(dk, abs(d1)) == math.lcm(dk, abs(d2)) == math.lcm(abs(d1), abs(d2))


# ---------------------------------------------------------------------------
# poly_field_disc
# ---------------------------------------------------------------------------

# ascending coefficients, leading 1 included
FIELD_DISC_CASES = [
    ([-2, 0, 1], 8),
    ([-1, -1, 1], 5),
    ([1, -2, -1, 1], 49),
    ([-1, -3, 0, 1], 81),
    ([1, 1, 1, 1, 1], 125),
    ([1, -1, 1, -1, 1], 125),
    ([1, 0, 0, 0, 1], 256),
    ([1, 0, -1, 0, 1], 144),
    ([-2, 0, 0, 0, 1], -2048),
    ([2, 0, -4, 0, 1], 2048),
    # quartic-conductor polynomials
    ([125, 0, -25, 0, 1], 2000),
    ([500, 0, -100, 0, 1], 8000),
    ([109850, 0, -676, 0, 1], 4499456),
    ([4394, 0, -676, 0, 1], 4499456),
    # cubic-conductor polynomials
    ([637, -147, 0, 1], 49),
    ([-98, -147, 0, 1], 3969),
    ([-35594, -4107, 0, 1], 110889),
]


def test_poly_field_disc_pinned():
    for coeffs, expected in FIELD_DISC_CASES:
        assert poly_field_disc(coeffs) == expected, f"disc of {coeffs}"


# Large coefficients and indices, so round two runs several rounds per prime.
# Kept out of the sympy cross-check: round_two gives 28444 for the first one,
# which does not even divide its polynomial discriminant 3.6e10.
LARGE_FIELD_DISC_CASES = [
    ([2250, 0, -100, 0, 1], 256000),
    ([4212, 0, -676, 0, 1], 140608),
    ([45125, 0, -625, 0, 1], 2000),
    ([16456659200, 0, -469225, 0, 1], 64283825),
    ([7920619064372, 0, -31561924, 0, 1], 9528128),
    ([17682889711844084, 0, -280964644, 0, 1], 451098944),
    ([-9077675777, -10256403, 0, 1], 149769),
    ([-343265163058, -337652643, 0, 1], 859329),
]


def test_poly_field_disc_large_coefficients_pinned():
    for coeffs, expected in LARGE_FIELD_DISC_CASES:
        assert poly_field_disc(coeffs) == expected, f"disc of {coeffs}"


def _sympy_field_disc(coeffs):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.numberfields.basis import round_two

    x = sympy.Symbol("x")
    expr = sum(int(c) * x ** i for i, c in enumerate(coeffs))
    try:
        _, dk = round_two(sympy.Poly(expr, x))
    except Exception:
        return None  # round_two is known to fail on some inputs; skip those
    return int(dk)


def test_poly_field_disc_against_sympy():
    checked = 0
    for coeffs, expected in FIELD_DISC_CASES:
        got = _sympy_field_disc(coeffs)
        if got is None:
            continue
        if got % 4 not in (0, 1):
            # Stickelberger rules out 2,3 mod 4: such an output is a round_two
            # defect (observed on [109850, 0, -676, 0, 1]), not a discriminant.
            continue
        assert got == expected, f"cross-check of {coeffs}"
        checked += 1
    assert checked >= 5, "cross-check exercised too few polynomials"


def test_poly_field_disc_rejects_reducible():
    for coeffs in ([1, 2, 1], [-1, 0, 1], [-4, 0, 1], [0, -3, 0, 1],
                   [1, 0, 2, 0, 1], [4, 0, 0, 0, 1], [1, 1, 2, 1, 1], [6, 0, -5, 0, 1]):
        with pytest.raises(ReducibleError):
            poly_field_disc(coeffs)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _divisor_search(f):
    return f[0] == 0 or any(sum(c * r**i for i, c in enumerate(f)) == 0
                            for d in divisors(f[0]) for r in (d, -d))


def test_rational_root_test_matches_divisor_search():
    rng = random.Random(11)
    polys = []
    for deg in (2, 3, 4):
        for _ in range(60):
            polys.append([rng.randint(-60, 60) for _ in range(deg)] + [1])
            # planted integer roots: simple, adjacent, double, and with a monic cofactor
            r = rng.randint(-40, 40)
            cof = [rng.randint(-9, 9) for _ in range(deg - 1)] + [1]
            polys.append(_poly_mul([-r, 1], cof))
            if deg >= 3:
                polys.append(_poly_mul(_poly_mul([-r, 1], [-r - 1, 1]), cof[1:]))
                polys.append(_poly_mul(_poly_mul([-r, 1], [-r, 1]), cof[1:]))
    planted = 0
    for f in polys:
        expected = _divisor_search(f)
        assert _has_rational_root(f) == expected, f
        planted += expected
    assert planted >= 300
    big = 2**80 + 7
    assert _has_rational_root(_poly_mul([-big, 1], [1, 0, 1]))
    assert _has_rational_root(_poly_mul([big, 1], [-big - 1, 1]))
    assert not _has_rational_root(_poly_mul([-2, 0, 1], [big * big + 1, 0, 1]))


def _quadratic_divisor_search(f):
    # the former split test: b over the +-divisors of a0, then a + c = a3,
    # ac = a2 - b - d and ad + bc = a1
    a0, a1, a2, a3 = f[0], f[1], f[2], f[3]
    for b in divisors(a0) + [-q for q in divisors(a0)]:
        d = a0 // b
        s = a3 * a3 - 4 * (a2 - b - d)
        if s < 0 or math.isqrt(s) ** 2 != s:
            continue
        for twice_a in (a3 + math.isqrt(s), a3 - math.isqrt(s)):
            if twice_a % 2 == 0 and twice_a // 2 * d + b * (a3 - twice_a // 2) == a1:
                return True
    return False


def test_quadratic_split_matches_divisor_search():
    rng = random.Random(20261018)
    planted = 0
    for _ in range(20_000):
        if rng.random() < 0.5:
            f = [rng.randint(-60, 60) for _ in range(4)] + [1]
        else:
            g = [rng.randint(-30, 30), rng.randint(-30, 30), 1]
            f = _poly_mul(g, [rng.randint(-30, 30), rng.randint(-30, 30), 1])
        if f[0] == 0:
            continue
        expected = _quadratic_divisor_search(f)
        assert _splits_into_quadratics(f) == expected, f
        planted += expected
    assert planted >= 9000


def test_quadratic_split_with_two_large_prime_constants_is_quick():
    # a0 is a product of two 25-digit primes: its divisors need a factorization
    p, q = 1000000000000000000000007, 3000000000000000000000007
    t0 = time.perf_counter()
    assert _splits_into_quadratics(_poly_mul([p, 12345, 1], [q, -678, 1]))
    assert not _splits_into_quadratics([p * q, 1, 0, 0, 1])
    assert time.perf_counter() - t0 < 1.0
    with pytest.raises(ReducibleError):
        poly_field_disc(_poly_mul([p, 0, 1], [q, 1, 1]))


def test_poly_field_disc_large_constant_term_is_quick():
    # a cubic_conductor polynomial of a 7th power over Q(sqrt(-3)); enumerating
    # the divisors of its 52-digit constant term took about 45 s
    f = [-2938201594990690163854729250098422201045725639571347,
         -40750470537297516539384636215004907, 0, 1]
    t0 = time.perf_counter()
    assert poly_field_disc(f) == 19326600817209 == 4396203**2
    assert time.perf_counter() - t0 < 5.0


def test_integralize_scale_is_minimal():
    # m takes each prime to the largest power any one coefficient needs, not the
    # sum: 2 sits in the X and the constant term's denominators, 3 in X^2's only
    assert integralize([F(1, 8), F(1, 2), F(0), F(0), F(1)]) == [2, 4, 0, 0, 1]  # m = 2
    assert integralize([F(5, 16), F(1, 4), F(1, 6), F(0), F(1)]) == [405, 54, 6, 0, 1]  # m = 6
    assert integralize([F(-3, 2), F(-3), F(0), F(1)]) == [-12, -12, 0, 1]  # m = 2
    assert integralize([F(-7), F(0), F(-1), F(0), F(1)]) == [-7, 0, -1, 0, 1]  # m = 1


def test_poly_field_disc_rejects_bad_shape():
    for coeffs in ([1, 1], [1, 1, 1, 1, 1, 1, 1], [-2, 0, 2], [7]):
        with pytest.raises(LucasDensityError):
            poly_field_disc(coeffs)


# ---------------------------------------------------------------------------
# conductors
# ---------------------------------------------------------------------------

QUARTIC_ROWS = [
    (QuadElem(-4, F(-3, 5), F(2, 5)), 20, 2, 5),
    (QuadElem(-4, F(3, 5), F(2, 5)), 40, 3, 5),
    (QuadElem(-4, F(-12, 13), F(5, 26)), 208, 4, 13),
    (QuadElem(-4, F(12, 13), F(5, 26)), 208, 4, 13),
]


def _split_conductor(cond, base):
    """(e, rest) with cond = base^e * rest, where rest must be squarefree and prime to base."""
    e = 0
    while cond % base == 0:
        cond //= base
        e += 1
    assert all(k == 1 for _, k in factorize(cond)), f"tame part {cond} is not squarefree"
    return e, cond


def test_quartic_conductor_pinned():
    for elem, value, exponent, odd in QUARTIC_ROWS:
        cond = quartic_conductor(elem)
        assert cond == value, f"conductor of {elem}"
        assert _split_conductor(cond, 2) == (exponent, odd)


CUBIC_ROWS = [
    (QuadElem(-3, F(-13, 14), F(3, 14)), 7, 0, 7),
    (QuadElem(-3, F(1, 7), F(4, 7)), 63, 2, 7),
    (QuadElem(-3, F(13, 37), F(20, 37)), 333, 2, 37),
]


def test_cubic_conductor_pinned():
    for elem, value, exponent, rest in CUBIC_ROWS:
        cond = cubic_conductor(elem)
        assert cond == value, f"conductor of {elem}"
        assert _split_conductor(cond, 3) == (exponent, rest)


def _powered_norm_one(rng, disc, n):
    """A 3rd, 5th or 7th power of w/conj(w), w up to 10^2, that is not an n-th power."""
    while True:
        scale = 10 ** rng.randint(1, 2)
        a, b = rng.randint(-scale, scale), rng.randint(1, scale)
        if a == 0:
            continue
        w = QuadElem(disc, a, b)
        z = qf_pow(qf_mul(w, qf_inv(qf_conj(w))), rng.choice((3, 5, 7)))
        if is_nth_power(z, n) is None:
            return z


# pinned conductors of the seeded corpus below (denominators up to 31 digits)
QUARTIC_CORPUS_VALUES = [
    208, 1924, 18052, 20, 232, 1492, 116, 164, 136, 68,
    20, 1124, 1864, 64784, 272, 788, 244, 9224, 580, 436,
]
CUBIC_CORPUS_VALUES = [
    18639, 34677, 9, 8197, 181881, 9841, 3541, 9, 63, 603,
    259, 95103, 63891, 819, 2611, 927, 26307, 117, 247, 9,
]


def test_conductors_pinned_on_large_denominators():
    rng = random.Random(20261018)
    for expected in QUARTIC_CORPUS_VALUES:
        z = _powered_norm_one(rng, -4, 2)
        cond = quartic_conductor(z)
        assert cond == expected, f"quartic conductor of {z}"
        assert _split_conductor(cond, 2)[0] in (2, 3, 4)
    for expected in CUBIC_CORPUS_VALUES:
        z = _powered_norm_one(rng, -3, 3)
        cond = cubic_conductor(z)
        assert cond == expected, f"cubic conductor of {z}"
        assert _split_conductor(cond, 3)[0] in (0, 2)


def _residue_class(z):
    """(u, 2v) mod 32 over disc -4, (u, v) mod 27 over disc -3: the 2- or 3-adic class of z."""
    mod, scale = (32, 2) if z.disc_k == -4 else (27, 1)
    return tuple(x.numerator * pow(x.denominator, -1, mod) % mod for x in (z.u, scale * z.v))


def test_conductors_match_round_two_on_every_residue_class():
    # by Hensel the 2- and 3-parts of the conductors depend only on these classes
    for disc, n, conductor, reference, classes in (
            (-4, 2, quartic_conductor, reference_quartic_conductor, 32),
            (-3, 3, cubic_conductor, reference_cubic_conductor, 54)):
        base = 2 if disc == -4 else 3
        corpus = {}
        for a in range(-27, 28):
            for b in range(1, 28):
                if a == 0:
                    continue
                w = QuadElem(disc, a, b)
                for k in (1, 2):
                    power = qf_pow(qf_mul(w, qf_inv(qf_conj(w))), k)
                    for z in (power, -power):
                        key = _residue_class(z)
                        if key not in corpus and all(
                                is_nth_power(qf_mul(t, z), n) is None for t in torsion_units(disc)):
                            corpus[key] = z
        assert len(corpus) == classes, disc
        for z in corpus.values():
            cond = conductor(z)
            assert cond == reference(z), f"conductor of {z}"
            _split_conductor(cond, base)


def test_conductors_reject_rational_roots():
    # +-1 give no cyclic quartic or cubic field; the round-two path refused them too
    for one in (F(1), F(-1)):
        with pytest.raises(LucasDensityError, match="off Q"):
            quartic_conductor(QuadElem(-4, one, 0))
        with pytest.raises(LucasDensityError, match="off Q"):
            cubic_conductor(QuadElem(-3, one, 0))


def test_conductor_of_the_large_cubic_is_quick():
    # the root behind the cubic X^3 + a1*X + a0 of the poly_field_disc test above,
    # which is X^3 - 3X - 2u under X -> X/m: m^2 = -a1/3, u = -a0/(2 m^3), 3v^2 = 1 - u^2
    a0 = -2938201594990690163854729250098422201045725639571347
    a1 = -40750470537297516539384636215004907
    m = math.isqrt(-a1 // 3)
    assert 3 * m * m == -a1
    u = F(-a0, 2 * m ** 3)
    v2 = (1 - u * u) / 3
    v = F(math.isqrt(v2.numerator), math.isqrt(v2.denominator))
    assert v * v == v2
    t0 = time.perf_counter()
    cond = cubic_conductor(QuadElem(-3, u, v))
    assert time.perf_counter() - t0 < 1.0
    assert cond == 4396203 == 9 * 488467
    assert _split_conductor(cond, 3) == (2, 488467)


def test_gaussian_dispatch_with_large_coefficients_is_quick():
    # round two on this root's quartic spent more than 60 s factoring its discriminant
    w = QuadElem(-4, 123456789012, 98765432101)
    t0 = time.perf_counter()
    res = dispatch(qf_mul(w, qf_inv(qf_conj(w))), 8)
    assert time.perf_counter() - t0 < 2.0
    assert (res.delta, res.case_tag) == (F(1, 3), CASE_GAUSS)


def _random_norm_one(rng, disc):
    """z = w / conj(w) for a random w; such quotients have norm 1 by construction."""
    while True:
        a, b = rng.randint(-9, 9), rng.randint(1, 9)
        if a == 0:
            continue
        w = QuadElem(disc, a, b)
        return qf_mul(w, qf_inv(qf_conj(w)))


def test_conductor_shapes_on_random_norm_one_inputs():
    rng = random.Random(20260822)
    quartic_done = cubic_done = 0
    while quartic_done < 50:
        z = _random_norm_one(rng, -4)
        if is_nth_power(z, 2) is not None:
            continue
        exponent, rest = _split_conductor(quartic_conductor(z), 2)
        assert exponent in (2, 3, 4)
        assert rest % 2 == 1
        quartic_done += 1
    while cubic_done < 50:
        z = _random_norm_one(rng, -3)
        if is_nth_power(z, 3) is not None:
            continue
        exponent, rest = _split_conductor(cubic_conductor(z), 3)
        assert exponent in (0, 2)
        assert rest % 3 != 0
        cubic_done += 1


def test_lcm_identity_on_random_norm_one_inputs():
    rng = random.Random(11)
    for disc in (-3, -4, -15, 5, 8, 29):
        for _ in range(10):
            z = _random_norm_one(rng, disc)
            data = sqrt_data(z)
            assert data.q_flag is True  # w/conj(w) always has norm 1
            d1, d2 = abs(data.delta1), abs(data.delta2)
            if d1 == 1 or d2 == 1:
                continue
            dk = abs(disc)
            assert math.lcm(dk, d1) == math.lcm(dk, d2) == math.lcm(d1, d2)


# ---------------------------------------------------------------------------
# kummer_degree
# ---------------------------------------------------------------------------


def test_kummer_degree_real_unit_square():
    profile = kummer_profile(QuadElem(8, 3, 1))  # h = 2, square of 1+sqrt(2)
    assert profile.h == 2 and profile.pix.table[0] == 2
    assert profile.sqrt.q_flag is False
    assert kummer_degree(2, 2, profile) == 2


def test_kummer_degree_no_kummer_part():
    profile = kummer_profile(QuadElem(5, F(3, 2), F(1, 2)))  # square of the golden unit
    assert profile.h == 2
    assert kummer_degree(4, 1, profile) == 4


def test_kummer_degree_gaussian_full_tower():
    gamma = QuadElem(-4, F(-3, 5), F(2, 5))
    profile = kummer_profile(gamma)
    assert profile.h == 1
    assert profile.conductor == quartic_conductor(profile.pix.gamma0) == 20
    assert kummer_degree(40, 4, profile) == 16


def test_profile_derives_its_square_root_data_and_conductor():
    gauss = QuadElem(-4, F(-3, 5), F(2, 5))
    pix = power_index(gauss)
    profile = KummerProfile(gauss, pix)
    assert profile == kummer_profile(gauss)
    assert profile.sqrt == sqrt_data(pix.gamma0) and profile.conductor == 20
    assert kummer_degree(20, 2, profile) == 8
    # the derived fields are not arguments
    other = normal_form(REFERENCE_PROFILES[4].gamma)  # conductor 40
    with pytest.raises(TypeError):
        KummerProfile(gauss, pix, sqrt_data(power_index(other).gamma0), 40)
    with pytest.raises(TypeError):
        KummerProfile(gauss, pix, conductor=40)
    # another element's power index would give kummer_degree(20, 2, .) = 16
    with pytest.raises(LucasDensityError, match=r"^the profile of \(-3\+2\*sqrt\(-4\)\)/5"
                       r" needs its own power index, got that of"):
        KummerProfile(gauss, power_index(other))


def test_kummer_degree_rejects_non_divisor():
    profile = kummer_profile(QuadElem(8, 3, 1))
    with pytest.raises(LucasDensityError):
        kummer_degree(10, 4, profile)


def test_kummer_degree_divisibility_bounds():
    fixtures = [kummer_profile(gamma) for gamma in (
        QuadElem(8, 3, 1), QuadElem(5, F(3, 2), F(1, 2)),
        QuadElem(-4, F(-3, 5), F(2, 5)), QuadElem(-3, F(-13, 14), F(3, 14)))]
    assert [p.conductor for p in fixtures] == [
        None, None, quartic_conductor(fixtures[2].pix.gamma0),
        cubic_conductor(fixtures[3].pix.gamma0)]

    for profile in fixtures:
        pix, disc = profile.pix, profile.gamma.disc_k
        h = pix.table[0]
        nmu = len(pix.table)
        for n in range(1, 61):
            for dd in (1, 2, 3, 4, 6):
                if n % dd:
                    continue
                deg = kummer_degree(n, dd, profile)
                phi = euler_phi(n)
                assert (2 * dd * phi) % deg == 0, (disc, n, dd, deg)
                # lower bound: deg * (dd,h) * #mu(K) is a multiple of dd*phi(n)
                assert (deg * math.gcd(dd, h) * nmu) % (dd * phi) == 0, (disc, n, dd, deg)
                assert deg * math.gcd(dd, h) * nmu >= dd * phi


def test_kummer_degree_eisenstein_power_pattern():
    # For 3 | disc: degree(3^(k+j)*n0, 3^k) keeps the shape cofactor * 3^(k+j-1)
    gamma = QuadElem(-3, F(-13, 14), F(3, 14))
    profile = kummer_profile(gamma)
    assert profile.conductor == cubic_conductor(profile.pix.gamma0)
    for k in (1, 2):
        ratios = set()
        for j in range(0, 4):
            deg = kummer_degree(3 ** (k + j) * 14, 3 ** k, profile)
            num, rem = divmod(deg, 3 ** (k + j - 1))
            assert rem == 0
            ratios.add(num)
        assert len(ratios) == 1, f"k={k}: cofactors {ratios}"


def test_kummer_degree_gaussian_power_pattern():
    # For 2 | disc: degree(2^(k+j)*n0, 2^k) keeps the shape cofactor * 2^(k+j-2)
    gamma = QuadElem(-4, F(-3, 5), F(2, 5))
    profile = kummer_profile(gamma)
    assert profile.conductor == quartic_conductor(profile.pix.gamma0)
    for k in (1, 2):
        ratios = set()
        for j in range(2, 6):  # j large enough that every membership has saturated
            deg = kummer_degree(2 ** (k + j) * 5, 2 ** k, profile)
            num, rem = divmod(deg, 2 ** (k + j - 2))
            assert rem == 0
            ratios.add(num)
        assert len(ratios) == 1, f"k={k}: cofactors {ratios}"


# ---------------------------------------------------------------------------
# sigma_exists
# ---------------------------------------------------------------------------


def test_sigma_exists_imaginary_always():
    profile = kummer_profile(QuadElem(-15, F(17, 32), F(7, 32)))
    for dv in (1, 2, 6, 8, 30):
        for uv in (1, 2):
            if dv % uv:
                continue
            assert sigma_exists(dv, uv, profile) is True


def test_sigma_exists_real_norm_branch():
    # square of (5+sqrt(29))/2: h2 = 2, the h2-root has norm -1
    profile = kummer_profile(QuadElem(29, F(27, 2), F(5, 2)))
    assert profile.h == 2 and profile.sqrt.q_flag is False
    assert sigma_exists(8, 2, profile) is False
    assert sigma_exists(8, 1, profile) is True


def test_sigma_exists_real_square_branch():
    # square of (21+8*sqrt(5))/11: the h2-root has norm 1 and c = 5/11 > 0, delta2 = 44
    gamma = QuadElem(5, F(761, 121), F(336, 121))
    profile = kummer_profile(gamma)
    sq = profile.sqrt
    assert profile.h == 2 and sq.q_flag is True
    assert sq.c == F(5, 11) and sq.delta1 == 220 and sq.delta2 == 44
    assert sigma_exists(44, 4, profile) is True   # c > 0 and delta2 | dv
    assert sigma_exists(44, 2, profile) is True   # falls into the first branch
    assert sigma_exists(20, 4, profile) is False  # disc divides dv
    assert sigma_exists(220, 4, profile) is False  # disc divides dv here too


def test_sigma_exists_rejects_bad_pair():
    profile = kummer_profile(QuadElem(8, 3, 1))
    with pytest.raises(LucasDensityError):
        sigma_exists(4, 3, profile)
