"""Tests for the closed-form density layer: inner sums, case routing, tables."""

import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

import lucasdensity
from lucasdensity.arith import divisors, factorize, gcd_power_infinity, moebius
from lucasdensity.density import (
    CASE_EISEN,
    CASE_EISEN_HOMEGA,
    CASE_GAUSS,
    CASE_GAUSS_HI,
    CASE_ODD_GENERIC,
    CASE_Q0,
    CASE_Q1_IMAG,
    CASE_SWITCH,
    REFERENCE_PROFILES,
    REFERENCE_ROWS,
    DensityResult,
    STerm,
    _pix,
    _profile,
    _stable_exponents,
    _valuation,
    dispatch,
    kummer_profile,
    normal_form,
    s_eval,
    series_oracle,
)
from lucasdensity.errors import (
    HypothesisError,
    LucasDensityError,
    OracleMismatchError,
    ReducibleError,
    TorsionError,
)
from lucasdensity.kummer import kummer_degree, sigma_exists
from lucasdensity.quadfield import (
    QuadElem,
    gamma_from_radicand,
    make_context,
    power_index,
    qf_conj,
    qf_inv,
    qf_mul,
    qf_pow,
    torsion_units,
)


def qf_neg(x: QuadElem) -> QuadElem:
    return QuadElem(x.disc_k, -x.u, -x.v)

from oracles import brute_s_sum
from test_golden import _canonical

F = Fraction


# ---------------------------------------------------------------------------
# s_eval: pinned values and the brute-force series oracle
# ---------------------------------------------------------------------------


def test_s_eval_pinned_values():
    assert s_eval(8, 1, 1, 1) == F(1, 6)
    assert s_eval(8, 5, 1, 2) == 0
    assert s_eval(10, 2, 1, 4) == F(-5, 288)
    assert s_eval(30, 4, 4, 8) == F(-5, 768)
    # lcm(4, nu*h_d) == lcm(2, nu*h_d) == 8 here, so e=4 matches e=2:
    assert s_eval(10, 4, 4, 8) == s_eval(10, 2, 4, 8) == F(-5, 288)


def test_s_eval_gauss_intermediates():
    assert s_eval(10, 1, 1, 1) == F(5, 36)
    assert s_eval(10, 2, 1, 1) == F(5, 144)
    assert s_eval(10, 1, 1, 2) == F(-5, 72)
    assert s_eval(10, 2, 1, 2) == F(5, 144)


def test_s_eval_vanishing_outside_support():
    # e (or nu) with a prime not dividing d kills the sum
    assert s_eval(6, 5, 2, 1) == 0
    assert s_eval(6, 1, 2, 5) == 0


def test_s_eval_hypothesis_guard():
    with pytest.raises(HypothesisError):
        s_eval(8, 1, 4, 2)  # (h, nu^inf) = 4 does not divide nu = 2


def test_s_eval_rejects_nonpositive():
    with pytest.raises(LucasDensityError):
        s_eval(0, 1, 1, 1)
    with pytest.raises(LucasDensityError):
        s_eval(8, 1, -2, 1)


def test_s_eval_matches_brute_series():
    rng = random.Random(411)
    checked = 0
    for _ in range(40):
        d = rng.randint(1, 40)
        e = rng.choice([1, 2, 3, 4, 5, 6, 8])
        h = rng.choice([1, 2, 3, 4, 6, 8, 12])
        nu = rng.choice([1, 2, 4, 8])
        from lucasdensity.arith import gcd_power_infinity

        if nu % gcd_power_infinity(h, nu):
            continue
        closed = s_eval(d, e, h, nu)
        assert closed == brute_s_sum(d, e, h, nu), (d, e, h, nu)
        checked += 1
    assert checked >= 25


# ---------------------------------------------------------------------------
# reference table: 18 worked rows, exact
# ---------------------------------------------------------------------------


def test_reference_rows_exact():
    assert len(REFERENCE_ROWS) == 18
    for row in REFERENCE_ROWS:
        res = dispatch(row.gamma, row.d)
        assert res.delta == row.delta, (row.gamma, row.d)
        assert res.case_tag == row.case_tag, (row.gamma, row.d)


def test_reference_case_coverage():
    tags = {row.case_tag for row in REFERENCE_ROWS}
    assert tags == {
        CASE_Q0,
        CASE_Q1_IMAG,
        CASE_GAUSS,
        CASE_GAUSS_HI,
        CASE_EISEN,
        CASE_EISEN_HOMEGA,
        CASE_SWITCH,
    }


def test_single_annotated_row():
    noted = [row for row in REFERENCE_ROWS if row.annotation]
    assert len(noted) == 1
    assert noted[0].d == 26
    assert noted[0].delta == F(611, 8064)
    assert "661/8064" in noted[0].annotation


def test_reference_profiles():
    assert len(REFERENCE_PROFILES) == 9
    for exp in REFERENCE_PROFILES:
        pix = power_index(exp.gamma)
        assert pix.h == exp.h, exp.gamma
        assert pix.zeta_star_exp == exp.zeta_exp, exp.gamma
        prof = kummer_profile(normal_form(exp.gamma))
        assert prof.sqrt.q_flag == exp.q, exp.gamma
        assert prof.conductor == exp.conductor, exp.gamma


def test_profile_caches_stay_bounded():
    elems = []
    for a in range(1, 400):
        w = QuadElem(-15, a, 1)
        g = normal_form(qf_mul(w, qf_inv(qf_conj(w))))
        if g not in elems:
            elems.append(g)
        if len(elems) == 300:
            break
    profiles = [kummer_profile(g) for g in elems]
    for cache in (_profile, _pix):
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize < len(elems)
    assert kummer_profile(elems[-1]) is profiles[-1]  # still cached
    again = kummer_profile(elems[0])  # evicted, so computed afresh
    assert again is not profiles[0] and again == profiles[0]


def test_fibonacci_even_rank_density():
    ctx = make_context(1, -1)
    res = dispatch(ctx, 2)
    assert res.delta == F(2, 3)
    assert res.case_tag == CASE_SWITCH
    assert res.delta_plus == F(5, 12)
    assert res.delta_minus == F(1, 4)


def test_companion_pair_context_rejections():
    with pytest.raises(ReducibleError):
        make_context(2, 1)  # square discriminant
    with pytest.raises(TorsionError):
        make_context(1, 1)  # root of unity ratio


# ---------------------------------------------------------------------------
# structural properties of the density map
# ---------------------------------------------------------------------------

# five elements, one per routing family, reused by the property suites
PROPERTY_ELEMENTS = (
    REFERENCE_ROWS[0].gamma,   # Q0
    REFERENCE_ROWS[4].gamma,   # Q1_imag
    REFERENCE_ROWS[8].gamma,   # GAUSS_HI
    REFERENCE_ROWS[14].gamma,  # EISEN_HOMEGA
    REFERENCE_ROWS[16].gamma,  # SWITCH_MINUS1
)


def test_delta_at_one_is_one():
    for gamma in PROPERTY_ELEMENTS:
        res = dispatch(gamma, 1)
        assert res.delta == 1
    assert dispatch(make_context(1, -1), 1).delta == 1


def test_divisor_monotonicity():
    for gamma in PROPERTY_ELEMENTS:
        vals = {d: dispatch(gamma, d).delta for d in range(1, 61)}
        for d in range(1, 61):
            for dp in range(2 * d, 61, d):
                assert vals[dp] <= vals[d], (gamma, d, dp)


def test_split_components_sum():
    for gamma in PROPERTY_ELEMENTS:
        for d in (1, 2, 3, 4, 6, 9, 10, 12, 20, 36):
            res = dispatch(gamma, d)
            assert res.delta_plus + res.delta_minus == res.delta


def test_imaginary_field_splits_evenly():
    for gamma in PROPERTY_ELEMENTS:
        if gamma.disc_k > 0:
            continue
        for d in (2, 3, 4, 5, 6, 8, 10, 12, 26, 30):
            res = dispatch(gamma, d)
            assert res.delta_plus == res.delta_minus, (gamma, d)


def test_conjugation_invariance():
    for row in REFERENCE_ROWS:
        a = dispatch(row.gamma, row.d)
        b = dispatch(qf_conj(row.gamma), row.d)
        assert (a.delta, a.delta_plus, a.delta_minus) == (b.delta, b.delta_plus, b.delta_minus)
        assert a.case_tag == b.case_tag


def test_switch_passthrough_off_the_special_stratum():
    # with v2(d) != 1 the sign switch is transparent: same density as -gamma
    gamma = REFERENCE_ROWS[2].gamma  # routed through SWITCH_MINUS1
    for d in (1, 3, 4, 8, 9, 12, 20):
        res = dispatch(gamma, d)
        direct = dispatch(qf_neg(gamma), d)
        assert res.delta == direct.delta, d
        assert res.delta_plus == direct.delta_plus, d


def test_switch_inclusion_exclusion_on_even_part_two():
    gamma = REFERENCE_ROWS[2].gamma
    minus = qf_neg(gamma)
    for d in (2, 6, 10, 14):
        res = dispatch(gamma, d)
        expect = (
            dispatch(minus, 2 * d).delta
            + dispatch(minus, d // 2).delta
            - dispatch(minus, d).delta
        )
        assert res.delta == expect, d


def test_result_shape():
    res = dispatch(REFERENCE_ROWS[0].gamma, 6)
    assert isinstance(res, DensityResult)
    assert res.trace
    total = sum(t.coefficient * t.value for t in res.trace)
    assert total == res.delta
    assert res.inputs_echo["h"] == 2


def test_result_derives_delta_from_its_split():
    term = STerm(1, 1, 1, 1, Fraction(3, 8), Fraction(1))
    res = DensityResult(Fraction(1, 4), Fraction(1, 8), "t", (term,), {})
    assert res.delta == Fraction(3, 8)
    with pytest.raises(TypeError):
        DensityResult(Fraction(3, 8), Fraction(1, 4), Fraction(1, 8), "t", (term,), {})
    with pytest.raises(LucasDensityError, match="delta_minus=-1/8 is negative"):
        DensityResult(Fraction(1, 2), Fraction(-1, 8), "t", (term,), {})
    with pytest.raises(LucasDensityError, match="trace does not reproduce delta=3/8"):
        DensityResult(Fraction(1, 4), Fraction(1, 8), "t", (), {})


# ---------------------------------------------------------------------------
# exact series sum vs the closed forms
# ---------------------------------------------------------------------------


def test_oracle_contains_closed_forms():
    t0 = time.monotonic()
    seen = set()
    for row in REFERENCE_ROWS:
        norm = normal_form(row.gamma)
        key = (norm, row.d)
        if key in seen:
            continue
        seen.add(key)
        closed = dispatch(norm, row.d)
        assert series_oracle(norm, row.d) == closed.delta, key
    assert time.monotonic() - t0 < 30


def test_normal_form_is_the_maximising_twist():
    for exp in REFERENCE_PROFILES:
        norm = normal_form(exp.gamma)
        assert norm == qf_mul(torsion_units(exp.gamma.disc_k)[exp.zeta_exp], exp.gamma)
        assert (norm == exp.gamma) == (exp.zeta_exp == 0)
        assert normal_form(norm) == norm


def test_oracle_rejects_twisted_element_with_typed_error():
    ctx = make_context(1, -1)  # the Fibonacci root quotient is twisted by -1
    with pytest.raises(LucasDensityError, match="normal_form") as info:
        series_oracle(ctx, 2)
    assert type(info.value) is LucasDensityError
    assert str(ctx.gamma) in str(info.value)
    norm = normal_form(ctx)
    assert series_oracle(norm, 2) == dispatch(norm, 2).delta
    row = REFERENCE_ROWS[8]  # a twisted Gaussian element: normalising changes the density
    assert dispatch(normal_form(row.gamma), row.d).delta == Fraction(5, 144) != row.delta


@pytest.mark.parametrize("gamma, field, d", [
    (QuadElem(-12, Fraction(-13, 14), Fraction(3, 28)), -3, 3),  # a reference row over -12
    (QuadElem(32, Fraction(3), Fraction(1, 2)), 8, 2),  # 3 + sqrt(8)
])
def test_non_fundamental_disc_is_refused(gamma, field, d):
    # over -12 this element dispatched to 3/8 (ODD_GENERIC) and over 32 to 257/384,
    # against 3/4 (EISEN) and 17/24 over the field's own discriminant
    message = (rf"disc_k = {gamma.disc_k} is not a fundamental discriminant"
               rf" \(the field's is {field}\): build the element with gamma_from_radicand")
    for call in (lambda: dispatch(gamma, d), lambda: series_oracle(gamma, d),
                 lambda: normal_form(gamma)):
        with pytest.raises(LucasDensityError, match=message) as info:
            call()
        assert type(info.value) is LucasDensityError
    fixed = gamma_from_radicand(gamma.u, gamma.v, gamma.disc_k)
    assert fixed.disc_k == field
    assert dispatch(fixed, d).delta == {3: Fraction(3, 4), 2: Fraction(17, 24)}[d]


def test_context_disc_is_not_checked_again(monkeypatch):
    # make_context takes disc_k from disc_and_scale; dispatch must not factor it again
    def refuse(q):
        raise AssertionError(f"disc_and_scale({q}) called from the density layer")
    monkeypatch.setattr("lucasdensity.density.disc_and_scale", refuse)
    assert dispatch(make_context(1, -1), 2).delta == Fraction(2, 3)
    assert dispatch(make_context(3, 7), 6).case_tag == CASE_Q1_IMAG


def test_large_pair_finishes_quickly():
    # bounded only because is_nth_power rejects wrong p-adic candidates by
    # their norm before it re-powers them exactly
    t0 = time.perf_counter()
    res = dispatch(make_context(7, 2**64), 8)
    assert time.perf_counter() - t0 < 2.0
    assert (res.delta, res.delta_plus, res.delta_minus) == (F(1, 12), F(1, 24), F(1, 24))
    assert res.case_tag == CASE_Q1_IMAG
    assert [(t.d, t.e, t.h, t.nu, t.coefficient, t.value) for t in res.trace] == [
        (8, 1, 2, 1, F(1), F(1, 12))
    ]


def test_oracle_narrow_on_trivial_divisor():
    gamma = REFERENCE_ROWS[0].gamma
    # the v-series over 1^inf is the single term v = 1
    assert series_oracle(gamma, 1) == 1


def test_oracle_enclosures_pinned():
    # every profile's series sum is its closed form, odd and even d alike
    for exp in REFERENCE_PROFILES:
        norm = normal_form(exp.gamma)
        for d in range(1, 61):
            assert series_oracle(norm, d) == dispatch(norm, d).delta, (norm, d)


def _series_term(profile, d: int, v: int) -> Fraction:
    """Sum over u | d of mu(u) * (1 + sigma(dv, uv)) / [K_{dv,uv} : Q]: the v-th term."""
    return sum((F(moebius(u) * (1 + sigma_exists(d * v, u * v, profile)),
                  kummer_degree(d * v, u * v, profile)) for u in divisors(d)), F(0))


def _high_powers(disc: int, exponents) -> list:
    return [normal_form(qf_pow(exp.gamma, k)) for exp in REFERENCE_PROFILES
            if exp.gamma.disc_k == disc for k in exponents]


def test_series_terms_geometric_past_threshold():
    # Gaussian forms with v2(h) >= 4 are the ones a threshold set with h, 16
    # and 27 kept apart gets wrong: the t-test compares uv with 4 * h_4
    gauss_hi = _high_powers(-4, (8, 16))
    assert max(_pix(g).h for g in gauss_hi) >= 16
    corpus = [(g, d) for g in gauss_hi for d in (10, 26)]
    corpus += [(g, d) for g in _high_powers(-3, (9, 27)) for d in (15, 21)]
    rng = random.Random(1103)
    elements = [normal_form(exp.gamma) for exp in REFERENCE_PROFILES]
    while len(elements) < 21:
        try:
            elements.append(normal_form(make_context(rng.randint(-60, 60), rng.randint(-60, 60))))
        except LucasDensityError:
            continue
    corpus += [(g, rng.randint(1, 60)) for g in elements for _ in range(3)]
    checked = 0
    for gamma, d in corpus:
        profile = kummer_profile(gamma)
        tops = _stable_exponents(profile, d)
        # the other exponents at 0 and at their thresholds
        for base in (1, math.prod(p ** top for p, top in tops)):
            for p, top in tops:
                v = base // p ** _valuation(base, p) * p ** top
                assert _series_term(profile, d, v * p) == _series_term(profile, d, v) / (p * p), (
                    gamma, d, p, top)
                checked += 1
    assert checked > 100


def test_series_sum_on_high_powers():
    for gamma in _high_powers(-4, (8, 16)) + _high_powers(-3, (9, 27)):
        for d in range(1, 61):
            assert series_oracle(gamma, d) == dispatch(gamma, d).delta, (gamma, d)


def test_series_euler_factor_primes_pinned():
    # the Fibonacci normal form (3 + sqrt 5)/2: h = 2, disc 5, and its square
    # root has norm -1, so the fixed integers are 32, 54, 5 and #mu = 2
    profile = kummer_profile(normal_form(make_context(1, -1)))
    assert (profile.h, profile.sqrt.q_flag, profile.conductor) == (2, False, None)
    d = 2 * 3 * 5 * 7 * 11 * 13
    assert _stable_exponents(profile, d) == [(2, 5), (3, 3), (5, 1), (7, 0), (11, 0), (13, 0)]


def test_oracle_mismatch_names_both_values(monkeypatch):
    gamma = normal_form(make_context(1, -1))
    monkeypatch.setattr("lucasdensity.density._series", lambda profile, d: F(1, 7))
    with pytest.raises(OracleMismatchError) as info:
        dispatch(gamma, 3)
    assert str(info.value) == ("closed form 3/8 differs from the series sum 1/7"
                               f" for d=3, element {gamma}")


def test_many_prime_divisor_finishes_quickly():
    gamma = normal_form(make_context(1, -1))
    d = math.prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
    t0 = time.perf_counter()
    res = dispatch(gamma, d)
    assert time.perf_counter() - t0 < 1.0
    assert res.case_tag == CASE_ODD_GENERIC
    assert res.delta == series_oracle(gamma, d) == F(86822723, 7101178668122112000)


# sha256 over test_golden._canonical for d in 1..60 of four Eisenstein elements
# whose power index is attained only at a primitive sixth root of unity (no
# golden element is), recorded before that twist shared the -1 branch
SIXTH_ROOT_DIGEST = "ac053f9f5105c5a68d2a3633f367e7f4e4a43826ed61f7cf9a08bf2870fe28df"


def test_sixth_root_twists_pinned():
    units = torsion_units(-3)
    lines = []
    for beta in (QuadElem(-3, F(-13, 14), F(3, 14)), QuadElem(-3, F(13, 37), F(20, 37))):
        for k, j in ((5, 1), (1, 5)):
            gamma = qf_mul(units[k], qf_pow(beta, 6))  # zeta^j * gamma = beta^6
            pix = power_index(gamma)
            assert (pix.h, pix.zeta_star_exp) == (6, j)
            lines += [_canonical(gamma, d) for d in range(1, 61)]
    assert sum("SWITCH_MINUS1" in line for line in lines) == 236  # all but d = 1
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == SIXTH_ROOT_DIGEST


# The two higher-twist scales as they were written per field before the
# shared (q, c, K) table: an oracle independent of the merged formula.
def _gauss_hi_scale(d, profile):
    k = dict(factorize(d)).get(2, 0)
    d_odd = d >> k
    h2 = gcd_power_infinity(profile.h, 2)
    m = int(8 * d_odd % abs(profile.sqrt.delta1) == 0) + int(
        16 * d_odd % profile.conductor == 0
    )
    if k == 0:
        factor = Fraction(1)
    elif k <= 2:
        factor = 1 - Fraction(2**k, 3 * 2 ** (m + 2) * h2)
    else:
        factor = Fraction(8, 3 * 2 ** (k + m) * h2)
    return k, d_odd, m, factor


def _eisen_homega_scale(d, profile):
    k = dict(factorize(d)).get(3, 0)
    d_prime = d // 3 ** k
    h3 = gcd_power_infinity(profile.h, 3)
    m = int(9 * d_prime % profile.conductor == 0)
    if k == 0:
        factor = Fraction(1)
    elif k == 1:
        factor = 1 - Fraction(1, 4 * 3**m * h3)
    else:
        factor = Fraction(9, 4 * 3 ** (k + m) * h3)
    return k, d_prime, m, factor


def _hi_twist_corpus():
    """Gaussian and Eisenstein elements twisted by a primitive 4th or 3rd root, with h_q > 1."""
    for exp in REFERENCE_PROFILES:
        disc = exp.gamma.disc_k
        if disc not in (-3, -4) or exp.zeta_exp in (0, len(torsion_units(disc)) // 2):
            continue
        yield exp.gamma
        yield qf_conj(exp.gamma)
        q = 2 if disc == -4 else 3
        norm = normal_form(exp.gamma)
        untwist = torsion_units(disc)[-exp.zeta_exp]
        for power in (q, q * q):
            yield qf_mul(untwist, qf_pow(norm, power))
    # the root has valuation 1 above 5 and 2 above 13: delta1 sees 5 and the
    # conductor 5 * 13, so r = 5 passes one test (m = 1)
    root = qf_mul(QuadElem(-4, F(3, 5), F(2, 5)), qf_pow(QuadElem(-4, F(5, 13), F(6, 13)), 2))
    for power in (2, 8):
        yield qf_mul(torsion_units(-4)[3], qf_pow(root, power))


def test_hi_twist_scale_matches_the_per_field_formulas():
    seen = {-4: set(), -3: set()}
    h_q = set()
    for gamma in _hi_twist_corpus():
        disc = gamma.disc_k
        pix = power_index(gamma)
        base = qf_conj(gamma) if 2 * pix.zeta_star_exp > len(pix.table) else gamma
        norm = normal_form(base)
        profile = kummer_profile(norm)
        if disc == -4:
            q, top, tag, key, old = 2, 8, CASE_GAUSS_HI, "d_odd", _gauss_hi_scale
        else:
            q, top, tag, key, old = 3, 6, CASE_EISEN_HOMEGA, "d_prime", _eisen_homega_scale
        h_q.add((disc, gcd_power_infinity(profile.h, q)))
        for r in (1, 2, 5, 7, 13, 14, 35, 65, 91, 455):
            if r % q == 0:
                continue
            for k in range(top + 1):
                d = q**k * r
                if d == 1:
                    continue
                old_k, rest, m, scale = old(d, profile)
                res = dispatch(gamma, d)
                echo = res.inputs_echo
                assert res.case_tag == tag, (gamma, d)
                assert (echo["k"], echo[key], echo["m"]) == (old_k, rest, m) == (k, r, m)
                assert echo["scale"] == scale, (gamma, d)
                assert res.delta == dispatch(norm, rest).delta * scale, (gamma, d)
                assert res.delta_plus == res.delta_minus == res.delta / 2
                seen[disc].add(m)
    assert seen == {-4: {0, 1, 2}, -3: {0, 1}}
    assert {(-4, 4), (-4, 8), (-3, 9), (-3, 27)} <= h_q


def test_public_names_resolve_and_errors_share_the_base():
    for name in lucasdensity.__all__:
        value = getattr(lucasdensity, name)
        if isinstance(value, type) and issubclass(value, BaseException):
            assert issubclass(value, LucasDensityError), name
    assert "CaseError" not in lucasdensity.__all__
