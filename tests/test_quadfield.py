import copy
import dataclasses
import hashlib
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lucasdensity.density import (REFERENCE_PROFILES, dispatch, kummer_profile, normal_form,
                                  series_oracle)
from lucasdensity.errors import (
    DiscMismatchError,
    DivisionByZeroError,
    LucasDensityError,
    ReducibleError,
    TorsionError,
    ZeroParameterError,
)
from lucasdensity.quadfield import (
    QuadElem,
    SequenceContext,
    _support_exponents,
    _tie_break_order,
    disc_and_scale,
    fundamental_unit,
    gamma_from_radicand,
    is_nth_power,
    is_torsion,
    make_context,
    power_index,
    qf_conj,
    qf_inv,
    qf_mul,
    qf_norm,
    qf_one,
    qf_pow,
    root_quotient,
    torsion_units,
    zeta_label,
)
from lucasdensity.lucasrank import dump_ranks, empirical_density, rank

from oracles import padic_support_exponents, reference_fundamental_unit

# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


# run under python -O, which strips assert statements
_OPTIMIZED_CHECK = """
from fractions import Fraction
from lucasdensity import (DensityResult, EmpiricalReport, LucasDensityError, QuadElem, STerm,
                          dispatch, empirical_density, gamma_from_radicand, make_context,
                          power_index, rank)
from lucasdensity.quadfield import fundamental_unit, is_nth_power
from lucasdensity.density import kummer_profile
from lucasdensity.kummer import (KummerProfile, _membership, cubic_conductor, quartic_conductor,
                                 sqrt_data)
fib = make_context(1, -1).gamma
calls = [lambda disc=disc: dispatch(QuadElem(disc, 1, 1), 2) for disc in (7, 0, 9, 4)]
calls.append(lambda: power_index(QuadElem(5, 2, 0)))
calls.append(lambda: dispatch(QuadElem(20, Fraction(-3, 2), Fraction(-1, 4)), 2))
calls.append(lambda: STerm(2, 1, 1, 0, Fraction(1)))
calls.append(lambda: KummerProfile(fib, power_index(fib)))
calls.append(lambda: _membership(5, 10, kummer_profile(QuadElem(5, Fraction(3, 2), Fraction(1, 2)))))
calls.append(lambda: DensityResult(Fraction(1), Fraction(1), "t", (), {}))
calls.append(lambda: EmpiricalReport(2, 10, 3, 4, 5))
calls.append(lambda: empirical_density(make_context(1, -1), 2.5, 1000))
calls.append(lambda: dispatch(QuadElem(-12, Fraction(-13, 14), Fraction(3, 28)), 3))
calls.append(lambda: sqrt_data(QuadElem(5, 3, 1)))
calls.append(lambda: cubic_conductor(QuadElem(-4, Fraction(-3, 5), Fraction(2, 5))))
calls.append(lambda: quartic_conductor(QuadElem(-3, Fraction(-13, 14), Fraction(3, 14))))
calls.append(lambda: rank(7, 5))
calls.append(lambda: empirical_density(fib, 2, 1e4))
calls.append(lambda: power_index(5))
calls.append(lambda: sqrt_data(QuadElem(8, 1, 0)))
calls.append(lambda: gamma_from_radicand(1, 1, 5.5))
calls.append(lambda: make_context(True, -1))
calls.append(lambda: QuadElem("5", 1, 1))
calls.append(lambda: QuadElem(5.0, 1, 1))
calls.append(lambda: QuadElem(5, "a", 1))
one = STerm(1, 1, 1, 1, Fraction(3, 8))
calls.append(lambda: DensityResult(0.25, 0.125, "t", (one,), {}))
near = STerm(1, 1, 1, 1, Fraction(3, 8) - Fraction(1, 3 * 2**61))
calls.append(lambda: DensityResult(Fraction(1, 4), Fraction(1, 8), "t", (near,), {}))
calls.append(lambda: DensityResult(Fraction(1, 2), 0, "t", (1,), {}))
calls.append(lambda: EmpiricalReport(2, 10, 1.5, 1, 3))
calls.append(lambda: EmpiricalReport(2, 0, 0, 0, 0))
calls.append(lambda: fundamental_unit(5.0))
calls.append(lambda: is_nth_power(fib, 2.0))
calls.append(lambda: is_nth_power(fib, True))
calls.append(lambda: is_nth_power(fib, 0))
calls.append(lambda: sqrt_data(5))
calls.append(lambda: quartic_conductor(5))
calls.append(lambda: cubic_conductor(5))
for call in calls:
    try:
        call()
    except LucasDensityError as exc:
        print(type(exc).__name__, exc)
"""


def test_quad_elem_validation_survives_optimize_flag():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_CHECK],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "LucasDensityError not a discriminant: 7",
        "LucasDensityError not a discriminant: 0",
        "LucasDensityError square discriminant: 9",
        "LucasDensityError square discriminant: 4",
        "LucasDensityError power index needs a norm-1 element, got 2+0*sqrt(5) of norm 4",
        "LucasDensityError disc_k = 20 is not a fundamental discriminant (the field's is 5):"
        " build the element with gamma_from_radicand",
        "LucasDensityError nu must be a positive integer, got 0",
        "LucasDensityError (-3-1*sqrt(5))/2 is not in normal form: pass normal_form(gamma),"
        " whose density can differ from the twisted element's",
        "LucasDensityError no twisted-root membership test for m=5",
        "LucasDensityError DensityResult.delta=2 is outside [0, 1]",
        "LucasDensityError EmpiricalReport needs 0 <= counted_plus=4 <= counted=3"
        " <= eligible=5",
        "LucasDensityError d must be a positive integer, got 2.5",
        "LucasDensityError disc_k = -12 is not a fundamental discriminant (the field's is -3):"
        " build the element with gamma_from_radicand",
        "LucasDensityError sqrt_data needs a root of norm +-1 off Q, got 3+1*sqrt(5) of norm 4",
        "LucasDensityError cubic_conductor needs a norm-1 root over disc -3 off Q,"
        " got (-3+2*sqrt(-4))/5",
        "LucasDensityError quartic_conductor needs a norm-1 root over disc -4 off Q,"
        " got (-13+3*sqrt(-3))/14",
        "LucasDensityError rank needs a sequence context or field element, got 5",
        "LucasDensityError x must be a positive integer, got 10000.0",
        "LucasDensityError power index needs a sequence context or field element, got 5",
        "LucasDensityError sqrt_data needs a root of norm +-1 off Q, got 1+0*sqrt(8) of norm 1",
        "LucasDensityError radicand must be an integer, got 5.5",
        "LucasDensityError a1 must be an integer, got True",
        "LucasDensityError disc_k must be an integer, got '5'",
        "LucasDensityError disc_k must be an integer, got 5.0",
        "LucasDensityError QuadElem.u must be an int or a Fraction, got 'a'",
        "LucasDensityError DensityResult.delta_plus must be an int or a Fraction, got 0.25",
        "LucasDensityError DensityResult.trace does not reproduce delta=3/8",
        "LucasDensityError DensityResult.trace must hold STerms, got 1",
        "LucasDensityError EmpiricalReport.counted must be an integer, got 1.5",
        "LucasDensityError EmpiricalReport.x must be a positive integer, got 0",
        "LucasDensityError disc_k must be an integer, got 5.0",
        "LucasDensityError n must be an integer, got 2.0",
        "LucasDensityError n must be an integer, got True",
        "LucasDensityError is_nth_power needs n >= 1, got 0",
        "LucasDensityError sqrt_data needs a field element, got 5",
        "LucasDensityError quartic_conductor needs a norm-1 root over disc -4 off Q, got 5",
        "LucasDensityError cubic_conductor needs a norm-1 root over disc -3 off Q, got 5",
    ]


def test_import_does_not_load_mpmath():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, lucasdensity, lucasdensity.cli; print('mpmath' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_exact_layer_does_not_load_numpy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, lucasdensity, lucasdensity.cli\n"
         "for a1, a2 in ((1, -1), (2, 5), (1, 7)):\n"
         "    lucasdensity.dispatch(lucasdensity.make_context(a1, a2), 12)\n"
         "print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_power_index_rejects_bad_inputs_with_typed_errors():
    with pytest.raises(LucasDensityError, match=r"norm-1 element, got 2\+0\*sqrt\(5\)"):
        power_index(QuadElem(5, F(2), F(0)))
    with pytest.raises(TorsionError, match=r"sqrt\(-4\)"):
        power_index(QuadElem(-4, F(0), F(1, 2)))  # i
    # the Fibonacci root quotient written over 20 instead of the fundamental 5
    with pytest.raises(LucasDensityError, match="may not be fundamental"):
        power_index(QuadElem(20, F(-3, 2), F(-1, 4)))


_NON_TARGETS = [5, "x", [1], QuadElem(5, 2, 0), QuadElem(5, 3, 1), QuadElem(-4, 0, F(1, 2))]


@pytest.mark.parametrize("target", _NON_TARGETS, ids=str)
@pytest.mark.parametrize("call", [
    lambda t, path: dispatch(t, 2),
    lambda t, path: series_oracle(t, 2),
    lambda t, path: normal_form(t),
    lambda t, path: kummer_profile(t),
    lambda t, path: power_index(t),
    lambda t, path: rank(7, t),
    lambda t, path: empirical_density(t, 2, 1000),
    lambda t, path: dump_ranks(t, 2, 1000, path),
], ids=["dispatch", "series_oracle", "normal_form", "kummer_profile", "power_index", "rank",
        "empirical_density", "dump_ranks"])
def test_public_calls_refuse_a_non_target_by_name(tmp_path, call, target):
    # a non-element once raised AttributeError on .disc_k; every layer now
    # refuses through root_quotient (or density's own isinstance test)
    expected = TorsionError if target == QuadElem(-4, 0, F(1, 2)) else LucasDensityError
    with pytest.raises(expected) as info:
        call(target, str(tmp_path / "ranks.csv"))
    assert str(target) in str(info.value) or repr(target) in str(info.value)
    assert not (tmp_path / "ranks.csv").exists()


def test_root_quotient_is_the_one_target_check():
    fib = make_context(1, -1)
    assert root_quotient(fib, "rank") == fib.gamma
    assert root_quotient(fib.gamma, "rank") is fib.gamma
    with pytest.raises(LucasDensityError, match=r"^rank needs a sequence context or field"
                       r" element, got 'x'$"):
        root_quotient("x", "rank")
    with pytest.raises(LucasDensityError, match=r"^power index needs a norm-1 element,"
                       r" got 3\+1\*sqrt\(5\) of norm 4$"):
        root_quotient(QuadElem(5, 3, 1), "power index")
    with pytest.raises(TorsionError, match=r"^rank is undefined for the root of unity"
                       r" \(0\+1\*sqrt\(-4\)\)/2$"):
        root_quotient(QuadElem(-4, 0, F(1, 2)), "rank")


def test_quad_elem_ascii_form():
    assert str(QuadElem(8, F(3), F(1))) == "3+1*sqrt(8)"
    assert str(QuadElem(29, F(-27, 2), F(-5, 2))) == "(-27-5*sqrt(29))/2"
    assert str(QuadElem(-4, F(-3, 5), F(0))) == "(-3+0*sqrt(-4))/5"
    assert str(QuadElem(-3, F(1, 2), F(-1, 6))) == "(3-1*sqrt(-3))/6"


def test_quad_elem_hash_is_computed_once_and_kept_by_value():
    a, b = QuadElem(5, 1, 0), QuadElem(5, F(1), F(0))
    assert a == b and hash(a) == hash(b) == hash((5, F(1), F(0)))
    assert {a: "found"}[QuadElem(5, 1, 0)] == "found"
    g = QuadElem(-3, F(-13, 14), F(3, 14))
    before = hash(g)
    for twin in (copy.copy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and hash(twin) == before
    assert hash(pickle.loads(pickle.dumps(QuadElem(-3, F(-13, 14), F(3, 14))))) == before
    assert tuple(f.name for f in dataclasses.fields(QuadElem)) == ("disc_k", "u", "v")
    assert repr(g) == "QuadElem(disc_k=-3, u=Fraction(-13, 14), v=Fraction(3, 14))"


# "5", 5.0 and "a" are in _OPTIMIZED_CHECK
@pytest.mark.parametrize("disc, u, v, message", [
    (True, 1, 0, r"disc_k must be an integer, got True"),
    (5, "1/2", 1, r"QuadElem\.u must be an int or a Fraction, got '1/2'"),
    (5, 0.5, 1, r"QuadElem\.u must be an int or a Fraction, got 0\.5"),
    (5, 1, 1.0, r"QuadElem\.v must be an int or a Fraction, got 1\.0"),
    (5, 1, False, r"QuadElem\.v must be an int or a Fraction, got False"),
])
def test_quad_elem_refuses_other_types(disc, u, v, message):
    with pytest.raises(LucasDensityError, match=f"^{message}$"):
        QuadElem(disc, u, v)


# ---------------------------------------------------------------------------
# contexts
# ---------------------------------------------------------------------------


def test_make_context_pinned():
    ctx = make_context(1, -1)
    assert (ctx.delta, ctx.disc_k) == (5, 5)
    assert ctx.gamma == QuadElem(5, F(-3, 2), F(-1, 2))

    ctx = make_context(2, -1)
    assert (ctx.delta, ctx.disc_k) == (8, 8)
    assert ctx.gamma == QuadElem(8, F(-3), F(-1))


def test_context_is_built_from_its_parameters_alone():
    fib = make_context(1, -1)
    with pytest.raises(TypeError):
        SequenceContext(1, -1, 7, 5, fib.gamma)
    with pytest.raises(TypeError):
        SequenceContext(1, -1, gamma=fib.gamma)
    for a1, a2 in [(1, -1), (2, -1), (1, 3), (5, 3), (-7, 11), (10**9 + 7, 10**9 + 9)]:
        ctx = SequenceContext(a1, a2)
        assert ctx == make_context(a1, a2) and hash(ctx) == hash(make_context(a1, a2))
        assert ctx.delta == a1 * a1 - 4 * a2 and ctx.gamma.disc_k == ctx.disc_k
    with pytest.raises(LucasDensityError, match="^a2 must be an integer, got 1.5$"):
        SequenceContext(1, 1.5)


def test_make_context_rejections():
    with pytest.raises(TorsionError):
        make_context(1, 1)
    with pytest.raises(ReducibleError):
        make_context(2, 1)  # delta = 0
    with pytest.raises(ReducibleError):
        make_context(3, 2)  # delta = 1
    with pytest.raises(ZeroParameterError):
        make_context(0, 5)
    with pytest.raises(ZeroParameterError):
        make_context(5, 0)


@given(st.integers(-30, 30), st.integers(-30, 30))
def test_make_context_norm_one(a1, a2):
    try:
        ctx = make_context(a1, a2)
    except (ReducibleError, TorsionError, ZeroParameterError):
        return
    assert qf_norm(ctx.gamma) == 1
    assert ctx.gamma.disc_k % 4 in (0, 1)


def test_gamma_from_radicand():
    # sqrt(8) = 2*sqrt(2) and disc(Q(sqrt 2)) = 8, so coordinates are unchanged
    assert gamma_from_radicand(F(3), F(1), 8) == QuadElem(8, F(3), F(1))
    # sqrt(12) = 2*sqrt(3), disc = 12: v picks up the kernel scale
    assert gamma_from_radicand(F(1), F(1), 12) == QuadElem(12, F(1), F(1))
    assert gamma_from_radicand(F(1), F(2), 45) == QuadElem(5, F(1), F(6))
    with pytest.raises(ReducibleError):
        gamma_from_radicand(F(1), F(1), 9)


@pytest.mark.parametrize("call, message", [
    (lambda: make_context(1.5, 2), "a1 must be an integer, got 1.5"),
    (lambda: make_context("1", 2), "a1 must be an integer, got '1'"),
    (lambda: make_context(True, -1), "a1 must be an integer, got True"),
    (lambda: make_context(1, -1.0), "a2 must be an integer, got -1.0"),
    (lambda: make_context(1, False), "a2 must be an integer, got False"),
    (lambda: gamma_from_radicand(1, 1, 5.5), "radicand must be an integer, got 5.5"),
    (lambda: gamma_from_radicand(1, 1, "5"), "radicand must be an integer, got '5'"),
    (lambda: gamma_from_radicand(1, 1, True), "radicand must be an integer, got True"),
], ids=["a1-float", "a1-str", "a1-bool", "a2-float", "a2-bool",
        "radicand-float", "radicand-str", "radicand-bool"])
def test_constructors_refuse_non_integers_by_name(call, message):
    with pytest.raises(LucasDensityError) as info:
        call()
    assert type(info.value) is LucasDensityError
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# field arithmetic
# ---------------------------------------------------------------------------


def test_qf_norm_pinned():
    assert qf_norm(QuadElem(8, F(1), F(1, 2))) == -1  # 1 + sqrt(2)
    assert qf_norm(QuadElem(-4, F(3, 5), F(2, 5))) == 1


def test_qf_pow_pinned():
    half_unit = QuadElem(29, F(5, 2), F(1, 2))
    assert qf_pow(half_unit, 2) == QuadElem(29, F(27, 2), F(5, 2))
    assert qf_pow(half_unit, 0) == qf_one(29)
    assert qf_pow(half_unit, -2) == qf_inv(qf_pow(half_unit, 2))


def test_disc_mismatch_and_zero_division():
    with pytest.raises(DiscMismatchError):
        qf_mul(qf_one(5), qf_one(8))
    with pytest.raises(DivisionByZeroError):
        qf_inv(QuadElem(5, F(0), F(0)))


_small_fracs = st.fractions(min_value=F(-9), max_value=F(9), max_denominator=9)


@given(st.sampled_from([5, 8, 29, -4, -3, -15]), _small_fracs, _small_fracs)
def test_inverse_law(disc, u, v):
    x = QuadElem(disc, u, v)
    if qf_norm(x) == 0:
        return
    assert qf_mul(x, qf_inv(x)) == qf_one(disc)
    assert qf_norm(qf_conj(x)) == qf_norm(x)
    assert qf_mul(x, qf_conj(x)) == QuadElem(disc, qf_norm(x), F(0))


def test_torsion_units_orders():
    assert len(torsion_units(5)) == 2
    assert len(torsion_units(-4)) == 4
    assert len(torsion_units(-3)) == 6
    i = torsion_units(-4)[1]
    assert qf_pow(i, 2) == -qf_one(-4)
    z6 = torsion_units(-3)[1]
    assert qf_pow(z6, 6) == qf_one(-3)
    assert qf_pow(z6, 3) == -qf_one(-3)


def test_zeta_labels_name_the_torsion_units():
    assert [zeta_label(-4, j) for j in range(4)] == ["1", "i", "-1", "-i"]
    assert [zeta_label(-3, j) for j in range(6)] == [
        "1", "zeta6", "omega", "-1", "omega^2", "zeta6^-1"]
    for disc in (5, -15, -4, -3):
        labels = [zeta_label(disc, j) for j in range(len(torsion_units(disc)))]
        assert torsion_units(disc)[labels.index("-1")] == -qf_one(disc)


def loop_torsion_units(disc_k):
    # the former construction: powers of i, (1 + sqrt(-3))/2 or -1 until 1 recurs
    if disc_k == -4:
        gen = QuadElem(-4, F(0), F(1, 2))
    elif disc_k == -3:
        gen = QuadElem(-3, F(1, 2), F(1, 2))
    else:
        gen = QuadElem(disc_k, F(-1), F(0))
    out = [qf_one(disc_k)]
    while (nxt := qf_mul(out[-1], gen)) != out[0]:
        out.append(nxt)
    return out


def loop_is_torsion(x):
    # the former test: x**k = 1 for some k <= 6
    y = x
    for _ in range(6):
        if y == qf_one(x.disc_k):
            return True
        y = qf_mul(y, x)
    return False


TORSION_DISCS = (-4, -3, -7, -8, -15, -20, 5, 8, 12, 13, 21, 28)


def _torsion_corpus():
    for disc in TORSION_DISCS:
        units = loop_torsion_units(disc)
        yield from units  # every root of unity of -4 and -3, +-1 elsewhere
        yield from (QuadElem(disc, F(0), F(0)), QuadElem(disc, F(1, 2), F(0)))
        yield from (qf_mul(QuadElem(disc, F(1), F(1)), z) for z in units)  # norm != 1
    rng = random.Random(20261018)
    for _ in range(3000):
        disc = rng.choice(TORSION_DISCS)
        den = rng.choice((1, 2, 2, 3, 4))  # mostly integer and half-integer coordinates
        yield QuadElem(disc, F(rng.randint(-4, 4), den), F(rng.randint(-4, 4), den))


def test_torsion_matches_the_multiplication_loop():
    for disc in TORSION_DISCS:
        assert torsion_units(disc) == loop_torsion_units(disc), disc
    hits = 0
    for x in _torsion_corpus():
        assert is_torsion(x) == loop_is_torsion(x), x
        hits += loop_is_torsion(x)
    assert hits > 100  # the seeded corpus reaches the roots of unity, not only the units


# ---------------------------------------------------------------------------
# n-th power testing
# ---------------------------------------------------------------------------


# 2.0 and True are also in _OPTIMIZED_CHECK
@pytest.mark.parametrize("n, message", [(2.0, r"n must be an integer, got 2\.0"),
                                        (True, "n must be an integer, got True"),
                                        ("2", "n must be an integer, got '2'"),
                                        (0, "is_nth_power needs n >= 1, got 0")])
def test_is_nth_power_refuses_an_exponent_that_is_not_a_positive_int(n, message):
    with pytest.raises(LucasDensityError, match=f"^{message}$"):
        is_nth_power(QuadElem(-4, F(-7, 25), F(12, 25)), n)


def test_is_nth_power_pinned():
    x = QuadElem(-4, F(-7, 25), F(12, 25))  # (-7+24i)/25
    y = is_nth_power(x, 2)
    assert y in (QuadElem(-4, F(3, 5), F(2, 5)), QuadElem(-4, F(-3, 5), F(-2, 5)))

    x = QuadElem(8, F(3), F(1))
    assert is_nth_power(x, 1) == x
    assert is_nth_power(x, 3) is None

    # half-integer coordinates in a disc = 1 mod 4 field
    assert is_nth_power(QuadElem(5, F(2), F(1)), 3) == QuadElem(5, F(1, 2), F(1, 2))


def test_is_nth_power_rational_values():
    assert is_nth_power(QuadElem(-4, F(-4), F(0)), 2) == QuadElem(-4, F(0), F(1))
    assert is_nth_power(QuadElem(5, F(-8), F(0)), 3) == QuadElem(5, F(-2), F(0))
    assert is_nth_power(QuadElem(5, F(-1), F(0)), 2) is None
    with pytest.raises(LucasDensityError):
        is_nth_power(QuadElem(5, F(0), F(0)), 2)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([5, 8, 29, -4, -3, -15]), _small_fracs, _small_fracs,
       st.integers(1, 6))
def test_is_nth_power_roundtrip(disc, u, v, n):
    x = QuadElem(disc, u, v)
    if x.u == 0 and x.v == 0:
        return
    xn = qf_pow(x, n)
    y = is_nth_power(xn, n)
    assert y is not None
    assert qf_pow(y, n) == xn


# Exact return values, not roots up to sign: sqrt_data reads the root's u, so
# the root that comes back feeds every density downstream.  In real fields
# with n even the root has u + v*sqrt(D) > 0; in imaginary fields it is the
# first root met rotating from the principal root, arg(y) = Arg(x)/n.
_PINNED_ROOTS = [
    ((-4, -4, 0), 4, (-4, 1, F(1, 2))),  # 1 + i, not 1 - i
    ((-4, -4, 0), 2, (-4, 0, 1)),
    ((-4, F(-7, 25), F(-12, 25)), 2, (-4, F(3, 5), F(-2, 5))),
    ((-3, -27, 0), 6, (-3, F(3, 2), F(1, 2))),
    ((-3, -27, 0), 2, (-3, 0, 3)),
    ((-3, -1, 0), 3, (-3, F(1, 2), F(1, 2))),
    ((-3, -64, 0), 6, None),
    ((-3, F(-1, 2), F(-1, 2)), 4, (-3, F(1, 2), F(1, 2))),
    ((5, F(7, 2), F(3, 2)), 2, (5, F(3, 2), F(1, 2))),
    ((5, F(7, 2), F(-3, 2)), 2, (5, F(3, 2), F(-1, 2))),
    ((5, F(-11, 2), F(5, 2)), 5, (5, F(-1, 2), F(1, 2))),
    ((8, 3, 1), 2, (8, 1, F(1, 2))),
    ((8, 3, -1), 2, (8, -1, F(1, 2))),  # sqrt(2) - 1, not 1 - sqrt(2)
    ((8, 17, -6), 4, (8, -1, F(1, 2))),
    ((8, 2, 0), 2, (8, 0, F(1, 2))),  # sqrt(2), not -sqrt(2)
    ((5, 25, 0), 4, (5, 0, 1)),
    ((12, 3, 0), 2, (12, 0, F(1, 2))),
    ((-3, -3, 0), 2, (-3, 0, 1)),
]


@pytest.mark.parametrize("x,n,root", _PINNED_ROOTS)
def test_is_nth_power_returns_the_pinned_root(x, n, root):
    expected = None if root is None else QuadElem(*root)
    assert is_nth_power(QuadElem(*x), n) == expected


_ROOT_DISCS = (5, 8, 12, 29, 13 * 17, -4, -3, -15, -4 * 7 * 11)
_ROOT_EXPONENTS = (2, 3, 4, 5, 6, 7, 8, 9, 12, 16)


def _random_elem(rng, disc, bits):
    den = rng.choice((1, 1, 2, 3, 6, 7, 10, 30))
    a, b = rng.randint(-2**bits, 2**bits), rng.randint(-2**bits, 2**bits)
    if disc % 4 == 1 and rng.random() < 0.5:
        b += (a - b) % 2
        den *= 2  # half-integer coordinates
    if a == 0 and b == 0:
        a = 1
    return QuadElem(disc, F(a, den), F(b, den))


def _root_corpus():
    """(x, n) pairs: twisted n-th powers y^n*zeta and non-powers, at heights near
    2^64 and beyond 2^1100, then units and negative rationals."""
    rng = random.Random(6)
    for disc in _ROOT_DISCS:
        units = torsion_units(disc)
        for n in _ROOT_EXPONENTS:
            for height in (64, 1100):
                y = _random_elem(rng, disc, height // n + 1)
                for zeta in units:
                    yield qf_mul(zeta, qf_pow(y, n)), n
                yield _random_elem(rng, disc, height), n
                yield qf_mul(qf_pow(y, n), _random_elem(rng, disc, 3)), n
    for disc in (5, 8, 29, 13 * 17):  # the first three have a unit of norm -1
        eps = fundamental_unit(disc)
        for n in (2, 3, 4, 6):
            for k in (n, 2 * n, n + 1, 3 * n):
                yield qf_pow(eps, k), n
                yield -qf_pow(eps, k), n
    for disc in (-4, -3, -15, -4 * 7 * 11):  # Arg x = pi
        for m in (1, 2, 3, 4, 27, 64, 3**12, 2**80):
            for n in (2, 3, 4, 6, 12):
                yield QuadElem(disc, F(-m), F(0)), n
                yield QuadElem(disc, F(-m, 3**n), F(0)), n


# sha256 of the lines below, recorded from the floating-point root finder that
# the p-adic one replaced
_ROOT_CORPUS_DIGEST = "bdbd8f4cda404707d5967bb3f6a70491a917826ab4225e9d8f81a0bdaad6a4c1"


def test_is_nth_power_pinned_over_seeded_corpus():
    lines = [f"{x.disc_k},{x.u},{x.v}|{n}|{is_nth_power(x, n)}" for x, n in _root_corpus()]
    hits = sum(not line.endswith("|None") for line in lines)
    # fundamental units of Z[(1+sqrt(d))/2], recorded when fundamental_unit
    # found them by a cube-root test
    lines += [f"{disc}|{fundamental_unit(disc)}" for disc in range(5, 400, 4)
              if all(disc % (q * q) for q in range(3, math.isqrt(disc) + 1, 2))]
    assert (len(lines), hits) == (1367, 425)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _ROOT_CORPUS_DIGEST


# ---------------------------------------------------------------------------
# fundamental units
# ---------------------------------------------------------------------------


def test_fundamental_unit_pinned():
    assert fundamental_unit(8) == QuadElem(8, F(1), F(1, 2))  # 1 + sqrt(2)
    assert fundamental_unit(5) == QuadElem(5, F(1, 2), F(1, 2))
    assert fundamental_unit(29) == QuadElem(29, F(5, 2), F(1, 2))
    assert fundamental_unit(12) == QuadElem(12, F(2), F(1, 2))  # 2 + sqrt(3)
    for disc in (-4, 0, 7, 9, 16):  # imaginary, zero, not 0 or 1 mod 4, squares
        with pytest.raises(LucasDensityError):
            fundamental_unit(disc)
    for disc in (5.0, True, "5"):  # 5.0 is also in _OPTIMIZED_CHECK
        with pytest.raises(LucasDensityError, match=f"^disc_k must be an integer, got {disc!r}$"):
            fundamental_unit(disc)


@pytest.mark.parametrize("disc", [5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 40, 44, 61])
def test_fundamental_unit_is_primitive(disc):
    eps = fundamental_unit(disc)
    assert qf_norm(eps) in (1, -1)
    for k in (2, 3):
        assert is_nth_power(eps, k) is None, f"unit of disc {disc} is a {k}-th power"


def test_fundamental_unit_matches_the_pell_reference():
    # every fundamental D < 5000; the counts of units of norm -1 and of units
    # outside Z[sqrt(D)] (index 3) keep the corpus from shrinking unnoticed
    discs = [d for d in range(5, 5000) if disc_and_scale(d)[0] == d]
    units = [fundamental_unit(d) for d in discs]
    assert units == [reference_fundamental_unit(d) for d in discs]
    norm_minus = sum(qf_norm(eps) == -1 for eps in units)
    index_3 = sum(d % 4 == 1 and eps.abc[2] == 2 for d, eps in zip(discs, units))
    assert (len(discs), norm_minus, index_3) == (1516, 509, 380)


def test_abc_is_the_integral_form():
    rng = random.Random(29)
    elems = [QuadElem(5, 0, 0), QuadElem(-4, F(-3, 5), 0),
             QuadElem(8, F(-7, 2**70), F(5, 3 * 2**64))]
    for disc in _ROOT_DISCS:
        for bits in (3, 40, 100):
            x = _random_elem(rng, disc, bits)
            y = QuadElem(disc, F(rng.randint(-2**bits, 2**bits), rng.randint(1, 2**bits)),
                         F(rng.randint(-2**bits, 2**bits), rng.randint(1, 2**bits)))
            elems += [x, -x, qf_conj(x), QuadElem(disc, x.u, 0), y]
    for x in elems:
        a, b, c = x.abc
        assert all(type(t) is int for t in (a, b, c)), str(x)
        assert c >= 1 and math.gcd(a, b, c) == 1, str(x)
        assert (F(a, c), F(b, c)) == (x.u, x.v), str(x)
    assert any(x.abc[2] > 2**63 for x in elems)
    assert any(x.v == 0 for x in elems) and any(x.u < 0 and x.v < 0 for x in elems)


# ---------------------------------------------------------------------------
# power index
# ---------------------------------------------------------------------------

# 2 splits in the first row, is inert in the second, ramifies in the third
_SUPPORT_DISCS = ((17, 33, 41, -7, -15, -23, -31),
                  (5, 13, 21, 29, -3, -11, -19),
                  (8, 12, 24, 28, -4, -8, -20))


def test_support_exponents_match_padic_reference():
    # z / conj(z) for z in O_K, squared or not, twisted by torsion and (real
    # fields) by a norm-1 unit: the denominator rule agrees with the p-adic one
    rng = random.Random(9)
    even_c = {0: 0, 1: 0, 2: 0}
    units = {disc: fundamental_unit(disc) for row in _SUPPORT_DISCS for disc in row if disc > 0}
    for row, discs in enumerate(_SUPPORT_DISCS):
        for _ in range(600):
            disc = rng.choice(discs)
            x, y = rng.randint(-60, 60), rng.randint(-60, 60)
            if disc % 4 == 1:
                x += (x - y) % 2  # (x + y*sqrt(D))/2 is integral when x = y mod 2
                z = QuadElem(disc, F(x, 2), F(y, 2))
            else:
                z = QuadElem(disc, x, y)
            if z.u == 0 and z.v == 0:
                continue
            gamma = qf_pow(qf_mul(z, qf_inv(qf_conj(z))), rng.randint(1, 2))
            gamma = qf_mul(rng.choice(torsion_units(disc)), gamma)
            if disc > 0:
                unit = qf_pow(units[disc], rng.randint(-2, 2))
                gamma = qf_mul(unit if qf_norm(unit) == 1 else qf_mul(unit, unit), gamma)
            assert _support_exponents(gamma) == padic_support_exponents(gamma), str(gamma)
            even_c[row] += math.lcm(gamma.u.denominator, gamma.v.denominator) % 2 == 0
    assert min(even_c.values()) >= 100, even_c


# (disc, u, v, expected h, expected exponent of zeta*)
_POWER_INDEX_ROWS = [
    (8, F(3), F(1), 2, 0),
    (29, F(-27, 2), F(-5, 2), 2, 1),
    (-15, F(17, 32), F(7, 32), 4, 0),
    (-4, F(-3, 5), F(2, 5), 1, 0),
    (-4, F(24, 25), F(7, 50), 2, 1),
    (-4, F(-120, 169), F(-119, 338), 2, 1),
    (-3, F(-13, 14), F(3, 14), 1, 0),
    (-3, F(683, 686), F(37, 686), 3, 4),
    (-3, F(1031, 1369), F(-520, 1369), 2, 3),
]


@pytest.mark.parametrize("disc,u,v,h,j", _POWER_INDEX_ROWS)
def test_power_index_reference_rows(disc, u, v, h, j):
    gamma = QuadElem(disc, u, v)
    pix = power_index(gamma)
    assert pix.h == h
    assert pix.zeta_star_exp == j
    assert pix.gamma_tilde == qf_mul(torsion_units(disc)[j], gamma)
    assert qf_pow(pix.gamma0, h) == pix.gamma_tilde


def test_power_index_pinned_roots():
    # the recorded h-th roots, up to sign
    pix = power_index(QuadElem(8, F(3), F(1)))
    assert pix.gamma0 in (QuadElem(8, F(1), F(1, 2)), QuadElem(8, F(-1), F(-1, 2)))
    pix = power_index(QuadElem(29, F(-27, 2), F(-5, 2)))
    assert pix.gamma0 in (QuadElem(29, F(5, 2), F(1, 2)), QuadElem(29, F(-5, 2), F(-1, 2)))
    pix = power_index(QuadElem(-4, F(24, 25), F(7, 50)))
    assert pix.gamma0 in (QuadElem(-4, F(3, 5), F(2, 5)), QuadElem(-4, F(-3, 5), F(-2, 5)))
    pix = power_index(QuadElem(-3, F(683, 686), F(37, 686)))
    third = QuadElem(-3, F(1, 7), F(4, 7))
    assert pix.gamma0 in tuple(qf_mul(z, third) for z in torsion_units(-3)
                               if qf_pow(z, 3) == qf_one(-3))


@pytest.mark.parametrize("disc,u,v,h,j", _POWER_INDEX_ROWS)
def test_power_index_maximality(disc, u, v, h, j):
    pix = power_index(QuadElem(disc, u, v))
    for q in (2, 3):
        assert is_nth_power(pix.gamma_tilde, q * pix.h) is None


@pytest.mark.parametrize("disc,u,v,h,j", _POWER_INDEX_ROWS)
def test_power_index_conjugation(disc, u, v, h, j):
    gamma = QuadElem(disc, u, v)
    pix = power_index(gamma)
    pix_c = power_index(qf_conj(gamma))
    assert pix_c.h == pix.h
    nmu = len(pix.table)
    for k in range(nmu):
        assert pix_c.table[(-k) % nmu] == pix.table[k]


def test_power_index_restricted():
    pix = power_index(QuadElem(-4, F(24, 25), F(7, 50)))
    # within {1, -1} nothing beats the trivial twist; within mu_4 the twist by i wins
    assert pix.table[0] == 1 and pix.table[2] <= 1
    assert (pix.h, pix.zeta_star_exp, pix.table[1]) == (2, 1, 2)
    assert qf_pow(pix.gamma0, 2) == pix.gamma_tilde

    pix = power_index(QuadElem(-3, F(1031, 1369), F(-520, 1369)))
    # within {1, -1} the twist by -1 wins, and it is the overall maximum
    assert pix.table[0] < pix.table[3] == 2 == pix.h and pix.zeta_star_exp == 3
    assert pix.gamma0 in (QuadElem(-3, F(13, 37), F(20, 37)), QuadElem(-3, F(-13, 37), F(-20, 37)))


def _old_restricted(pix, gamma, m):
    """The former PowerIndexData.restricted(m) rule, with its root found as power_index finds it."""
    nmu = len(pix.table)
    eligible = [j for j in _tie_break_order(nmu) if j * m % nmu == 0]
    h_m = max(pix.table[j] for j in eligible)
    j = next(j for j in eligible if pix.table[j] == h_m)
    return h_m, j, is_nth_power(qf_mul(torsion_units(gamma.disc_k)[j], gamma), pix.table[j])


def test_old_restricted_root_is_gamma0_on_normal_forms():
    # kummer_profile reads the square-root data and conductors off gamma0, where
    # it used the mu_2-restricted (and, over disc -3, mu_6-restricted) root
    bases = [exp.gamma for exp in REFERENCE_PROFILES]
    corpus = bases + [qf_pow(g, k) for g in bases for k in (2, 3, 4, 6)]
    rng = random.Random(1414)
    while len(corpus) < 5 * len(bases) + 30:
        try:
            corpus.append(make_context(rng.randint(-40, 40), rng.randint(-40, 40)).gamma)
        except LucasDensityError:
            continue
    for gamma in corpus:
        norm = power_index(gamma).gamma_tilde
        pix = power_index(norm)
        assert pix.zeta_star_exp == 0, gamma
        for m in (2, 6) if norm.disc_k == -3 else (2,):
            assert _old_restricted(pix, norm, m) == (pix.h, 0, pix.gamma0), (gamma, m)
