"""Tests for the sieve, the fast rank computation, and empirical counts."""

import csv
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from lucasdensity.arith import jacobi
from lucasdensity.density import REFERENCE_PROFILES
from lucasdensity.errors import LimitError, LucasDensityError, TorsionError
from lucasdensity.lucasrank import (
    EmpiricalReport,
    _chain,
    _chi_and_trace,
    _residues,
    _sieve,
    dump_ranks,
    empirical_density,
    lucas_v_mod,
    rank,
    spf_sieve,
)
from lucasdensity.quadfield import (QuadElem, SequenceContext, is_torsion, make_context, qf_conj,
                                    qf_inv, qf_mul, qf_norm)

from oracles import naive_rank


# ---------------------------------------------------------------------------
# sieve
# ---------------------------------------------------------------------------


def _naive_primes(limit):
    return [n for n in range(2, limit + 1) if all(n % q for q in range(2, math.isqrt(n) + 1))]


def test_spf_first_values():
    primes = spf_sieve(10)
    assert primes.tolist() == [2, 3, 5, 7]
    assert primes.dtype == np.int64
    assert not primes.flags.writeable


def test_spf_large_prime_and_even():
    primes = spf_sieve(10_000_000)
    assert primes[np.searchsorted(primes, 9_999_991)] == 9_999_991
    assert primes[np.searchsorted(primes, 10**6)] != 10**6
    assert len(primes) == 664_579


def test_spf_rejects_bad_limits():
    with pytest.raises(LimitError):
        spf_sieve(1)
    with pytest.raises(LimitError):
        spf_sieve(300_000_000)


@pytest.mark.parametrize("limit", [2, 3, 4, 8, 9, 24, 25, 26, 120, 121, 122, 5000])
def test_spf_matches_naive_table(limit):
    assert spf_sieve(limit).tolist() == _naive_primes(limit)


def test_primes_up_to():
    primes = spf_sieve(100)
    assert primes.tolist() == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
        53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    ]
    assert len(spf_sieve(100_000)) == 9592


def test_primes_up_to_matches_full_scan():
    limit = 120_000
    naive = _naive_primes(limit)
    for x in (2, 3, limit, 99_991, 99_990):  # 99_991 is prime
        got = spf_sieve(x)
        assert got.dtype == np.int64
        assert got.tolist() == [q for q in naive if q <= x], f"x = {x}"


def test_sieve_is_kept_and_read_only():
    primes = spf_sieve(1000)
    assert spf_sieve(1000) is primes
    assert not primes.flags.writeable
    with pytest.raises(ValueError):
        primes[0] = 3


def test_kept_sieve_still_checks_the_ceiling(monkeypatch):
    assert spf_sieve(1001)[-1] == 997
    monkeypatch.setattr("lucasdensity.lucasrank.SIEVE_CEILING", 1000)
    with pytest.raises(LimitError, match="sieve limit 1001 exceeds the ceiling 1000"):
        spf_sieve(1001)


def test_kept_sieve_still_checks_the_limit_type():
    assert len(spf_sieve(1000)) == 168
    with pytest.raises(LucasDensityError, match=r"limit must be a positive integer, got 1000\.0"):
        spf_sieve(1000.0)


def test_count_and_dump_share_one_sieve(tmp_path):
    fib = make_context(1, -1)
    _sieve.cache_clear()
    empirical_density(fib, 2, 3000)
    dump_ranks(fib, 2, 3000, str(tmp_path / "ranks.csv"))
    info = _sieve.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# ---------------------------------------------------------------------------
# the Lucas-V chain
# ---------------------------------------------------------------------------


def test_lucas_v_base_cases():
    fib_trace = Fraction(1 * 1 - 2 * -1, -1)  # tr(gamma) = (a1^2 - 2*a2) / a2 = -3
    assert lucas_v_mod(0, 11, fib_trace) == 2
    assert lucas_v_mod(1, 11, fib_trace) == 11 - 3
    assert lucas_v_mod(10, 11, fib_trace) == 2  # F_10 = 55 = 5 * 11: gamma^10 = 1


def test_lucas_v_rejects_bad_prime():
    with pytest.raises(LucasDensityError):
        lucas_v_mod(4, 3, Fraction(1 * 1 - 2 * 3, 3))  # p | a2
    with pytest.raises(LucasDensityError):
        lucas_v_mod(4, 2, Fraction(1 * 1 - 2 * 1, 1))  # p = 2


def test_lucas_v_matches_iteration():
    rng = random.Random(23)
    for _ in range(120):
        p = rng.choice([5, 7, 11, 13, 101, 997, 4999])
        a1 = rng.randint(-9, 9) or 2
        a2 = rng.randint(-9, 9) or 3
        if (2 * a2) % p == 0:
            continue
        trace = Fraction(a1 * a1 - 2 * a2, a2)
        t = trace.numerator * pow(trace.denominator, -1, p) % p
        vs = [2, t]
        for _ in range(80):
            vs.append((t * vs[-1] - vs[-2]) % p)
        us = [0, 1]
        for _ in range(2 * 80 + 1):
            us.append((a1 * us[-1] - a2 * us[-2]) % p)
        n = rng.randint(0, 79)
        got = lucas_v_mod(n, p, trace)
        assert got == vs[n]
        # gamma^n + gamma^-n = V_2n(a1, a2) / a2^n, with V_k = 2*U_{k+1} - a1*U_k
        pair_v = (2 * us[2 * n + 1] - a1 * us[2 * n]) % p
        assert got == pair_v * pow(a2, -n, p) % p


# ---------------------------------------------------------------------------
# rank of appearance
# ---------------------------------------------------------------------------


def test_rank_fibonacci_examples():
    fib = make_context(1, -1)
    assert rank(11, fib) == 10
    assert rank(7, fib) == 8
    with pytest.raises(LucasDensityError):
        rank(5, fib)  # 5 | delta: excluded locus


def test_rank_rejects_composite_modulus():
    # the order descent is only valid for a prime: for these composites it
    # would return 4, 20 and 15 instead of the true ranks
    fib = make_context(1, -1)
    for n, true_rank in ((9, 12), (21, 8), (15, 20)):
        assert naive_rank(n, 1, -1) == true_rank
        with pytest.raises(LucasDensityError, match=f"odd prime, got {n}"):
            rank(n, fib)


def test_rank_matches_naive_for_four_sequences():
    pairs = [(1, -1), (2, -1), (1, 3), (5, 3)]
    for a1, a2 in pairs:
        ctx = make_context(a1, a2)
        for p in spf_sieve(1000)[1:]:
            p = int(p)
            if (2 * abs(ctx.a2) * abs(ctx.delta)) % p == 0:
                continue
            got = rank(p, ctx)
            assert got == naive_rank(p, a1, a2), (a1, a2, p)


def test_rank_divides_p_minus_epsilon():
    from lucasdensity.arith import jacobi

    ctx = make_context(2, -1)
    for p in spf_sieve(20_000)[1:]:
        p = int(p)
        if (2 * abs(ctx.a2) * abs(ctx.delta)) % p == 0:
            continue
        assert (p - jacobi(ctx.delta % p, p)) % rank(p, ctx) == 0


def test_rank_context_equivalence():
    ctx = make_context(1, -1)
    for p in spf_sieve(1000)[1:]:
        p = int(p)
        if p == 5:
            continue
        assert rank(p, ctx) == rank(p, ctx.gamma)


def test_rank_direct_element_modes():
    # split and inert primes for a table element over disc -3
    g = QuadElem(-3, Fraction(-13, 14), Fraction(3, 14))
    assert rank(13, g) >= 1   # 13 = 1 mod 3 splits
    assert rank(5, g) >= 1    # 5 = 2 mod 3 is inert
    with pytest.raises(LucasDensityError):
        rank(7, g)  # divides the denominators
    with pytest.raises(LucasDensityError):
        rank(3, g)  # ramified


def test_rank_and_counter_refuse_roots_of_unity():
    # 1 once reached factorize(0) through the numerator of v; i was counted
    # with ratio 1, though dispatch and the CLI refuse it
    with pytest.raises(TorsionError, match=r"root of unity 1\+0\*sqrt\(5\)"):
        rank(7, QuadElem(5, 1, 0))
    with pytest.raises(TorsionError, match=r"root of unity \(0\+1\*sqrt\(-4\)\)/2"):
        empirical_density(QuadElem(-4, 0, Fraction(1, 2)), 2, 1000)


def _trial_prime_factors(n):
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + ([n] if n > 1 else [])


def test_rank_out_of_reach():
    # primes far past any sieve: the rank is the order of gamma, a divisor of
    # p - (D/p), checked against factors found by trial division
    targets = [make_context(1, -1), QuadElem(-3, Fraction(-13, 14), Fraction(3, 14))]
    for target in targets:
        chain = _chain(target)
        for p in (10**9 + 7, 10**9 + 9):
            r = rank(p, target)
            assert (p - jacobi(chain.char_disc % p, p)) % r == 0
            assert lucas_v_mod(r, p, chain.trace) == 2
            for q in _trial_prime_factors(r):
                assert lucas_v_mod(r // q, p, chain.trace) != 2, (str(target), p, q)


def _same_primes(m, n):
    """Whether m and n have the same prime divisors, without factoring either."""
    for x, y in ((m, n), (n, m)):
        while (g := math.gcd(x, y)) > 1:
            x //= g
        if abs(x) != 1:
            return False
    return True


def test_element_locus_keeps_its_primes():
    # 2*D*b*c, for gamma = (a + b*sqrt(D))/c, excludes the primes that 2*D
    # times u's and v's denominators and v's numerator did
    rng = random.Random(29)
    gammas = [row.gamma for row in REFERENCE_PROFILES]
    for disc in (5, 8, 12, 29, 13 * 17, -3, -4, -15, -4 * 7 * 11):
        for bits in (4, 20, 70):
            x = QuadElem(disc, Fraction(rng.randint(1, 2**bits), rng.randint(1, 2**bits)),
                         Fraction(rng.randint(-2**bits, -1), rng.randint(1, 2**bits)))
            gamma = qf_mul(x, qf_inv(qf_conj(x)))  # x / x' has norm 1
            if not is_torsion(gamma):
                gammas.append(gamma)
    assert len(gammas) > 30
    for gamma in gammas:
        old = 2 * gamma.disc_k * gamma.u.denominator * gamma.v.denominator * gamma.v.numerator
        assert _same_primes(_chain(gamma).locus, old), str(gamma)


# ---------------------------------------------------------------------------
# empirical density
# ---------------------------------------------------------------------------


def test_empirical_d1_counts_everything():
    rep = empirical_density(make_context(1, -1), 1, 10_000)
    assert rep.ratio == 1
    assert rep.counted == rep.eligible
    assert rep.ratio_plus + rep.ratio_minus == 1


def test_empirical_fibonacci_two_thirds():
    rep = empirical_density(make_context(1, -1), 2, 100_000)
    assert abs(rep.ratio - Fraction(2, 3)) < Fraction(1, 100)


def test_empirical_fibonacci_counts_pinned():
    # (counted, counted_plus, counted_minus) at x = 10^6 over 78496 eligible
    # primes, as recorded from the per-prime order-descent counter
    pinned = {
        2: (52340, 32714, 19626), 3: (29451, 14719, 14732),
        4: (26143, 6517, 19626), 5: (16350, 16350, 0),
        6: (19661, 12282, 7379), 8: (13073, 3254, 9819),
        12: (9817, 2438, 7379),
    }
    fib = make_context(1, -1)
    for d, want in pinned.items():
        rep = empirical_density(fib, d, 1_000_000)
        assert (rep.counted, rep.counted_plus, rep.counted_minus) == want, d
        assert rep.eligible == 78496


def test_empirical_report_invariants():
    rep = empirical_density(make_context(2, -1), 4, 20_000)
    assert rep.counted == rep.counted_plus + rep.counted_minus
    assert 0 <= rep.counted <= rep.eligible
    assert rep.ratio == Fraction(rep.counted, rep.eligible)
    assert rep.d == 4 and rep.x == 20_000


def test_empirical_direct_element_equivalence():
    ctx = make_context(1, -1)
    via_pair = empirical_density(ctx, 4, 20_000)
    via_elem = empirical_density(ctx.gamma, 4, 20_000)
    assert via_pair.counted == via_elem.counted
    assert via_pair.eligible == via_elem.eligible
    assert via_pair.counted_plus == via_elem.counted_plus


def _differential_targets():
    rng = random.Random(5077)
    targets = [make_context(21, 5), make_context(-33, 2)]  # 3, 7 and 11 divide a1
    while len(targets) < 8:
        a1, a2 = rng.randint(-40, 40), rng.randint(-40, 40)
        try:
            targets.append(make_context(a1, a2))
        except LucasDensityError:
            continue
    targets += [exp.gamma for exp in REFERENCE_PROFILES]
    # beyond 2^63, with an excluded locus that factors in milliseconds
    targets.append(make_context(2**64 + 15, -(2**64 + 21)))
    a, b = 2**32 + 1, 3**20 + 2
    n = a * a + b * b
    targets.append(QuadElem(-4, Fraction(a * a - b * b, n), Fraction(a * b, n)))
    return targets


def test_empirical_counter_matches_scalar_rank():
    x = 50_000
    # prime powers up to 2^6 and 7^2, several primes at once, and 2^17 > x + 1,
    # which no p - (D/p) reaches: every prime is eligible and none counts; so
    # too for 2^63 and the prime 2^89 - 1, past int64
    divisors = (1, 2, 4, 6, 9, 12, 30, 111, 8, 16, 25, 27, 49, 60, 64, 385, 2**17,
                2**63, 2**89 - 1)
    on_a1 = 0
    for target in _differential_targets():
        is_pair = isinstance(target, SequenceContext)
        disc = target.delta if is_pair else target.disc_k
        assert is_pair or qf_norm(target) == 1
        ranks, plus_side = [], []
        for p in spf_sieve(x)[1:].tolist():
            try:
                ranks.append(rank(p, target))
            except LucasDensityError:
                continue  # the excluded locus
            plus_side.append(jacobi(disc % p, p) == 1)
            if is_pair and target.a1 % p == 0:
                on_a1 += 1
        for d in divisors:
            rep = empirical_density(target, d, x)
            hits = [r % d == 0 for r in ranks]
            assert rep.eligible == len(ranks), (str(target), d)
            assert rep.counted == sum(hits), (str(target), d)
            assert rep.counted_plus == sum(h and s for h, s in zip(hits, plus_side))
            if d > x + 1:
                assert rep.counted == 0, str(target)
    assert on_a1 >= 3


def test_chi_and_trace_match_scalar():
    primes = spf_sieve(100_000)[1:]
    at_three = 0
    for target in [make_context(1, -1)] + _differential_targets():
        chain = _chain(target)
        p = primes[_residues(chain.locus, primes) != 0]
        num, den = chain.trace.numerator, chain.trace.denominator
        chi, t = _chi_and_trace(num, den, chain.char_disc, p)
        for q, c, r in zip(p.tolist(), chi.tolist(), t.tolist()):
            assert c == jacobi(chain.char_disc % q, q), (str(target), q)
            assert r == num * pow(den, -1, q) % q, (str(target), q)
        at_three += int(p[0] == 3)  # the ladder's exponent (p - 3) / 2 is 0
    assert at_three >= 3


def test_empirical_large_coefficients_finish_quickly():
    t0 = time.perf_counter()
    rep = empirical_density(make_context(10**9 + 7, 10**9 + 9), 2, 10_000)
    assert time.perf_counter() - t0 < 5.0
    assert 0 < rep.counted < rep.eligible


def test_empirical_csv_dump(tmp_path):
    path = tmp_path / "ranks.csv"
    rep = empirical_density(make_context(1, -1), 2, 2000)
    dump_ranks(make_context(1, -1), 2, 2000, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p", "rank", "jacobi", "divisible"]
    assert len(rows) - 1 == rep.eligible
    ps = [int(r[0]) for r in rows[1:]]
    assert ps == sorted(ps)
    assert sum(int(r[3]) for r in rows[1:]) == rep.counted
    assert {r[2] for r in rows[1:]} <= {"1", "-1"}


def test_empirical_rejects_capacity_overrun():
    # x = 1009 is prime: a sieve that stopped at 1008 would drop it
    assert empirical_density(make_context(1, -1), 2, 1009).eligible == 167


def test_report_rejects_inconsistent_counts():
    with pytest.raises(LucasDensityError, match="^EmpiricalReport needs 0 <= counted_plus=4"
                       " <= counted=3 <= eligible=5$"):
        EmpiricalReport(d=2, x=10, counted=3, counted_plus=4, eligible=5)


# the float count and x = 0 are also in test_quadfield._OPTIMIZED_CHECK
@pytest.mark.parametrize("args, message", [
    ((2, 10, 1.5, 1, 3), r"EmpiricalReport\.counted must be an integer, got 1\.5"),
    ((2, 10, 3, True, 5), r"EmpiricalReport\.counted_plus must be an integer, got True"),
    ((2, 10, 3, 1, "5"), r"EmpiricalReport\.eligible must be an integer, got '5'"),
    ((0, 10, 0, 0, 0), r"EmpiricalReport\.d must be a positive integer, got 0"),
    ((2.0, 10, 0, 0, 0), r"EmpiricalReport\.d must be a positive integer, got 2\.0"),
    ((2, -1, 0, 0, 0), r"EmpiricalReport\.x must be a positive integer, got -1"),
])
def test_report_refuses_counts_and_bounds_of_other_types(args, message):
    with pytest.raises(LucasDensityError, match=f"^{message}$"):
        EmpiricalReport(*args)


def test_report_derives_the_inert_count_and_ratios():
    rep = EmpiricalReport(2, 10, 3, 1, 5)
    assert (rep.counted_minus, rep.ratio, rep.ratio_plus, rep.ratio_minus) == (
        2, Fraction(3, 5), Fraction(1, 5), Fraction(2, 5))
    assert EmpiricalReport(2, 1, 0, 0, 0).ratio == 0
    with pytest.raises(TypeError):
        EmpiricalReport(2, 10, 3, 1, 2, 5, Fraction(9, 10), Fraction(1, 5), Fraction(2, 5))


@pytest.mark.parametrize("d", [2.0, 2.5, True])
def test_empirical_rejects_non_integer_divisor(tmp_path, d):
    with pytest.raises(LucasDensityError, match=f"d must be a positive integer, got {d!r}"):
        empirical_density(make_context(1, -1), d, 1000)
    with pytest.raises(LucasDensityError, match="d must be a positive integer"):
        dump_ranks(make_context(1, -1), d, 1000, str(tmp_path / "ranks.csv"))


@pytest.mark.parametrize("value", [1e4, "100", 0, -5, True])
def test_empirical_layer_refuses_non_integer_sizes(tmp_path, value):
    fib = make_context(1, -1)
    for name, call in [
        ("x", lambda: empirical_density(fib, 2, value)),
        ("x", lambda: dump_ranks(fib, 2, value, str(tmp_path / "ranks.csv"))),
        ("p", lambda: rank(value, fib)),
        ("limit", lambda: spf_sieve(value)),
    ]:
        with pytest.raises(LucasDensityError) as info:
            call()
        assert str(info.value) == f"{name} must be a positive integer, got {value!r}"


def test_default_sieve_reaches_the_ceiling(monkeypatch):
    # counting to x needs a sieve to x, not x + 1: x at the ceiling is allowed
    want = empirical_density(make_context(1, -1), 2, 1000)
    monkeypatch.setattr("lucasdensity.lucasrank.SIEVE_CEILING", 1000)
    assert empirical_density(make_context(1, -1), 2, 1000) == want
    assert want.eligible == 166  # the 168 primes below 1000 but 2 and 5
    with pytest.raises(LimitError, match="sieve limit 1001 exceeds the ceiling 1000"):
        empirical_density(make_context(1, -1), 2, 1001)
