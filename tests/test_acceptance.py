"""Acceptance gate: the eight release criteria, one visible verdict line each.

Run with ``python3 -m pytest tests/test_acceptance.py -v -s`` to see the
per-criterion PASS/FAIL lines alongside the pytest verdicts.
"""

import os
import random
import time
from fractions import Fraction

import pytest

from lucasdensity.arith import gcd_power_infinity, jacobi
from lucasdensity.density import (
    REFERENCE_PROFILES,
    REFERENCE_ROWS,
    dispatch,
    kummer_profile,
    normal_form,
    s_eval,
    series_oracle,
)
from lucasdensity.lucasrank import empirical_density, rank, spf_sieve
from lucasdensity.quadfield import (
    QuadElem,
    make_context,
    power_index,
    qf_conj,
    qf_mul,
    torsion_units,
)

from oracles import brute_s_sum, naive_rank

F = Fraction


def _report(number: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"CRITERION {number}: {verdict} — {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_exact_table_reproduction():
    t0 = time.monotonic()
    bad = []
    for row in REFERENCE_ROWS:
        res = dispatch(row.gamma, row.d)
        if res.delta != row.delta:
            bad.append((str(row.gamma), row.d, str(res.delta)))
    elapsed = time.monotonic() - t0
    noted = [row for row in REFERENCE_ROWS if row.annotation]
    annotated_ok = (
        len(noted) == 1
        and noted[0].d == 26
        and noted[0].delta == F(611, 8064)
        and "661/8064" in noted[0].annotation
        and "0.075768" in noted[0].annotation
    )
    ok = not bad and annotated_ok and len(REFERENCE_ROWS) == 18 and elapsed < 1.0
    _report(
        1,
        ok,
        f"18 exact table densities, one annotated discrepancy, {elapsed:.3f}s"
        + (f"; mismatches: {bad}" if bad else ""),
    )


def test_criterion_2_intermediate_columns():
    bad = []
    for exp in REFERENCE_PROFILES:
        pix = power_index(exp.gamma)
        if pix.h != exp.h or pix.zeta_star_exp != exp.zeta_exp:
            bad.append((str(exp.gamma), "h/zeta", pix.h, pix.zeta_star_exp))
            continue
        # canonical root agrees up to a torsion unit and/or conjugation
        candidates = set()
        for z in torsion_units(exp.gamma.disc_k):
            candidates.add(qf_mul(z, exp.root))
            candidates.add(qf_mul(z, qf_conj(exp.root)))
        if pix.gamma0 not in candidates:
            bad.append((str(exp.gamma), "root", str(pix.gamma0)))
            continue
        prof = kummer_profile(normal_form(exp.gamma))
        if prof.sqrt.q_flag != exp.q:
            bad.append((str(exp.gamma), "q", prof.sqrt.q_flag))
            continue
        if prof.conductor != exp.conductor:
            bad.append((str(exp.gamma), "conductor", prof.conductor))
    conds = [e.conductor for e in REFERENCE_PROFILES if e.conductor is not None]
    ok = not bad and sorted(conds) == [7, 20, 40, 63, 208, 333]
    _report(
        2,
        ok,
        "9 element profiles: index, twist, canonical root, square flag, "
        "conductors {20, 40, 208, 7, 63, 333}" + (f"; mismatches: {bad}" if bad else ""),
    )


def test_criterion_3_historical_anchor():
    res = dispatch(make_context(1, -1), 2)
    ok = res.delta == F(2, 3)
    _report(3, ok, f"Fibonacci even-rank density = {res.delta} (expected 2/3), exact")


def test_criterion_4_series_oracle_consistency():
    t0 = time.monotonic()
    bad = []
    for row in REFERENCE_ROWS:
        norm = normal_form(row.gamma)
        closed = dispatch(norm, row.d).delta
        series = series_oracle(norm, row.d)
        if series != closed:
            bad.append((str(row.gamma), row.d, str(series), str(closed)))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 30.0
    _report(
        4,
        ok,
        f"closed forms equal to the exact series sum on all 18 rows, {elapsed:.2f}s"
        + (f"; failures: {bad}" if bad else ""),
    )


def test_criterion_5_inner_sum_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(20260822)
    checked = 0
    bad = []
    while checked < 200:
        d = rng.randint(1, 40)
        e = rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 12])
        h = rng.choice([1, 2, 3, 4, 5, 6, 8, 12])
        nu = rng.choice([1, 2, 3, 4, 8])
        if nu % gcd_power_infinity(h, nu):
            continue
        closed = s_eval(d, e, h, nu)
        if closed != brute_s_sum(d, e, h, nu):
            bad.append((d, e, h, nu))
        checked += 1
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 60.0
    _report(
        5,
        ok,
        f"200 randomized sum evaluations equal to the exact brute-force sum, {elapsed:.2f}s"
        + (f"; failures: {bad}" if bad else ""),
    )


# (counted, counted_plus, counted_minus, eligible) at x = 10^6 in REFERENCE_ROWS
# order, as recorded from the per-prime order-descent counter
PINNED_COUNTS_AT_ONE_MILLION = (
    (20842, 6141, 14701, 78497),
    (6854, 2741, 4113, 78497),
    (13101, 3239, 9862, 78495),
    (10868, 6775, 4093, 78495),
    (1366, 676, 690, 78494),
    (1040, 524, 516, 78494),
    (26187, 13057, 13130, 78496),
    (5463, 2731, 2732, 78496),
    (15962, 7961, 8001, 78495),
    (4950, 2486, 2464, 78495),
    (5933, 2945, 2988, 78494),
    (9567, 4762, 4805, 78494),
    (58886, 29428, 29458, 78495),
    (9562, 4785, 4777, 78495),
    (6589, 3268, 3321, 78494),
    (9315, 4662, 4653, 78494),
    (49100, 24552, 24548, 78493),
    (1953, 982, 971, 78493),
)


def test_criterion_6_empirical_gate_at_one_million():
    t0 = time.monotonic()
    bad = []
    worst_margin = 0.0
    for row, pinned in zip(REFERENCE_ROWS, PINNED_COUNTS_AT_ONE_MILLION):
        delta = row.delta
        report = empirical_density(row.gamma, row.d, 1_000_000)
        counts = (report.counted, report.counted_plus, report.counted_minus,
                  report.eligible)
        if counts != pinned:
            bad.append((str(row.gamma), row.d, "counts", counts, pinned))
        tol = 3.0 * (float(delta * (1 - delta)) / report.eligible) ** 0.5 + 0.002
        dev = float(abs(report.ratio - delta))
        worst_margin = max(worst_margin, dev / tol)
        if dev > tol:
            bad.append((str(row.gamma), row.d, dev, tol))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 300.0
    _report(
        6,
        ok,
        f"all 18 rows match their pinned counts and lie within 3 sigma + 0.002 "
        f"at x = 10^6 "
        f"(worst deviation/tolerance {worst_margin:.2f}), {elapsed:.1f}s"
        + (f"; failures: {bad}" if bad else ""),
    )


# printed reference ratios from the source tables' measured 10^7 sweeps,
# in REFERENCE_ROWS order; exercised only by the optional deep run below
MEASURED_REFERENCE_RATIOS = (
    0.265670, 0.086782, 0.166473, 0.139166, 0.017287, 0.013017,
    0.333427, 0.069279, 0.203844, 0.062553, 0.075771, 0.121457,
    0.750058, 0.121231, 0.083407, 0.117806, 0.624809, 0.024823,
)


@pytest.mark.skipif(
    not os.environ.get("LUCASDENSITY_RUN_10M"),
    reason="deep 10^7 sweep: set LUCASDENSITY_RUN_10M=1 to enable",
)
def test_criterion_6_optional_ten_million_sweep():
    bad = []
    for row, expected in zip(REFERENCE_ROWS, MEASURED_REFERENCE_RATIOS):
        report = empirical_density(row.gamma, row.d, 10_000_000)
        gap = abs(float(report.ratio) - expected)
        print(f"  x=10^7 {row.gamma} d={row.d}: ratio {float(report.ratio):.6f} "
              f"vs recorded {expected:.6f} (gap {gap:.2e})")
        if gap > 1.5e-3:
            bad.append((str(row.gamma), row.d, gap))
    _report(6, not bad, "optional 10^7 sweep matches the recorded ratios"
            + (f"; failures: {bad}" if bad else ""))


def test_criterion_7_structural_properties():
    fams = (
        REFERENCE_ROWS[0].gamma,   # real field, trivial twist
        REFERENCE_ROWS[4].gamma,   # imaginary field, untwisted
        REFERENCE_ROWS[8].gamma,   # Gaussian field, twisted
        REFERENCE_ROWS[14].gamma,  # Eisenstein field, twisted
        REFERENCE_ROWS[16].gamma,  # sign-switched routing
    )
    problems = []

    for gamma in fams:
        if dispatch(gamma, 1).delta != 1:
            problems.append(("delta(1)", str(gamma)))

    for gamma in fams:
        vals = {d: dispatch(gamma, d).delta for d in range(1, 61)}
        for d in range(1, 61):
            for dp in range(2 * d, 61, d):
                if vals[dp] > vals[d]:
                    problems.append(("monotone", str(gamma), d, dp))

    for gamma in fams:
        for d in (2, 3, 4, 6, 9, 10, 12, 20, 36):
            res = dispatch(gamma, d)
            if res.delta_plus + res.delta_minus != res.delta:
                problems.append(("split-sum", str(gamma), d))
            if gamma.disc_k < 0 and res.delta_plus != res.delta_minus:
                problems.append(("imag-balance", str(gamma), d))

    for row in REFERENCE_ROWS:
        a = dispatch(row.gamma, row.d)
        b = dispatch(qf_conj(row.gamma), row.d)
        if (a.delta, a.delta_plus) != (b.delta, b.delta_plus):
            problems.append(("conjugation", str(row.gamma), row.d))

    switched = REFERENCE_ROWS[2].gamma
    minus = QuadElem(switched.disc_k, -switched.u, -switched.v)
    for d in (1, 3, 4, 8, 9, 12, 20):
        if dispatch(switched, d).delta != dispatch(minus, d).delta:
            problems.append(("switch-passthrough", d))

    _report(
        7,
        not problems,
        "delta(1) = 1, divisor monotonicity on 1..60, split sums, imaginary "
        "balance, conjugation invariance, switch pass-through — all exact"
        + (f"; failures: {problems}" if problems else ""),
    )


def test_criterion_8_rank_correctness():
    pairs = ((1, -1), (2, -1), (1, 3), (5, 3))
    problems = []
    for a1, a2 in pairs:
        ctx = make_context(a1, a2)
        excluded = 2 * abs(a2) * abs(ctx.delta)
        small = [int(p) for p in spf_sieve(1000) if excluded % p]
        for p in small:
            got = rank(p, ctx)
            naive = naive_rank(p, a1, a2)
            if got != naive:
                problems.append(("naive", (a1, a2), p, got, naive))
        for p in spf_sieve(100_000):
            p = int(p)
            if excluded % p == 0:
                continue
            r = rank(p, ctx)
            if (p - jacobi(ctx.delta % p, p)) % r:
                problems.append(("divisibility", (a1, a2), p, r))
    _report(
        8,
        not problems,
        "4 companion pairs: rank equals naive iteration below 1000 and divides "
        "p - (D/p) below 10^5" + (f"; failures: {problems[:5]}" if problems else ""),
    )
