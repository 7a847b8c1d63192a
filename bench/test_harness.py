"""Tests of the benchmark's own logic: python3 -m pytest bench/test_harness.py"""

from __future__ import annotations

import sys
import types
from collections import Counter
from fractions import Fraction

import pytest

import harness
import workloads


# ---------------------------------------------------------------------------
# percentile rule


def test_percentile_needs_ten_samples_beyond():
    assert harness.percentile(range(1, 101), 90) == 90  # 91..100 lie above
    assert harness.percentile(range(1, 100), 90) is None  # only 9 above
    assert harness.percentile(range(1, 20), 50) is None
    assert harness.percentile(range(1, 21), 50) == 10


def test_percentile_ignores_input_order():
    samples = [5.0, 1.0, 3.0] * 40
    assert harness.percentile(samples, 50) == 3.0
    assert harness.percentile(samples, 90) == 5.0


@pytest.mark.parametrize("pct", [0, 100, -5])
def test_percentile_rejects_bounds(pct):
    with pytest.raises(ValueError):
        harness.percentile(range(200), pct)


# ---------------------------------------------------------------------------
# self time


def test_self_time_subtracts_nested_children():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 7.0, 0],
        ["a", 20.0, 21.0, -1],
    ]
    out = harness.self_times(spans)
    assert out["a"] == [2, pytest.approx(5.0 + 1.0)]  # 10 - 3 - 2, plus a leaf of 1
    assert out["b"] == [2, pytest.approx(2.0 + 2.0)]
    assert out["c"] == [1, pytest.approx(1.0)]


def test_self_time_counts_covered_time_once():
    spans = [
        ["p", 0.0, 10.0, -1],
        ["x", 2.0, 6.0, 0],
        ["y", 4.0, 8.0, 0],  # overlaps x: only 6..8 is new coverage
        ["z", 9.0, 12.0, 0],  # runs past its parent: only 9..10 counts
    ]
    assert harness.self_times(spans)["p"][1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_parents_and_hits():
    tracer = harness.Tracer()
    inner = tracer.wrap("inner", lambda n: n if n > 1 else None, lambda r: r is not None)
    outer = tracer.wrap("outer", lambda: [inner(2), inner(0)])
    assert outer() == [2, None]
    spans = tracer.take()
    assert [s[0] for s in spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in spans] == [-1, 0, 0]
    assert tracer.hits == {"inner": 1}
    assert tracer.take() == []


@pytest.fixture
def fake_package(monkeypatch):
    """A package named 'fakepkg' holding every listed layer function."""
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    funcs = {}
    for qualified in harness.LAYER_FUNCTIONS:
        mod_name, attr = qualified.split(".")
        mod = sys.modules.get(f"fakepkg.{mod_name}")
        if mod is None:
            mod = types.ModuleType(f"fakepkg.{mod_name}")
            monkeypatch.setitem(sys.modules, f"fakepkg.{mod_name}", mod)
        funcs[qualified] = lambda *a, _q=qualified: _q
        setattr(mod, attr, funcs[qualified])
    return funcs


def test_install_wraps_every_binding(fake_package):
    # a second module importing the function by name must be wrapped as well
    sys.modules["fakepkg.cli"].dispatch = fake_package["density.dispatch"]
    tracer = harness.Tracer()
    bindings = harness.install(tracer, package="fakepkg")
    assert "fakepkg.cli.dispatch" in bindings and "fakepkg.density.dispatch" in bindings
    assert sys.modules["fakepkg.cli"].dispatch() == "density.dispatch"
    assert [s[0] for s in tracer.take()] == ["density.dispatch"]


def test_install_fails_loudly_on_a_missing_function(fake_package):
    del sys.modules["fakepkg.kummer"].poly_field_disc
    with pytest.raises(harness.TraceError, match="kummer.poly_field_disc"):
        harness.install(harness.Tracer(), package="fakepkg")


# ---------------------------------------------------------------------------
# input generation


def _blocks(seed, n=3):
    stream = iter(workloads.FreshStream(seed))
    return [next(stream) for _ in range(n)]


def test_fresh_stream_repeats_for_a_seed():
    assert _blocks(7) == _blocks(7)


def test_fresh_stream_other_seed_same_composition():
    a, b = _blocks(7), _blocks(8)
    assert a != b
    want = dict(workloads.FRESH_BLOCK)
    for block_a, block_b in zip(a, b):
        assert [op.stratum for op in block_a] == [op.stratum for op in block_b]
        assert Counter(op.stratum for op in block_a) == want
        assert sorted(op.d for op in block_a) == list(range(1, workloads.D_MAX + 1))
    # small Gaussian and Eisenstein bases can come up under both seeds
    members_a = {op.target for block in a for op in block}
    members_b = {op.target for block in b for op in block}
    assert len(members_a & members_b) < len(members_a) // 10


def test_fresh_stream_inputs_are_valid_and_new():
    seen = set()
    for block in _blocks(3, n=4):
        for op in block:
            if op.target[0] == "pair":
                _, a1, a2 = op.target
                t = workloads._pair_trace(a1, a2)
                assert t is not None
                traces = {t, -t}
            else:
                _, disc, u, v = op.target
                assert u * u - disc * v * v == 1
                traces = workloads.twist_traces(op.target[1:])
            assert not traces & seen, f"{op} repeats an earlier element or twist"
            seen |= traces


def test_reserved_elements_are_never_drawn():
    first = _blocks(11, n=1)[0]
    reserved = [op.target[1:] for op in first if op.target[0] == "elem"]
    again = workloads.FreshStream(11, reserved).block()
    drawn = {op.target[1:] for op in again if op.target[0] == "elem"}
    assert not drawn & set(reserved)


def test_lucas_v_powers_the_root_quotient():
    # tr(gamma^h) obeys t_(k+1) = t_1 * t_k - t_(k-1) and equals V_h^2 / b2^h - 2
    b1, b2, h = 3, 5, 4
    t1 = Fraction(b1 * b1, b2) - 2
    traces = [Fraction(2), t1]
    for _ in range(h - 1):
        traces.append(t1 * traces[-1] - traces[-2])
    assert Fraction(workloads.lucas_v(h, b1, b2) ** 2, b2**h) - 2 == traces[h]


def test_sweep_and_verify_plans_follow_the_seed():
    reserved = [(-4, Fraction(-3, 5), Fraction(2, 5))]
    assert workloads.sweep_plan(5, 9, reserved) == workloads.sweep_plan(5, 9, reserved)
    pairs, order = workloads.sweep_plan(5, 9, reserved)
    assert len(pairs) == 2 and len(order) == 11 * workloads.D_MAX
    assert sorted(order) == [(i, d) for i in range(11) for d in range(1, workloads.D_MAX + 1)]
    pools = {kind: list(range(10 * n, 10 * n + 5))
             for n, kind in enumerate(workloads.VERIFY_KINDS)}
    plan = workloads.verify_plan(5, pools)
    assert plan == workloads.verify_plan(5, pools)
    assert [kind for kind, _ in plan] == list(workloads.VERIFY_KINDS)
    assert all(member in pools[kind] for kind, member in plan)
