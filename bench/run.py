#!/usr/bin/env python3
"""Benchmark for lucasdensity: seeded workloads, end-to-end metrics, traced layer timings.

Run from the repository root:

    python3 bench/run.py --workload exact_fresh --seed 1 --seconds 30 --trace 0

Workloads (bench/README.md says why each exists):
  exact_fresh  one dispatch(target, d) per op, every element new to the process
  exact_sweep  11 fixed elements queried for every d in 1..60, profile caches warm
  verify_1e6   one `lucasdensity verify --limit 1000000 --threads 1` per op

One client, closed loop: each op starts when the previous one has been
checked.  Ops come in rounds (a block, a sweep pass, a verify cycle) and a
run measures whole rounds until --seconds have passed.

--trace 0 reports the end-to-end metrics with nothing wrapped.  --trace 1
measures half the time untraced, then wraps the package's layer functions for
the other half and reports the per-layer metrics and the tracing overhead.
Op times are scaled to a reference host speed measured between ops by
harness.spin(), since a shared host's speed drifts within a run.
The last stdout line is the result; the line before it holds the details
(environment, result digest, sample counts), which are also written, with the
spans of a traced run, to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from fractions import Fraction
from typing import Optional

import harness
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "bench", "out")
SETUP_REPEATS = 7  # set-ups per trace-0 run: this process plus fresh children
CHILD_TIMEOUT_S = 120
KEEP_SPANS = 100_000  # spans written to the trace file; aggregates cover all
VERIFY_X = 1_000_000
SPIN_EVERY_S = 0.25  # host-speed samples between ops, at most this far apart


def import_package():
    """Import lucasdensity from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import lucasdensity
    import lucasdensity.cli

    if not os.path.abspath(lucasdensity.__file__).startswith(SRC + os.sep):
        raise ImportError(f"lucasdensity resolved outside {SRC}: {lucasdensity.__file__}")
    return lucasdensity


def _triple(gamma) -> tuple:
    return (gamma.disc_k, gamma.u, gamma.v)


def check_density(res, expected: Optional[tuple] = None) -> Optional[str]:
    """Invariants every exact result must satisfy, plus a recorded value if any."""
    if not 0 <= res.delta <= 1:
        return f"delta {res.delta} outside [0, 1]"
    if res.delta_plus < 0 or res.delta_minus < 0:
        return f"negative split {res.delta_plus}, {res.delta_minus}"
    if res.delta_plus + res.delta_minus != res.delta:
        return "delta_plus + delta_minus != delta"
    if sum((t.coefficient * t.value for t in res.trace), Fraction(0)) != res.delta:
        return "trace terms do not sum to delta"
    if expected is not None and (res.delta, res.case_tag) != expected:
        return f"got {(res.delta, res.case_tag)}, recorded {expected}"
    return None


def canonical_density(op, res) -> str:
    terms = ";".join(f"{t.d},{t.e},{t.h},{t.nu},{t.coefficient},{t.value}" for t in res.trace)
    return (f"{op.target}|{op.d}|{res.delta}|{res.delta_plus}|{res.delta_minus}|"
            f"{res.case_tag}|{terms}")


# ---------------------------------------------------------------------------
# workloads


class ExactFresh:
    """dispatch on elements new to the process: profile caches always miss."""

    name = "exact_fresh"
    x = None
    digest_rounds = 4  # the reference rows and the first three blocks

    def setup(self, seed: int) -> None:
        self.pkg = pkg = import_package()
        warm = pkg.make_context(1, -1)
        for d in (2, 3):  # lazy state of the exact path, on an element never drawn
            pkg.dispatch(warm, d)
        rows = pkg.REFERENCE_ROWS
        reference = [workloads.ExactOp("reference", ("elem",) + _triple(r.gamma), r.d)
                     for r in rows]
        self.expected = {(op.target, op.d): (r.delta, r.case_tag)
                         for op, r in zip(reference, rows)}
        reserved = [_triple(r.gamma) for r in rows] + [_triple(warm.gamma)]
        self.rounds = itertools.chain([reference], workloads.FreshStream(seed, reserved))

    def prepare(self, op):
        if op.target[0] == "pair":
            return self.pkg.make_context(op.target[1], op.target[2]), op.d
        return self.pkg.QuadElem(*op.target[1:]), op.d

    def run(self, prepared):
        return self.pkg.dispatch(*prepared)

    def check(self, op, res) -> Optional[str]:
        return check_density(res, self.expected.get((op.target, op.d)))

    canonical = staticmethod(canonical_density)

    def eligible(self, res) -> int:
        return 0


class ExactSweep(ExactFresh):
    """Fixed elements for every d in 1..60 after a warm-up: profile caches hit."""

    name = "exact_sweep"
    digest_rounds = 1  # one full pass; later passes must repeat it exactly

    def setup(self, seed: int) -> None:
        self.pkg = pkg = import_package()
        fixed = [p.gamma for p in pkg.REFERENCE_PROFILES]
        pairs, order = workloads.sweep_plan(seed, len(fixed), [_triple(g) for g in fixed])
        self.targets = fixed + [pkg.make_context(a1, a2) for _, a1, a2 in pairs]
        for target in self.targets:
            pkg.dispatch(target, 2)
        self.expected = {(_triple(r.gamma), r.d): (r.delta, r.case_tag)
                         for r in pkg.REFERENCE_ROWS}
        labels = [("elem",) + _triple(g) for g in fixed] + list(pairs)
        sweep = [workloads.ExactOp("sweep", labels[i], d) for i, d in order]
        self.index = {op: i for op, (i, _) in zip(sweep, order)}
        self.first: dict = {}
        self.rounds = itertools.repeat(sweep)

    def prepare(self, op):
        return self.targets[self.index[op]], op.d

    def check(self, op, res) -> Optional[str]:
        key = op.target[1:] if op.target[0] == "elem" else None
        err = check_density(res, self.expected.get((key, op.d)))
        if err is None:
            got = (res.delta, res.delta_plus, res.delta_minus, res.case_tag, res.trace)
            if self.first.setdefault(op, got) != got:
                err = "result differs from the first pass"
        return err


class Verify1e6:
    """`lucasdensity verify` at x = 10^6 through cli.main: sieve, dispatch, count."""

    name = "verify_1e6"
    x = VERIFY_X
    digest_rounds = 1

    def setup(self, seed: int) -> None:
        self.pkg = pkg = import_package()
        rows = pkg.REFERENCE_ROWS
        pools = {
            "pair": [("pair", d) for d in workloads.FIB_D],
            "real": [("row", i) for i, r in enumerate(rows) if r.gamma.disc_k > 0],
            "gauss": [("row", i) for i, r in enumerate(rows) if r.gamma.disc_k == -4],
            "eisen": [("row", i) for i, r in enumerate(rows) if r.gamma.disc_k == -3],
        }
        self.expected = {}
        cycle = []
        for kind, (source, member) in workloads.verify_plan(seed, pools):
            if source == "pair":
                argv = ["--a1", "1", "--a2", "-1", "--d", str(member)]
            else:
                g, d = rows[member].gamma, rows[member].d
                argv = ["--gamma", str(g.u), str(g.v), "--radicand", str(g.disc_k),
                        "--d", str(d)]
                self.expected[kind] = rows[member].delta
            cycle.append((kind, ["verify"] + argv + [
                "--limit", str(VERIFY_X), "--threads", "1", "--format", "json"]))
        self.rounds = itertools.repeat(cycle)
        # warm-up on a pair outside every pool, at a small limit
        self._cli(["verify", "--a1", "3", "--a2", "-2", "--d", "2", "--limit", "1000",
                   "--threads", "1", "--format", "json"])

    def _cli(self, argv: list) -> tuple:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.pkg.cli.main(argv)
        return code, buf.getvalue()

    def prepare(self, op):
        return op[1]

    def run(self, argv):
        return self._cli(argv)

    def check(self, op, out) -> Optional[str]:
        code, text = out
        if code != 0:
            return f"exit code {code}"
        report = json.loads(text)
        if report["x"] != VERIFY_X or report["passed"] is not True:
            return f"verify did not pass: {text.strip()}"
        want = self.expected.get(op[0])
        if want is not None and Fraction(report["delta"]["num"], report["delta"]["den"]) != want:
            return f"delta {report['delta']} differs from the recorded {want}"
        return None

    def canonical(self, op, out) -> str:
        report = json.loads(out[1])
        report.pop("runtime_seconds")
        return f"{op[1]}|{out[0]}|{json.dumps(report, sort_keys=True)}"

    def eligible(self, out) -> int:
        return json.loads(out[1])["eligible"]


WORKLOADS = {w.name: w for w in (ExactFresh, ExactSweep, Verify1e6)}


# ---------------------------------------------------------------------------
# measurement


class Runner:
    """Times ops round by round and keeps checks, digest and trace aggregates."""

    def __init__(self, workload) -> None:
        self.wl = workload
        self.rounds_done = 0
        self.attempted = 0
        self.failures: list = []
        self.digest = hashlib.sha256()
        self.digest_ops = 0
        self.tracer: Optional[harness.Tracer] = None
        self.layer: dict = {}
        self.kept_spans: list = []
        self.span_count = 0

    def phase(self, seconds: float) -> dict:
        """Run whole rounds for about `seconds`; latencies of passing ops.

        Another round starts only if it should end less than half a round
        past the deadline, so a run of long rounds (a verify cycle takes
        about 12 s) is not stretched by up to a whole round.
        """
        wl, clock = self.wl, time.perf_counter
        # compact per-op storage, so the harness adds little to peak_rss_mb
        lat = array("d")
        segment = array("I")
        positions = array("I")
        spins = [harness.spin()]
        last_spin = clock()
        eligible = 0
        end = clock() + seconds
        last_round = 0.0
        while clock() + last_round / 2 < end:
            round_start = clock()
            digesting = self.rounds_done < wl.digest_rounds
            for position, op in enumerate(next(wl.rounds)):
                if clock() - last_spin > SPIN_EVERY_S:
                    spins.append(harness.spin())
                    last_spin = clock()
                self.attempted += 1
                try:
                    prepared = wl.prepare(op)
                    t0 = clock()
                    out = wl.run(prepared)
                    elapsed = clock() - t0
                    err = wl.check(op, out)
                except Exception as exc:  # a failing op is counted, not fatal
                    out, err = None, f"{type(exc).__name__}: {exc}"
                if self.tracer is not None:
                    self._fold(self.tracer.take())
                if digesting:
                    self.digest.update((wl.canonical(op, out) if err is None else err).encode())
                    self.digest.update(b"\n")
                    self.digest_ops += 1
                if err is None:
                    lat.append(elapsed)
                    segment.append(len(spins) - 1)
                    positions.append(position)
                    eligible += wl.eligible(out)
                else:
                    self.failures.append(f"{op}: {err}")
            self.rounds_done += 1
            last_round = clock() - round_start
        spins.append(harness.spin())
        # each op's time at the reference speed: scaled by the spin loop's
        # time around the op's segment
        scaled = array("d", (t * harness.SPIN_REF_S * 2 / (spins[k] + spins[k + 1])
                             for t, k in zip(lat, segment)))
        return {"lat": scaled, "raw_lat": lat, "positions": positions, "spins": spins,
                "eligible": eligible}

    def _fold(self, spans: list) -> None:
        for name, (calls, self_s) in harness.self_times(spans).items():
            entry = self.layer.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        if len(self.kept_spans) < KEEP_SPANS:
            op_id = self.attempted
            self.kept_spans.extend([op_id] + s for s in spans)
        self.span_count += len(spans)


def throughput(phase: dict) -> float:
    busy = sum(phase["lat"])
    return len(phase["lat"]) / busy if busy else 0.0


def latency_summary(lat: list, positions: list) -> dict:
    """Median and p90 in ms; the tail falls back when the p90 rule is not met.

    A run with too few ops for a p90 (verify_1e6 makes about a dozen) reports
    instead the median latency of its slowest op in the round: the slowest
    target, which a lone maximum would show only with its noise.
    """
    if not lat:
        return {"samples": 0, "p50_ms": None, "tail_ms": None, "p90_rule_met": False}
    p90 = harness.percentile(lat, 90)
    if p90 is None:
        by_position: dict = {}
        for t, pos in zip(lat, positions):
            by_position.setdefault(pos, []).append(t)
        tail = max(statistics.median(v) for v in by_position.values())
    return {
        "samples": len(lat),
        "p50_ms": statistics.median(lat) * 1e3,
        "tail_ms": (p90 if p90 is not None else tail) * 1e3,
        "p90_rule_met": p90 is not None,
    }


def end_to_end_metrics(phase: dict, setups: list, peak_rss_mb: float) -> dict:
    summary = latency_summary(phase["lat"], phase["positions"])
    return {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_s": (throughput(phase), "ops/s"),
        "latency_p50_ms": (summary["p50_ms"], "ms"),
        "latency_p90_ms": (summary["tail_ms"], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


PER_CALL_AND_SELF = (
    "quadfield.power_index", "quadfield.is_nth_power", "quadfield.fundamental_unit",
    "kummer.sqrt_data", "kummer.quartic_conductor", "kummer.cubic_conductor",
    "kummer.poly_field_disc", "kummer.kummer_degree", "density.series_oracle",
    "density.s_eval", "density.dispatch", "arith.factorize",
    "lucasrank.spf_sieve", "lucasrank.empirical_density",
)


def per_layer_metrics(runner: Runner, untraced: dict, traced: dict) -> dict:
    """Per traced op: calls and self seconds (unscaled) by layer, and the ratios.

    A ratio whose layer saw no calls is reported as 0.
    """
    ops = max(1, len(traced["lat"]))

    def calls(name):
        return runner.layer.get(name, (0, 0.0))[0]

    def self_s(name):
        return runner.layer.get(name, (0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in PER_CALL_AND_SELF:
        out[f"{name}.calls"] = (calls(name) / ops, "calls/op")
        out[f"{name}.self_s"] = (self_s(name) / ops, "s/op")
    nth = "quadfield.is_nth_power"
    out[f"{nth}.hit_ratio"] = (ratio(runner.tracer.hits.get(nth, 0), calls(nth)), "ratio")
    out["kummer.sigma_exists.calls"] = (calls("kummer.sigma_exists") / ops, "calls/op")
    profiles = calls("density.kummer_profile")
    out["density.kummer_profile.calls"] = (profiles / ops, "calls/op")
    out["density.profile_cache_hit_ratio"] = (
        1 - ratio(calls("kummer.sqrt_data"), profiles) if profiles else 0.0, "ratio")
    out["lucasrank.eligible"] = (traced["eligible"] / ops, "primes/op")
    out["cli.main.self_s"] = (self_s("cli.main") / ops, "s/op")
    out["trace.overhead_ops_s"] = (throughput(untraced) - throughput(traced), "ops/s")
    return out


def child_setup(workload: str, seed: int) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed ({done.returncode}): {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print it (used internally)")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]()
    spin_before = harness.spin()
    t0 = time.perf_counter()
    try:
        wl.setup(args.seed)
    except ImportError as exc:
        print(f"cannot import the package from {SRC}: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - t0
    setups = [elapsed * harness.SPIN_REF_S * 2 / (spin_before + harness.spin())]
    if args.setup_only:
        print(json.dumps({"setup_s": setups[0]}))
        return 0

    runner = Runner(wl)
    bindings: list = []
    if args.trace:
        untraced = runner.phase(args.seconds / 2)
        runner.tracer = harness.Tracer()
        try:
            bindings = harness.install(runner.tracer)
        except harness.TraceError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        traced = runner.phase(args.seconds / 2)
        metrics = per_layer_metrics(runner, untraced, traced)
        measured = traced
    else:
        try:
            setups += [child_setup(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        measured = runner.phase(args.seconds)
        # read before the summaries below sort the samples
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = end_to_end_metrics(measured, setups, peak_rss_mb)

    failed = len(runner.failures)
    detail = {
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": harness.environment(ROOT, args.seed, wl.x),
        "rounds": runner.rounds_done,
        "latency": latency_summary(measured["lat"], measured["positions"]),
        "unscaled": {"throughput_ops_s": throughput({"lat": measured["raw_lat"]}),
                     "latency": latency_summary(measured["raw_lat"], measured["positions"])},
        "spin_ms": {"ref": harness.SPIN_REF_S * 1e3, "samples": len(measured["spins"]),
                    "median": statistics.median(measured["spins"]) * 1e3},
        "setup_samples_s": setups,
        "failed_frac": failed / runner.attempted,
        "failures": runner.failures[:5],
        "digest": {"sha256": runner.digest.hexdigest(), "ops": runner.digest_ops},
    }
    if wl.x is not None:
        busy = sum(measured["lat"])
        detail["primes_per_s"] = measured["eligible"] / busy if busy else 0.0
    if args.trace:
        detail["untraced_ops_s"] = throughput(untraced)
        detail["traced_ops_s"] = throughput(traced)
        detail["spans"] = {"total": runner.span_count, "written": len(runner.kept_spans)}
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump({"detail": detail, "bindings": bindings,
                   "span_fields": ["op", "name", "start", "end", "parent"],
                   "spans": runner.kept_spans}, fh)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
