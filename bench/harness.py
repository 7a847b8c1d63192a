"""Measurement pieces of the benchmark: host speed, the percentile rule, layer tracing, environment.

Tracing wraps the package's layer-boundary functions from outside: every
module binding of a listed function is replaced by a wrapper that records a
span (name, start, end, parent).  Spans stay in memory for the run; self time
is a span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import os
import platform
import subprocess
import sys
import time
from fractions import Fraction
from typing import Callable, Optional, Sequence

MIN_BEYOND = 10  # samples required above a reported percentile
SPIN_REF_S = 0.010  # reference time of spin(): timings are scaled to this host speed


def spin() -> float:
    """Seconds for a fixed loop of integer and Fraction arithmetic: the host's current speed.

    It runs with the garbage collector paused, so the size of the package's
    heap cannot move it.  The Fraction half tracks the slow phases of the
    host on this package's own kind of work better than integers alone do.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for i in range(50_000):
            acc += i * i % 7
        total = Fraction(0)
        for i in range(1, 700):
            total += Fraction(i % 97 + 1, 3 * i + 1)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


def percentile(samples: Sequence[float], pct: int) -> Optional[float]:
    """Nearest-rank pct-th percentile, or None unless MIN_BEYOND samples lie above it."""
    if not 0 < pct < 100:
        raise ValueError(f"percentile must lie in 1..99, got {pct}")
    ordered = sorted(samples)
    rank = max(1, -(-pct * len(ordered) // 100))  # ceil(pct * n / 100), 1-based
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# layer tracing


# Layer-boundary functions, by defining module.  The hit classifiers count
# useful outcomes: a root found by is_nth_power.
LAYER_FUNCTIONS = (
    "arith.factorize",
    "quadfield.power_index",
    "quadfield.is_nth_power",
    "quadfield.fundamental_unit",
    "kummer.sqrt_data",
    "kummer.quartic_conductor",
    "kummer.cubic_conductor",
    "kummer.poly_field_disc",
    "kummer.kummer_degree",
    "kummer.sigma_exists",
    "density.kummer_profile",
    "density.series_oracle",
    "density.s_eval",
    "density.dispatch",
    "lucasrank.spf_sieve",
    "lucasrank.empirical_density",
    "cli.main",
)
HIT_CLASSIFIERS = {"quadfield.is_nth_power": lambda result: result is not None}


class TraceError(RuntimeError):
    """A listed layer function is missing from the package."""


class Tracer:
    """Span recorder; spans are [name, start, end, parent index] lists."""

    def __init__(self) -> None:
        self.spans: list = []
        self.hits: dict = {}
        self._stack: list = []

    def wrap(self, name: str, fn: Callable, classify: Optional[Callable] = None) -> Callable:
        spans, stack, hits = self.spans, self._stack, self.hits
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if classify is not None and classify(result):
                hits[name] = hits.get(name, 0) + 1
            return result

        return traced

    def take(self) -> list:
        """Spans recorded since the last take; call between ops only."""
        out = self.spans[:]
        del self.spans[:]
        return out


def install(tracer: Tracer, package: str = "lucasdensity") -> list:
    """Wrap every module binding of each LAYER_FUNCTIONS entry; return the bindings."""
    modules = {name: mod for name, mod in sys.modules.items()
               if mod is not None and (name == package or name.startswith(package + "."))}
    wrapped = []
    for qualified in LAYER_FUNCTIONS:
        mod_name, attr = qualified.split(".")
        home = modules.get(f"{package}.{mod_name}")
        original = getattr(home, attr, None) if home is not None else None
        if not callable(original):
            raise TraceError(f"layer function {package}.{qualified} no longer exists")
        wrapper = tracer.wrap(qualified, original, HIT_CLASSIFIERS.get(qualified))
        for holder_name, holder in sorted(modules.items()):
            for binding, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, binding, wrapper)
                    wrapped.append(f"{holder_name}.{binding}")
    return wrapped


def self_times(spans: Sequence) -> dict:
    """name -> [calls, self seconds]; self = duration minus child coverage."""
    children: dict = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append(span)
    out: dict = {}
    for idx, (name, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for _, c_start, c_end, _ in sorted(children.get(idx, ()), key=lambda s: s[1]):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - covered
    return out


# ---------------------------------------------------------------------------
# environment


def _llc_bytes() -> Optional[int]:
    # glibc's _SC_LEVEL3_CACHE_SIZE, which Python does not name
    try:
        value = os.sysconf(194)
    except (ValueError, OSError):
        return None
    return value if value > 0 else None


def _git_sha(root: str) -> Optional[str]:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest(src_dir: str) -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                h.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(root: str, seed: int, x: Optional[int]) -> dict:
    import mpmath
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": _llc_bytes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "git_sha": _git_sha(root),
        "src_sha256": source_digest(os.path.join(root, "src")),
        "seed": seed,
        "x": x,
    }
