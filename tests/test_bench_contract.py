"""The benchmark's workloads must run against the package as it stands.

``bench/run.py`` is loaded from its path and only read: each workload runs its
set-up and its first round in this process, and every op must pass the
workload's own check.  A renamed function, a dropped CLI option or a moved
reference table then fails here rather than as a failed benchmark run.  That
every traced layer function exists is checked in ``test_trace_contract.py``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench_run():
    saved_path, saved_modules = list(sys.path), set(sys.modules)
    sys.path.insert(0, str(BENCH))  # run.py imports harness and workloads by name
    try:
        spec = importlib.util.spec_from_file_location("lucasdensity_bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = saved_path
        for name in ("harness", "workloads"):
            if name not in saved_modules:
                sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["exact_fresh", "exact_sweep", "verify_1e6"])
def test_workload_first_round_passes_its_checks(bench_run, name):
    workload = bench_run.WORKLOADS[name]()
    saved_path = list(sys.path)
    try:
        workload.setup(1)  # import_package puts src/ on sys.path
    finally:
        sys.path[:] = saved_path
    ops = next(workload.rounds)
    assert ops
    for op in ops:
        out = workload.run(workload.prepare(op))
        assert workload.check(op, out) is None, op
