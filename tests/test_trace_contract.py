"""The benchmark's layer tracer must find and wrap every layer it lists.

``bench/harness.py`` is loaded from its path as it stands; the test only reads
it and restores every binding it wrapped.
"""

import importlib.util
import sys
from pathlib import Path

import lucasdensity
import lucasdensity.cli  # noqa: F401  (cli.main is a listed layer)
from lucasdensity.density import REFERENCE_PROFILES, normal_form

HARNESS = Path(__file__).resolve().parents[1] / "bench" / "harness.py"


def _load_harness():
    spec = importlib.util.spec_from_file_location("lucasdensity_bench_harness", HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_function_resolves():
    harness = _load_harness()
    for qualified in harness.LAYER_FUNCTIONS:
        mod_name, attr = qualified.split(".")
        module = sys.modules[f"lucasdensity.{mod_name}"]
        assert callable(getattr(module, attr, None)), qualified


def test_tracing_sees_the_cached_factorize():
    harness = _load_harness()
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "lucasdensity" or name.startswith("lucasdensity.")}
    saved = {name: dict(vars(mod)) for name, mod in modules.items()}
    tracer = harness.Tracer()
    try:
        assert "lucasdensity.arith.factorize" in harness.install(tracer)
        lucasdensity.arith.factorize(2**5 * 3**7 * 1_000_003)
        # through the module binding, the one the tracer replaced
        lucasdensity.density.series_oracle(normal_form(REFERENCE_PROFILES[0].gamma), 12)
    finally:
        for name, values in saved.items():
            for binding, value in values.items():
                setattr(modules[name], binding, value)
    calls = harness.self_times(tracer.take())
    assert calls["arith.factorize"][0] >= 1
    assert calls["density.series_oracle"][0] == 1
    assert calls["kummer.kummer_degree"][0] > 1
