"""The set-associative simulator's paper claims, gated in the test suite.

``benchmarks/`` holds the replacement-policy and model cross-validation
ablations as pytest-benchmark runs, which the plain test suite does not
collect.  These tests call the same ``run_ablation`` functions and repeat
their assertions, so any rewrite of the simulator must still reproduce
the claims themselves, not only byte-identical goldens.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def load_benchmark(name):
    """Import ``benchmarks/<name>.py``, resolving its ``from conftest
    import emit`` against the benchmarks' own conftest."""

    def load(module_name, path):
        spec = importlib.util.spec_from_file_location(module_name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    saved = sys.modules.get("conftest")
    sys.modules["conftest"] = load("benchmarks_conftest", BENCHMARKS / "conftest.py")
    try:
        return load(f"benchmarks_{name}", BENCHMARKS / f"{name}.py")
    finally:
        if saved is None:
            del sys.modules["conftest"]
        else:
            sys.modules["conftest"] = saved


def test_scan_resistant_policies_protect_the_hot_set():
    results = load_benchmark("test_ablation_replacement_policies").run_ablation()
    assert results["bip"] > results["lru"]
    assert results["dip"] > results["lru"]
    assert results["pdp"] >= results["lru"]
    assert all(0.0 <= r <= 1.0 for r in results.values())


def test_occupancy_model_agrees_with_faithful_simulator():
    results = load_benchmark("test_ablation_model_crossvalidation").run_ablation()
    fa, fb = results["faithful"]
    aa, ab = results["analytical"]
    assert fb > fa and ab > aa
    assert aa == pytest.approx(fa, abs=0.12)
    assert ab == pytest.approx(fb, abs=0.12)
