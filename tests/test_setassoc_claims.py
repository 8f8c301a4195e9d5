"""The paper's claims, gated in the test suite.

``benchmarks/`` reproduces every table, figure and ablation as a
pytest-benchmark run and asserts its headline claim (figure shapes,
ablation orderings).  The plain test suite does not collect that
directory, so this test runs each benchmark function once through a stub
``benchmark`` fixture: the claims live in one copy, in ``benchmarks/``,
and any change to the simulator must still reproduce them, not only the
byte-identical goldens.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
CLAIM_FILES = sorted(BENCHMARKS.glob("test_*.py"))


class OnceBenchmark:
    """Stands in for pytest-benchmark's fixture: run the target once."""

    def pedantic(self, fn, args=(), kwargs=None, **_):
        return fn(*args, **(kwargs or {}))


def load_benchmark(path):
    """Import one benchmark module, resolving its ``from conftest import
    emit`` against the benchmarks' own conftest."""

    def load(module_name, module_path):
        spec = importlib.util.spec_from_file_location(module_name, module_path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    saved = sys.modules.get("conftest")
    sys.modules["conftest"] = load("benchmarks_conftest", BENCHMARKS / "conftest.py")
    try:
        return load(f"benchmarks_{path.stem}", path)
    finally:
        if saved is None:
            del sys.modules["conftest"]
        else:
            sys.modules["conftest"] = saved


def test_claim_files_present():
    assert len(CLAIM_FILES) >= 19


@pytest.mark.parametrize("path", CLAIM_FILES, ids=lambda path: path.stem)
def test_paper_claim(path):
    module = load_benchmark(path)
    claims = [
        getattr(module, name) for name in dir(module) if name.startswith("test_")
    ]
    assert claims, f"{path.name} defines no test function"
    for claim in claims:
        claim(OnceBenchmark())
