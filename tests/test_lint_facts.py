"""Phase-1 fact extraction, the call graph, and CLI plumbing."""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys
from typing import Optional

from repro.lint.callgraph import CallGraph
from repro.lint.facts import Program, extract_facts

REPO = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"


def facts_of(source: str, path: str = "repro/demo.py"):
    return extract_facts(ast.parse(source), path)


# -- extraction ---------------------------------------------------------------


def test_module_identity_and_defines():
    facts = facts_of(
        "import json\n\n\ndef top():\n    return json.dumps({})\n\n\n"
        "class Thing:\n    def method(self):\n        return top()\n",
        path="repro/experiments/demo.py",
    )
    assert facts.module == "repro.experiments.demo"
    assert set(facts.defines) == {"top", "Thing"}
    assert facts.functions["top"]["nested"] is False
    assert facts.functions["Thing.method"]["name"] == "method"
    callers = {c["caller"] for c in facts.calls}
    assert "Thing.method" in callers


def test_rng_telemetry_schema_and_worker_sites():
    facts = facts_of(
        "import multiprocessing\n"
        'DEMO_SCHEMA = "repro.demofam/4"\n'
        "_REGISTRY = {}\n"
        "\n\n"
        "def work(host_rng, recorder, pool, seed):\n"
        '    host_rng.stream("perf")\n'
        '    recorder.inc("demo.count")\n'
        "    value = recorder.counters.get(\"demo.count\")\n"
        "    pool.imap(work, [seed])\n"
        "    _REGISTRY[seed] = value\n"
    )
    (rng_site,) = facts.rng_sites
    assert rng_site["name"] == "perf" and rng_site["dynamic"] is False
    (write,) = facts.telemetry_writes
    assert write == {**write, "kind": "counter", "name": "demo.count"}
    (read,) = facts.telemetry_reads
    assert read["kind"] == "counter" and read["name"] == "demo.count"
    (schema,) = facts.schema_sites
    assert schema["family"] == "repro.demofam" and schema["version"] == 4
    assert schema["scope"] == "<module>"
    (worker,) = facts.worker_sites
    assert worker["api"] == "imap" and worker["func_parts"] == ["work"]
    assert facts.str_constants["DEMO_SCHEMA"] == "repro.demofam/4"
    assert "_REGISTRY" in facts.mutable_globals
    assert facts.functions["work"]["mutates"] == ["_REGISTRY"]


def test_global_rebinding_recorded_per_function():
    facts = facts_of(
        "_current = None\n\n\ndef install(value):\n"
        "    global _current\n    _current = value\n"
    )
    assert facts.functions["install"]["global_writes"] == ["_current"]


def test_callgraph_resolves_relative_from_imports():
    pkg_a = facts_of(
        "from .other import leaf\n\n\ndef entry():\n    return leaf()\n",
        path="repro/demo/main.py",
    )
    pkg_b = facts_of(
        "def leaf():\n    return 1\n", path="repro/demo/other.py"
    )
    graph = CallGraph(Program([pkg_a, pkg_b]))
    reached = graph.reachable("repro.demo.main:entry")
    assert "repro.demo.other:leaf" in reached


# -- CLI: determinism, rule listing, warn tier --------------------------------


def _run_lint_cli(
    *args: str, hash_seed: Optional[str] = None
) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO),
    )


def test_json_report_is_byte_identical_across_hash_seeds():
    """Set and dict order must never leak into the report."""
    args = (str(FIXTURES), "--format", "json")
    first = _run_lint_cli(*args, hash_seed="0")
    second = _run_lint_cli(*args, hash_seed="1")
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["summary"]["total"] > 0


def test_rules_listing_includes_program_families():
    result = _run_lint_cli("--rules")
    assert result.returncode == 0
    for rule_id in ("D001", "U003", "S001", "C002", "T001", "T002"):
        assert rule_id in result.stdout
    assert "whole-program rules (phase 2):" in result.stdout


def test_warn_only_demotes_everything():
    result = _run_lint_cli(str(FIXTURES / "s001"), "--warn-only")
    assert result.returncode == 0
    assert "S001 warning" in result.stdout
