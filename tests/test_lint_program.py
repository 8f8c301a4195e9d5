"""Whole-program (phase 2) rule tests over multi-module fixtures.

Each fixture directory under ``tests/lint_fixtures/`` is a tiny
multi-module program exercising exactly one S/C/T rule family; linting
the directory runs both phases, so these tests cover the fact join and
the call graph as well as the rules themselves.
"""

from __future__ import annotations

import pathlib

from repro.lint.report import exit_code
from repro.lint.walker import lint_paths

FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"


def rule_findings(fixture: str, rule_id: str):
    findings = lint_paths([str(FIXTURES / fixture)])
    return [f for f in findings if f.rule_id == rule_id]


# -- S001 / S002: RNG stream provenance --------------------------------------


def test_s001_fires_on_duplicate_stream_names_across_modules():
    findings = rule_findings("s001", "S001")
    assert len(findings) == 2
    assert {f.path.rsplit("/", 1)[-1] for f in findings} == {
        "alpha.py",
        "beta.py",
    }
    assert all(f.severity == "error" for f in findings)
    assert all("shared-jitter" in f.message for f in findings)
    assert exit_code(findings) == 1


def test_s001_silent_for_distinct_stream_names():
    assert rule_findings("s001_ok", "S001") == []


def test_s002_warns_on_dynamic_and_omitted_names():
    findings = rule_findings("s002", "S002")
    assert len(findings) == 2
    assert all(f.severity == "warning" for f in findings)
    messages = " | ".join(f.message for f in findings)
    assert "dynamic expression" in messages
    assert "without a name" in messages
    # Warn tier reports but never gates.
    assert exit_code(findings) == 0


# -- C001 / C002: multiprocessing fan-out -------------------------------------


def test_c001_fires_on_lambda_and_nested_function_payloads():
    findings = rule_findings("c001", "C001")
    assert len(findings) == 2
    messages = " | ".join(f.message for f in findings)
    assert "lambda" in messages
    assert "helper" in messages
    assert all(f.severity == "error" for f in findings)


def test_c001_silent_for_module_level_worker():
    assert rule_findings("c002", "C001") == []
    assert rule_findings("c002_ok", "C001") == []


def test_c002_traces_mutation_through_the_cross_module_call_graph():
    findings = rule_findings("c002", "C002")
    assert len(findings) == 1
    (finding,) = findings
    assert finding.path.endswith("main.py")
    assert finding.severity == "warning"
    assert "_COUNTS" in finding.message
    assert "run -> bump" in finding.message


def test_c002_silent_for_pure_worker():
    assert rule_findings("c002_ok", "C002") == []


# -- T001 / T002: telemetry name flow and schema drift ------------------------


def test_t001_flags_typo_and_kind_mismatch_but_not_clean_read():
    findings = rule_findings("t001", "T001")
    assert len(findings) == 2
    by_message = sorted(f.message for f in findings)
    assert any("never recorded" in m for m in by_message)
    assert any("kind mismatch" in m for m in by_message)
    assert all(f.path.endswith("reader.py") for f in findings)


def test_t002_version_drift_is_an_error_at_every_site():
    findings = rule_findings("t002_drift", "T002")
    assert len(findings) == 2
    assert all(f.severity == "error" for f in findings)
    assert all("[1, 2]" in f.message for f in findings)


def test_t002_hardcoded_copy_of_owned_constant_warns():
    findings = rule_findings("t002_copy", "T002")
    assert len(findings) == 1
    (finding,) = findings
    assert finding.severity == "warning"
    assert finding.path.endswith("user.py")
    assert "COPY_SCHEMA" in finding.message


# -- phase-2 plumbing ---------------------------------------------------------


def test_program_findings_respect_pragmas(tmp_path):
    (tmp_path / "a.py").write_text(
        'def f(host_rng):\n    return host_rng.stream("dup")\n'
    )
    (tmp_path / "b.py").write_text(
        "def g(host_rng):\n"
        '    return host_rng.stream("dup")  # kyotolint: disable=S001\n'
    )
    findings = [
        f for f in lint_paths([str(tmp_path)]) if f.rule_id == "S001"
    ]
    assert len(findings) == 1
    assert findings[0].path.endswith("a.py")
