"""The standing lint gate: src/repro must stay kyotolint-clean.

This is the enforcement half of docs/static_analysis.md — any new
violation anywhere under ``src/repro`` that is not pragma'd fails the
test suite.
"""

from __future__ import annotations

import io
import json
import pathlib

import repro
from repro.cli import build_parser, run_lint
from repro.lint.report import exit_code, failing_findings, format_text
from repro.lint.walker import iter_python_files, lint_paths, lint_source

PACKAGE_DIR = pathlib.Path(repro.__file__).resolve().parent


def test_src_repro_is_lint_clean():
    """The CI gate itself: ``repro lint`` over the default package exits 0."""
    out = io.StringIO()
    code = run_lint(build_parser().parse_args(["lint", "--format", "json"]), out=out)
    assert code == 0, "kyotolint violations in src/repro:\n" + out.getvalue()
    assert json.loads(out.getvalue())["findings"] == []


def test_src_repro_has_no_findings_at_all():
    """Stronger than the exit-code gate: even warn-tier findings are
    fixed or pragma'd with a justification, across both phases."""
    findings = lint_paths([str(PACKAGE_DIR)])
    assert findings == [], (
        "kyotolint findings in src/repro:\n" + format_text(findings)
    )


def test_gate_catches_injected_nondeterminism(tmp_path):
    """A scratch file with random.random() must fail the same gate logic."""
    scratch = tmp_path / "scratch.py"
    scratch.write_text("import random\nx = random.random()\n")
    findings = lint_paths([str(PACKAGE_DIR), str(tmp_path)])
    assert exit_code(findings) == 1
    assert [f.rule_id for f in failing_findings(findings)] == ["D001"]


def test_gate_checks_every_source_file():
    """The gate's file sweep sees the whole package (no silent pruning)."""
    files = iter_python_files([str(PACKAGE_DIR)])
    assert len(files) > 80  # 89 modules at the time of writing; growing
    assert any(path.endswith("core/engine.py") for path in files)
    assert any(path.endswith("lint/walker.py") for path in files)


def test_tests_directory_unit_mixing_smoke():
    """U001 logic sanity on a real-repo idiom: clock conversions are clean."""
    clock_src = (PACKAGE_DIR / "simulation" / "clock.py").read_text()
    findings = lint_source(clock_src, path="repro/simulation/clock.py")
    assert findings == []
