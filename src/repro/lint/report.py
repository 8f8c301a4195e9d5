"""Finding reports: human text and machine JSON.

Text findings print one per line as ``path:line:col: RULE severity
message`` so editors and CI annotations can jump straight to the source;
JSON output is a stable envelope with a summary block for dashboards.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import List

from .rules.base import Finding


def failing_findings(findings: List[Finding]) -> List[Finding]:
    """Findings that should fail the run (error severity)."""
    return [f for f in findings if f.severity == "error"]


def exit_code(findings: List[Finding]) -> int:
    """0 when nothing fails the gate, 1 otherwise."""
    return 1 if failing_findings(findings) else 0


def format_text(findings: List[Finding]) -> str:
    """Human-readable report, one finding per line plus a summary."""
    if not findings:
        return "kyotolint: clean (no findings)"
    lines = [
        f"{f.location()}: {f.rule_id} {f.severity}: {f.message}"
        for f in findings
    ]
    by_rule = Counter(f.rule_id for f in findings)
    failing = len(failing_findings(findings))
    summary = ", ".join(
        f"{rule}={count}" for rule, count in sorted(by_rule.items())
    )
    lines.append(
        f"kyotolint: {len(findings)} finding(s) [{summary}], "
        f"{failing} failing"
    )
    return "\n".join(lines)


def format_json(findings: List[Finding]) -> str:
    """Machine-readable report (stable schema, sorted findings)."""
    payload = {
        "tool": "kyotolint",
        "version": 2,
        "summary": {
            "total": len(findings),
            "failing": len(failing_findings(findings)),
            "by_rule": dict(
                sorted(Counter(f.rule_id for f in findings).items())
            ),
        },
        "findings": [f.to_dict() for f in findings],
    }
    return json.dumps(payload, indent=2)
