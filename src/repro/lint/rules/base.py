"""Rule interface and the finding record shared by every rule family.

A rule is a small, stateless-per-file object: the walker constructs one
instance of each registered rule per linted file, feeds it every AST node
whose type appears in ``node_types``, and collects the findings it emits.
File-scoped context (import aliases, the file's repo-relative path, pragma
table) lives on the :class:`FileContext` the walker passes alongside each
node, so rules never re-walk the tree themselves.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple, Type


@dataclass
class Finding:
    """One rule violation at a source location.

    ``end_line`` is the last physical line of the flagged construct (0
    means "same as line"); pragma suppression honours the whole span so
    a ``# kyotolint: disable=...`` on a continuation line works.
    """

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"
    end_line: int = 0

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
        }


@dataclass
class FileContext:
    """Per-file facts rules need but should not recompute.

    Attributes:
        path: repo-relative posix path of the file being linted.
        random_aliases: names bound to the ``random`` module
            (``import random``, ``import random as r``).
        random_from_imports: names imported *from* ``random``
            (``from random import Random, choice``), mapped to the
            original attribute name.
        time_aliases: names bound to the ``time`` module.
        time_from_imports: names imported from ``time``.
        datetime_aliases: names bound to the ``datetime`` module.
        datetime_from_imports: names imported from ``datetime``.
    """

    path: str
    random_aliases: Set[str] = field(default_factory=set)
    random_from_imports: Dict[str, str] = field(default_factory=dict)
    time_aliases: Set[str] = field(default_factory=set)
    time_from_imports: Dict[str, str] = field(default_factory=dict)
    datetime_aliases: Set[str] = field(default_factory=set)
    datetime_from_imports: Dict[str, str] = field(default_factory=dict)

    def path_endswith(self, *suffixes: str) -> bool:
        """True when the file path matches one of the allowlist suffixes."""
        return any(self.path.endswith(suffix) for suffix in suffixes)


class Rule:
    """Base class for all kyotolint rules."""

    #: Stable identifier, e.g. ``"D001"``.
    rule_id: str = "X000"
    #: One-line description shown by ``repro lint --rules``.
    description: str = ""
    #: Severity of this rule's findings; ``"error"`` gates.
    severity: str = "error"
    #: AST node classes this rule wants to see.
    node_types: Tuple[Type[ast.AST], ...] = ()

    def __init__(self) -> None:
        self.findings: List[Finding] = []

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        """Inspect one node; call :meth:`report` for each violation."""
        raise NotImplementedError

    def report(
        self, node: ast.AST, ctx: FileContext, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        # Expressions commonly span continuation lines (a BinOp wrapped
        # in parens); statements like an except handler span their whole
        # body, where honouring the span would over-suppress.
        end_line = (
            getattr(node, "end_lineno", None) or line
            if isinstance(node, ast.expr)
            else line
        )
        finding = Finding(
            rule_id=self.rule_id,
            path=ctx.path,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            severity=self.severity,
            end_line=end_line,
        )
        self.findings.append(finding)
        return finding


class ProgramRule:
    """Base class for phase-2 (whole-program) rules.

    Unlike :class:`Rule`, a program rule never sees an AST: it runs after
    every file has been parsed once, over the joined
    :class:`repro.lint.facts.Program` fact base, and may relate call
    sites across modules (RNG stream provenance, worker-reachable state,
    telemetry name flow).  Pragmas are applied by
    :func:`repro.lint.walker.lint_paths` exactly as for per-file findings.
    """

    #: Stable identifier, e.g. ``"S001"``.
    rule_id: str = "P000"
    #: One-line description shown by ``repro lint --rules``.
    description: str = ""
    #: Default severity; ``"error"`` gates, ``"warning"`` reports.
    severity: str = "error"

    def check(self, program: "object") -> List[Finding]:
        """Return every violation visible in ``program``."""
        raise NotImplementedError

    def finding_at(self, site: dict, path: str, message: str) -> Finding:
        """Build a finding anchored at a facts site record."""
        return Finding(
            rule_id=self.rule_id,
            path=path,
            line=int(site.get("line", 1)),
            col=int(site.get("col", 0)),
            message=message,
            severity=self.severity,
            end_line=int(site.get("end_line", 0)),
        )


def call_name(node: ast.AST) -> Sequence[str]:
    """Dotted-name parts of a call target (``a.b.c()`` -> ("a","b","c")).

    Returns an empty tuple for targets that are not plain name/attribute
    chains (subscripts, calls of calls, lambdas...).
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return ()
