"""Two-phase, single-pass lint driver.

Phase 1 visits every file exactly once: one :func:`ast.parse` feeds both
the per-file AST rules and the fact extractor (:mod:`repro.lint.facts`).
Rules declare the node types they care about and the walker dispatches
each node to the interested rules only, so one tree traversal serves
every rule.

Phase 2 joins every module's facts into a :class:`repro.lint.facts.Program`
and runs the whole-program rules (S/C/T families).  Program-rule
findings are suppressed through the *flagged file's* pragma table, which
travels inside its facts, so phase 2 never re-reads source.

:func:`lint_paths` runs both phases and is the only entry point over
files; :func:`lint_source` is the per-file half, used by rule unit tests
and by anything that only has one file's text.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, Iterable, List, Optional, Tuple

from .facts import ModuleFacts, Program, extract_facts
from .pragmas import PragmaTable
from .rules import ALL_PROGRAM_RULES, ALL_RULES
from .rules.base import FileContext, Finding, Rule


def _collect_imports(tree: ast.Module, ctx: FileContext) -> None:
    """Record how ``random`` / ``time`` / ``datetime`` are reachable."""
    module_aliases = {
        "random": ctx.random_aliases,
        "time": ctx.time_aliases,
        "datetime": ctx.datetime_aliases,
    }
    from_imports = {
        "random": ctx.random_from_imports,
        "time": ctx.time_from_imports,
        "datetime": ctx.datetime_from_imports,
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in module_aliases:
                    module_aliases[alias.name].add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module in from_imports:
            for alias in node.names:
                from_imports[node.module][alias.asname or alias.name] = (
                    alias.name
                )


def normalize_path(path: str) -> str:
    """Posix form of ``path``, relative to the repository when possible."""
    posix = pathlib.PurePath(path).as_posix()
    for anchor, skip in (
        ("src/repro/", len("src/")),
        ("repro/", 0),
        ("tests/", 0),
        ("tools/", 0),
    ):
        index = posix.rfind(anchor)
        if index >= 0:
            return posix[index + skip:]
    return posix


def _sort_key(finding: Finding) -> Tuple[str, int, int, str]:
    return (finding.path, finding.line, finding.col, finding.rule_id)


def analyze_source(
    source: str, path: str = "<string>"
) -> Tuple[List[Finding], ModuleFacts]:
    """One parse of one file: per-file findings plus extracted facts."""
    ctx = FileContext(path=normalize_path(path))
    try:
        tree: Optional[ast.Module] = ast.parse(source)
    except SyntaxError as exc:
        finding = Finding(
            rule_id="E999",
            path=ctx.path,
            line=exc.lineno or 1,
            col=exc.offset or 0,
            message=f"syntax error: {exc.msg}",
        )
        return [finding], extract_facts(None, ctx.path)
    _collect_imports(tree, ctx)
    pragmas = PragmaTable(source)

    instances = [rule_class() for rule_class in ALL_RULES]
    dispatch: Dict[type, List[Rule]] = {}
    for rule in instances:
        for node_type in rule.node_types:
            dispatch.setdefault(node_type, []).append(rule)

    for node in ast.walk(tree):
        for rule in dispatch.get(type(node), ()):
            rule.visit(node, ctx)

    findings: List[Finding] = []
    for rule in instances:
        for finding in rule.findings:
            if not pragmas.is_suppressed(
                finding.rule_id, finding.line, finding.end_line
            ):
                findings.append(finding)
    findings.sort(key=_sort_key)
    return findings, extract_facts(tree, ctx.path, pragmas=pragmas)


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one file's source text and return its per-file findings.

    ``path`` participates in rule allowlists (e.g. ``simulation/rng.py``
    may construct raw streams), so virtual paths in tests should mimic
    real repo layout when they want allowlist behaviour.  Whole-program
    (S/C/T) rules need the full fact base and only run via
    :func:`lint_paths`.
    """
    findings, _ = analyze_source(source, path=path)
    return findings


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    result: List[str] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            result.extend(str(p) for p in path.rglob("*.py"))
        else:
            result.append(str(path))
    return sorted(set(result))


def _program_findings(modules: List[ModuleFacts]) -> List[Finding]:
    """Phase 2: every whole-program rule over the joined fact base."""
    program = Program(modules)
    findings: List[Finding] = []
    for rule_class in ALL_PROGRAM_RULES:
        for finding in rule_class().check(program):
            facts = program.by_path.get(finding.path)
            if facts is None or not facts.pragmas.is_suppressed(
                finding.rule_id, finding.line, finding.end_line
            ):
                findings.append(finding)
    return findings


def lint_paths(paths: Iterable[str]) -> List[Finding]:
    """Two-phase lint of every ``.py`` file under ``paths``.

    A file that cannot be read or decoded as UTF-8 yields an error-tier
    ``E999`` finding rather than being skipped, so the gate fails loudly.
    """
    findings: List[Finding] = []
    modules: List[ModuleFacts] = []
    for path in iter_python_files(str(p) for p in paths):
        try:
            text = pathlib.Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(
                Finding(
                    rule_id="E999",
                    path=normalize_path(path),
                    line=1,
                    col=0,
                    message=f"cannot read file: {exc}",
                )
            )
            continue
        file_findings, facts = analyze_source(text, path=path)
        findings.extend(file_findings)
        modules.append(facts)
    findings.extend(_program_findings(modules))
    findings.sort(key=_sort_key)
    return findings
