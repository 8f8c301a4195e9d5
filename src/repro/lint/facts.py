"""Phase-1 fact extraction for whole-program analysis.

Per-file AST rules (D/U/H families) can only see one module at a time;
the S/C/T rule families need to relate call sites *across* modules: two
modules deriving the same ``(seed, name)`` RNG stream, a worker entry
point reaching a module-global mutation three calls away, a telemetry
counter incremented under one name and read under another.

This module extracts, from the same single parse the per-file rules use,
a :class:`ModuleFacts` record per file:

* defined top-level symbols and per-function metadata (nesting,
  ``global`` writes, mutations of module-level mutable state),
* import bindings resolved to absolute module names (so the call graph
  can follow ``from .registry import resolve`` and re-export chains),
* call edges (caller qualname -> dotted callee parts),
* RNG stream construction sites (``registry.stream("name")``,
  ``seeded_stream(seed, "name")``) with literal names when derivable,
* telemetry write/read sites (``recorder.inc/gauge/record`` vs
  ``recorder.counters[...]`` / ``.series("name")``),
* schema-identifier literals (``"repro.artifact/1"``),
* worker fan-out sites (``multiprocessing.Process(target=...)``,
  ``pool.imap(func, ...)``),
* the file's pragma table, so phase 2 can honour suppressions.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .pragmas import PragmaTable
from .rules.base import call_name

#: Method names that record telemetry, mapped to the metric kind.
_TELEMETRY_WRITERS = {"inc": "counter", "gauge": "gauge", "record": "series"}

#: Attribute names whose subscript/.get() reads a telemetry metric.
_TELEMETRY_STORES = {"counters": "counter", "gauges": "gauge"}

#: Pool/executor methods that ship a function to worker processes.
_POOL_METHODS = {
    "apply",
    "apply_async",
    "map",
    "map_async",
    "imap",
    "imap_unordered",
    "starmap",
    "starmap_async",
    "submit",
}

#: Constructors whose module-level result is shared mutable state.
_MUTABLE_CONSTRUCTORS = {
    "list",
    "dict",
    "set",
    "bytearray",
    "deque",
    "defaultdict",
    "Counter",
    "OrderedDict",
}

#: Schema identifiers look like ``repro.telemetry/1``.
_SCHEMA_RE = re.compile(r"repro\.[a-z_]+/\d+")


def module_name_of(path: str) -> str:
    """Dotted module name for a normalized posix path.

    ``repro/experiments/campaign.py`` -> ``repro.experiments.campaign``;
    package ``__init__.py`` files map to the package itself.
    """
    trimmed = path[:-3] if path.endswith(".py") else path
    parts = [part for part in trimmed.split("/") if part]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _package_of(module: str, is_package: bool) -> str:
    """The package a module's relative imports resolve against."""
    if is_package:
        return module
    return module.rpartition(".")[0]


@dataclass
class ModuleFacts:
    """Everything phase 2 knows about one module."""

    path: str
    module: str = ""
    defines: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    functions: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    calls: List[Dict[str, Any]] = field(default_factory=list)
    imports: Dict[str, str] = field(default_factory=dict)
    from_imports: Dict[str, List[str]] = field(default_factory=dict)
    rng_sites: List[Dict[str, Any]] = field(default_factory=list)
    telemetry_writes: List[Dict[str, Any]] = field(default_factory=list)
    telemetry_reads: List[Dict[str, Any]] = field(default_factory=list)
    schema_sites: List[Dict[str, Any]] = field(default_factory=list)
    worker_sites: List[Dict[str, Any]] = field(default_factory=list)
    str_constants: Dict[str, str] = field(default_factory=dict)
    mutable_globals: Dict[str, int] = field(default_factory=dict)
    pragmas: PragmaTable = field(default_factory=PragmaTable)


class _FactsVisitor:
    """One recursive walk collecting every fact family at once."""

    def __init__(self, facts: ModuleFacts) -> None:
        self.facts = facts
        #: Stack of enclosing scopes: ("module"|"class"|"function", name).
        self.scope: List[Tuple[str, str]] = []
        self.package = _package_of(
            facts.module, facts.path.endswith("__init__.py")
        )

    # -- helpers ----------------------------------------------------------

    def _site(self, node: ast.AST) -> Dict[str, Any]:
        line = getattr(node, "lineno", 1)
        return {
            "line": line,
            "col": getattr(node, "col_offset", 0),
            "end_line": getattr(node, "end_lineno", None) or line,
        }

    def _qualname(self) -> str:
        names = [name for kind, name in self.scope]
        return ".".join(names) if names else "<module>"

    def _enclosing_function(self) -> Optional[str]:
        for kind, _ in self.scope:
            if kind == "function":
                return self._qualname()
        return None

    def _in_function(self) -> bool:
        return any(kind == "function" for kind, _ in self.scope)

    def _function_record(self) -> Optional[Dict[str, Any]]:
        qualname = self._enclosing_function()
        if qualname is None:
            return None
        return self.facts.functions.get(qualname)

    def _resolve_from_module(self, node: ast.ImportFrom) -> str:
        if node.level == 0:
            return node.module or ""
        base = self.package
        for _ in range(node.level - 1):
            base = base.rpartition(".")[0]
        if node.module:
            return f"{base}.{node.module}" if base else node.module
        return base

    def _string_value(self, node: ast.AST) -> Tuple[Optional[str], bool]:
        """(literal value or f-string prefix, is_dynamic)."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value, False
        if isinstance(node, ast.Name):
            constant = self.facts.str_constants.get(node.id)
            if constant is not None:
                return constant, False
            return None, True
        if isinstance(node, ast.JoinedStr):
            head = node.values[0] if node.values else None
            if isinstance(head, ast.Constant) and isinstance(head.value, str):
                return head.value, True
            return None, True
        return None, True

    # -- walk -------------------------------------------------------------

    def walk(self, tree: ast.Module) -> None:
        for stmt in self._body_without_docstring(tree):
            self.visit(stmt)

    @staticmethod
    def _body_without_docstring(node: ast.AST) -> List[ast.stmt]:
        body = list(getattr(node, "body", []))
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            body = body[1:]
        return body

    def visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._visit_function(node)
            return
        if isinstance(node, ast.ClassDef):
            self._visit_class(node)
            return
        if isinstance(node, ast.Import):
            self._visit_import(node)
        elif isinstance(node, ast.ImportFrom):
            self._visit_import_from(node)
        elif isinstance(node, ast.Global):
            self._visit_global(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._visit_assignment(node)
        elif isinstance(node, ast.Call):
            self._visit_call(node)
        elif isinstance(node, ast.Subscript):
            self._visit_subscript(node)
        elif isinstance(node, ast.Constant):
            self._visit_constant(node)
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            return  # stray string expression (docstring-like); skip
        for child in ast.iter_child_nodes(node):
            self.visit(child)

    def _visit_function(self, node: ast.AST) -> None:
        nested = self._in_function()
        self.scope.append(("function", node.name))
        qualname = self._qualname()
        self.facts.functions[qualname] = {
            "name": node.name,
            "line": node.lineno,
            "nested": nested,
            "global_writes": [],
            "mutates": [],
        }
        if len(self.scope) == 1:
            self.facts.defines[node.name] = {
                "kind": "func",
                "line": node.lineno,
            }
        for decorator in node.decorator_list:
            self.scope.pop()
            self.visit(decorator)
            self.scope.append(("function", node.name))
        for stmt in self._body_without_docstring(node):
            self.visit(stmt)
        self.scope.pop()

    def _visit_class(self, node: ast.ClassDef) -> None:
        if not self.scope:
            self.facts.defines[node.name] = {
                "kind": "class",
                "line": node.lineno,
            }
        self.scope.append(("class", node.name))
        for stmt in self._body_without_docstring(node):
            self.visit(stmt)
        self.scope.pop()

    def _visit_import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.facts.imports[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
            if alias.asname is None and "." in alias.name:
                # `import a.b.c` binds `a`; record the full path too so
                # `a.b.c.f()` calls resolve.
                self.facts.imports.setdefault(alias.name, alias.name)

    def _visit_import_from(self, node: ast.ImportFrom) -> None:
        target = self._resolve_from_module(node)
        for alias in node.names:
            if alias.name == "*":
                continue
            self.facts.from_imports[alias.asname or alias.name] = [
                target,
                alias.name,
            ]

    def _visit_global(self, node: ast.Global) -> None:
        record = self._function_record()
        if record is not None:
            for name in node.names:
                if name not in record["global_writes"]:
                    record["global_writes"].append(name)

    def _visit_assignment(self, node: ast.stmt) -> None:
        targets: List[ast.AST]
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        else:
            targets = [node.target]  # AnnAssign / AugAssign
        value = getattr(node, "value", None)
        if not self.scope and value is not None:
            self._record_module_assignment(targets, value)
        if self._in_function():
            self._record_global_mutation(targets)

    def _record_module_assignment(
        self, targets: List[ast.AST], value: ast.AST
    ) -> None:
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if not names:
            return
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            for name in names:
                self.facts.str_constants[name] = value.value
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                              ast.DictComp, ast.SetComp)) or (
            isinstance(value, ast.Call)
            and call_name(value.func)[-1:] in [(c,) for c in _MUTABLE_CONSTRUCTORS]
        ):
            for name in names:
                self.facts.mutable_globals[name] = value.lineno

    def _record_global_mutation(self, targets: List[ast.AST]) -> None:
        """A ``X[k] = v`` / ``X.attr = v`` store on a module-level mutable."""
        record = self._function_record()
        if record is None:
            return
        for target in targets:
            base = target
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if (
                isinstance(base, ast.Name)
                and base is not target
                and base.id in self.facts.mutable_globals
                and base.id not in record["mutates"]
            ):
                record["mutates"].append(base.id)

    # -- calls ------------------------------------------------------------

    def _visit_call(self, node: ast.Call) -> None:
        parts = call_name(node.func)
        if parts:
            self.facts.calls.append(
                {
                    "caller": self._enclosing_function() or "<module>",
                    "parts": list(parts),
                    "line": node.lineno,
                }
            )
        self._match_rng_site(node, parts)
        self._match_telemetry_write(node, parts)
        self._match_telemetry_read_call(node, parts)
        self._match_worker_site(node, parts)
        self._match_mutating_method(node, parts)

    def _match_rng_site(self, node: ast.Call, parts: Tuple[str, ...]) -> None:
        """``*.stream(name)`` on an rng-ish receiver, or ``seeded_stream``."""
        api = None
        if parts and parts[-1] == "seeded_stream":
            api = "seeded_stream"
            name_arg = node.args[1] if len(node.args) > 1 else None
            for keyword in node.keywords:
                if keyword.arg == "name":
                    name_arg = keyword.value
        elif (
            len(parts) >= 2
            and parts[-1] == "stream"
            and "rng" in parts[-2].lower()
        ):
            api = "stream"
            name_arg = node.args[0] if node.args else None
            for keyword in node.keywords:
                if keyword.arg == "name":
                    name_arg = keyword.value
        if api is None:
            return
        site = self._site(node)
        if name_arg is None:
            site.update({"api": api, "name": None, "dynamic": False})
        else:
            literal, dynamic = self._string_value(name_arg)
            site.update(
                {"api": api, "name": literal, "dynamic": dynamic}
            )
        self.facts.rng_sites.append(site)

    @staticmethod
    def _receiver_is_recorder(parts: Tuple[str, ...], node: ast.Call) -> bool:
        if len(parts) >= 2:
            return "recorder" in parts[-2].lower()
        # current_recorder().inc(...) — receiver is itself a call.
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Call):
            inner = call_name(func.value.func)
            return bool(inner) and "recorder" in inner[-1].lower()
        return False

    def _match_telemetry_write(
        self, node: ast.Call, parts: Tuple[str, ...]
    ) -> None:
        method = parts[-1] if parts else None
        if isinstance(node.func, ast.Attribute) and not parts:
            method = node.func.attr
        if method not in _TELEMETRY_WRITERS:
            return
        if not self._receiver_is_recorder(parts, node):
            return
        if not node.args:
            return
        literal, dynamic = self._string_value(node.args[0])
        site = self._site(node)
        site.update(
            {
                "kind": _TELEMETRY_WRITERS[method],
                "name": literal,
                "dynamic": dynamic,
            }
        )
        self.facts.telemetry_writes.append(site)

    def _match_telemetry_read_call(
        self, node: ast.Call, parts: Tuple[str, ...]
    ) -> None:
        """``recorder.series("x")`` and ``recorder.counters.get("x")``."""
        func = node.func
        if not isinstance(func, ast.Attribute) or not node.args:
            return
        literal, dynamic = self._string_value(node.args[0])
        if literal is None or dynamic:
            return
        if func.attr == "series" and self._receiver_is_recorder(parts, node):
            site = self._site(node)
            site.update({"kind": "series", "name": literal})
            self.facts.telemetry_reads.append(site)
            return
        if func.attr == "get" and isinstance(func.value, ast.Attribute):
            store = func.value.attr
            if store in _TELEMETRY_STORES:
                site = self._site(node)
                site.update({"kind": _TELEMETRY_STORES[store], "name": literal})
                self.facts.telemetry_reads.append(site)

    def _visit_subscript(self, node: ast.Subscript) -> None:
        """``recorder.counters["name"]`` style literal reads."""
        if not isinstance(node.value, ast.Attribute):
            return
        store = node.value.attr
        if store not in _TELEMETRY_STORES:
            return
        key = node.slice
        if isinstance(key, ast.Index):  # pragma: no cover - py<3.9 shape
            key = key.value
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            site = self._site(node)
            site.update({"kind": _TELEMETRY_STORES[store], "name": key.value})
            self.facts.telemetry_reads.append(site)

    def _visit_constant(self, node: ast.Constant) -> None:
        if not isinstance(node.value, str):
            return
        if _SCHEMA_RE.fullmatch(node.value) is None:
            return
        family, _, version = node.value.partition("/")
        site = self._site(node)
        site.update(
            {
                "literal": node.value,
                "family": family,
                "version": int(version),
                "scope": self._qualname(),
            }
        )
        self.facts.schema_sites.append(site)

    def _match_worker_site(
        self, node: ast.Call, parts: Tuple[str, ...]
    ) -> None:
        func_expr: Optional[ast.AST] = None
        api = None
        if parts and parts[-1] == "Process":
            api = "Process"
            for keyword in node.keywords:
                if keyword.arg == "target":
                    func_expr = keyword.value
            if func_expr is None and node.args:
                func_expr = node.args[0]
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _POOL_METHODS
        ):
            receiver = node.func.value
            receiver_name = ""
            if isinstance(receiver, ast.Name):
                receiver_name = receiver.id
            elif isinstance(receiver, ast.Attribute):
                receiver_name = receiver.attr
            lowered = receiver_name.lower()
            if (
                "pool" in lowered
                or "executor" in lowered
                or node.func.attr == "submit"
            ):
                api = node.func.attr
                if node.args:
                    func_expr = node.args[0]
        if api is None or func_expr is None:
            return
        site = self._site(node)
        if isinstance(func_expr, ast.Lambda):
            site.update({"api": api, "func_kind": "lambda", "func_parts": []})
        else:
            target_parts = call_name(func_expr)
            kind = "name" if target_parts else "other"
            site.update(
                {
                    "api": api,
                    "func_kind": kind,
                    "func_parts": list(target_parts),
                }
            )
        self.facts.worker_sites.append(site)

    def _match_mutating_method(
        self, node: ast.Call, parts: Tuple[str, ...]
    ) -> None:
        """``_CACHE.clear()`` style mutation of a module-level mutable."""
        if len(parts) != 2:
            return
        base, method = parts
        if method not in {
            "append",
            "add",
            "clear",
            "update",
            "pop",
            "popitem",
            "extend",
            "remove",
            "setdefault",
            "insert",
        }:
            return
        record = self._function_record()
        if (
            record is not None
            and base in self.facts.mutable_globals
            and base not in record["mutates"]
        ):
            record["mutates"].append(base)


def extract_facts(
    tree: Optional[ast.Module],
    path: str,
    pragmas: Optional[PragmaTable] = None,
) -> ModuleFacts:
    """Extract one module's facts from its already-parsed AST.

    ``tree`` may be None (syntax error); the record then carries only
    the path/module identity so phase 2 skips it gracefully.
    """
    facts = ModuleFacts(path=path, module=module_name_of(path))
    if pragmas is not None:
        facts.pragmas = pragmas
    if tree is None:
        return facts
    _FactsVisitor(facts).walk(tree)
    return facts


class Program:
    """The joined fact base phase-2 rules run over."""

    def __init__(self, modules: List[ModuleFacts]) -> None:
        self.modules = sorted(modules, key=lambda facts: facts.path)
        self.by_module: Dict[str, ModuleFacts] = {
            facts.module: facts for facts in self.modules if facts.module
        }
        self.by_path: Dict[str, ModuleFacts] = {
            facts.path: facts for facts in self.modules
        }

    def iter_sites(self, attribute: str) -> Iterator[Tuple[ModuleFacts, Dict[str, Any]]]:
        """Yield ``(module_facts, site)`` for one site family program-wide."""
        for facts in self.modules:
            for site in getattr(facts, attribute):
                yield facts, site
