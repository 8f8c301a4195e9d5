"""kyotolint rule registry — one module per rule family.

Two kinds of rules:

* per-file AST rules (:data:`ALL_RULES`) run in phase 1, one instance
  per linted file, fed nodes by the single-pass walker;
* whole-program rules (:data:`ALL_PROGRAM_RULES`) run in phase 2 over
  the joined fact base (:mod:`repro.lint.facts`) and may relate sites
  across modules.
"""

from __future__ import annotations

from typing import Dict, List, Type, Union

from .base import FileContext, Finding, ProgramRule, Rule
from .concurrency import UnpicklableWorkerRule, WorkerGlobalMutationRule
from .determinism import (
    BareRandomRule,
    RawRandomConstructionRule,
    SetIterationRule,
    WallClockRule,
)
from .flow import DuplicateStreamNameRule, UnitFlowRule, UntrackableStreamNameRule
from .hygiene import MutableDefaultRule, SwallowedExceptionRule
from .telemetry import SchemaDriftRule, TelemetryNameFlowRule
from .units import FloatEqualityRule, MixedUnitArithmeticRule

#: Every per-file AST rule kyotolint knows, in reporting order.
ALL_RULES: List[Type[Rule]] = [
    BareRandomRule,
    RawRandomConstructionRule,
    WallClockRule,
    SetIterationRule,
    MixedUnitArithmeticRule,
    FloatEqualityRule,
    UnitFlowRule,
    MutableDefaultRule,
    SwallowedExceptionRule,
]

#: Every whole-program (phase 2) rule, in reporting order.
ALL_PROGRAM_RULES: List[Type[ProgramRule]] = [
    DuplicateStreamNameRule,
    UntrackableStreamNameRule,
    UnpicklableWorkerRule,
    WorkerGlobalMutationRule,
    TelemetryNameFlowRule,
    SchemaDriftRule,
]

RULES_BY_ID: Dict[str, Union[Type[Rule], Type[ProgramRule]]] = {
    rule.rule_id: rule for rule in [*ALL_RULES, *ALL_PROGRAM_RULES]
}

__all__ = [
    "ALL_PROGRAM_RULES",
    "ALL_RULES",
    "RULES_BY_ID",
    "FileContext",
    "Finding",
    "ProgramRule",
    "Rule",
]
