"""Experiment drivers: one module per paper figure/table.

Each ``figNN`` module exposes ``run(...) -> FigNNResult`` plus
``format_report(result) -> str``; the CLI, the claim tests and the
examples are thin wrappers over these.
"""

from . import (
    export,
    fig01,
    fig02,
    fig03,
    fig04,
    fig05,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    tables,
)

__all__ = [
    "export",
    "fig01",
    "fig02",
    "fig03",
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "tables",
]
