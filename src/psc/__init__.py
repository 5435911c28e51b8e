"""Planar square coloring: embedded planar graphs, a reducible-configuration
catalog, exact-rational discharging audits, and a constructive distance-2
coloring algorithm with proven palette budgets (2*Delta+7 for Delta >= 9,
21 for Delta <= 6)."""

from .budgets import Budget
from .catalog import ConfigWitness, check_witness, detect_all, find_first_witness
from .coloring import SquareColoring, dsatur_color, exact_chi2, greedy_color, verify
from .discharge import AuditReport, audit
from .embedding import EmbeddedGraph, build, from_pg, square, to_pg, trace_faces
from .reducer import ReductionTrace, color_within_budget

__all__ = [
    "AuditReport", "Budget", "ConfigWitness", "EmbeddedGraph",
    "ReductionTrace", "SquareColoring", "audit", "build", "check_witness",
    "color_within_budget", "detect_all", "dsatur_color", "exact_chi2",
    "find_first_witness", "from_pg", "greedy_color", "square", "to_pg",
    "trace_faces", "verify",
]

__version__ = "0.1.0"
