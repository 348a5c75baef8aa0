"""Backbone, local-backbone and small-unsatisfiable-subset analysis of CNF
formulas, with instance generators and a reporting CLI.

The class-specialized polynomial algorithms of ``horn`` and ``krom`` are
called by no command, so their names are not exported; the two modules
are imported here only because the benchmark's tracer looks both up by
name, until the benchmark drops them (ROADMAP item 4).
"""

from .backbones import (
    IterativeResult,
    is_k_backbone,
    iterative_k_backbones,
    local_backbones,
)
from .dimacs import DimacsError, emit_dimacs, parse_dimacs
from .formula import (
    CnfFormula,
    ComplementaryLiteralsError,
    FormulaClass,
    FormulaClassError,
    TautologicalClauseError,
    classify,
)
from . import horn, krom
from .report import BackboneRecord, OrderDistribution, build_report
from .solver import UnsatFormulaError, full_backbones, solve
from .unitref import LevelReduction, level_reduce
from .unsat_subsets import sus_search

__version__ = "0.1.0"

__all__ = [
    "BackboneRecord",
    "CnfFormula",
    "ComplementaryLiteralsError",
    "DimacsError",
    "FormulaClass",
    "FormulaClassError",
    "IterativeResult",
    "LevelReduction",
    "OrderDistribution",
    "TautologicalClauseError",
    "UnsatFormulaError",
    "build_report",
    "classify",
    "emit_dimacs",
    "full_backbones",
    "is_k_backbone",
    "iterative_k_backbones",
    "level_reduce",
    "local_backbones",
    "parse_dimacs",
    "solve",
    "sus_search",
]
