"""Backbone, local-backbone and small-unsatisfiable-subset analysis of CNF
formulas, with class-specialized polynomial algorithms, planted-instance
generators and a reporting CLI."""

from .backbones import (
    IterativeResult,
    UnsatDetected,
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
from .horn import horn_consequences
from .krom import ImplicationGraph, krom_iterative_backbones
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
    "ImplicationGraph",
    "IterativeResult",
    "LevelReduction",
    "OrderDistribution",
    "TautologicalClauseError",
    "UnsatDetected",
    "UnsatFormulaError",
    "build_report",
    "classify",
    "emit_dimacs",
    "full_backbones",
    "horn_consequences",
    "is_k_backbone",
    "iterative_k_backbones",
    "krom_iterative_backbones",
    "level_reduce",
    "local_backbones",
    "parse_dimacs",
    "solve",
    "sus_search",
]
