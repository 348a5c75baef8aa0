"""Backbone, local-backbone and small-unsatisfiable-subset analysis of CNF
formulas, with class-specialized polynomial algorithms, planted-instance
generators and a reporting CLI."""

from .backbones import (
    IterativeResult,
    UnsatDetected,
    backbone_order,
    backbone_split,
    is_k_backbone,
    iterative_k_backbones,
    iterative_order,
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
from .solver import (
    Propagation,
    UnsatFormulaError,
    entails,
    full_backbones,
    solve,
    unit_propagate,
)
from .unitref import LevelReduction, level_reduce
from .unsat_subsets import sus_bruteforce, sus_search

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
    "Propagation",
    "TautologicalClauseError",
    "UnsatDetected",
    "UnsatFormulaError",
    "backbone_order",
    "backbone_split",
    "build_report",
    "classify",
    "emit_dimacs",
    "entails",
    "full_backbones",
    "horn_consequences",
    "is_k_backbone",
    "iterative_k_backbones",
    "iterative_order",
    "krom_iterative_backbones",
    "level_reduce",
    "local_backbones",
    "parse_dimacs",
    "solve",
    "sus_bruteforce",
    "sus_search",
    "unit_propagate",
]
