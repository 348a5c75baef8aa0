"""Levelled generalized unit propagation.

Level 0 collapses a formula to the single empty clause when it contains one
and leaves it alone otherwise.  At level k > 0, while asserting the
complement of some literal collapses at level k-1, that literal is forced
and asserted; the fixpoint is returned.  Level 1 is exactly unit
propagation, and it builds no reduct to probe a literal: F|-l contains the
empty clause exactly when F contains the empty clause or the unit clause
{l}, so level 1 reads the literals it may force off F's unit clauses and
takes them in the same scan order.  The forced-literal sets grow with k and
always over-approximate the literal sets found by iterative k-backbone
computation (strictly so on some families).
"""

from __future__ import annotations

from typing import NamedTuple

from .formula import CnfFormula, literal_order


class LevelReduction(NamedTuple):
    residual: CnfFormula
    forced: frozenset[int]
    contradiction: bool


def _collapse(formula: CnfFormula) -> CnfFormula:
    return formula.subset((formula.empty_clause_id(),))


def _level(
    formula: CnfFormula,
    k: int,
    memo: dict[tuple[CnfFormula, int], LevelReduction],
) -> LevelReduction:
    if k == 0:
        if formula.has_empty_clause():
            return LevelReduction(_collapse(formula), frozenset(), True)
        return LevelReduction(formula, frozenset(), False)
    if (formula, k) in memo:
        return memo[formula, k]
    current = formula
    forced: set[int] = set()
    progress = True
    while progress:
        progress = False
        if k == 1:
            # every candidate collapses at level 0 (see the module docstring)
            if current.has_empty_clause():
                candidates = current.literals
            else:
                candidates = {
                    l for c in current.literal_sets() if len(c) == 1 for l in c
                }
        else:
            candidates = current.literals
        for lit in literal_order(candidates):
            if k > 1:
                probe = _level(current.reduct((-lit,)), k - 1, memo)
                if not probe.contradiction:
                    continue
            forced.add(lit)
            current = current.reduct((lit,))
            progress = True
            break
    memo[formula, k] = result = LevelReduction(
        current, frozenset(forced), current.has_empty_clause()
    )
    return result


def level_reduce(formula: CnfFormula, k: int) -> LevelReduction:
    """Apply the level-k forced assignments to the formula.

    For k >= 1 the residual equals the reduct of the input by the forced
    literals; the contradiction flag marks the empty-clause collapse.
    Results are memoized for the length of one call (the recursion revisits
    the same reducts heavily); the fixpoint is independent of the literal
    scan order.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return _level(formula, k, {})


def forced_at_level(formula: CnfFormula, k: int) -> frozenset[int]:
    """The forced-literal set of level_reduce."""
    return level_reduce(formula, k).forced
