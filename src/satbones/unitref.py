"""Levelled generalized unit propagation.

At every level k >= 0, while the formula holds no empty clause, the first
literal in scan order whose complement, asserted, collapses at level k-1 is
forced and asserted (level 0 forces nothing).  A formula that comes to hold
the empty clause collapses to its smallest-id empty clause; otherwise the
fixpoint is returned.  Level 1 is exactly unit propagation, and it builds no
reduct to probe a literal: on a formula without the empty clause, F|-l
contains the empty clause exactly when F contains the unit clause {l}, so
level 1 reads the literals it may force off F's unit clauses and takes them
in the same scan order.  The forced-literal sets grow with k on satisfiable
inputs and always over-approximate the literal sets found by iterative
k-backbone computation (strictly so on some families).
"""

from __future__ import annotations

from typing import NamedTuple

from .formula import CnfFormula, literal_order


class LevelReduction(NamedTuple):
    residual: CnfFormula
    forced: frozenset[int]
    contradiction: bool


def _level(
    formula: CnfFormula,
    k: int,
    memo: dict[tuple[CnfFormula, int], LevelReduction],
) -> LevelReduction:
    if (formula, k) in memo:
        return memo[formula, k]
    current = formula
    forced: set[int] = set()
    while (empty := current.empty_clause_id()) is None and k > 0:
        if k == 1:
            # the closed form of the level-0 probe: current holds no empty
            # clause, so F|-l collapses exactly when {l} is a unit clause
            candidates = literal_order(
                l for c in current.literal_sets() if len(c) == 1 for l in c
            )
        else:
            candidates = (
                l
                for l in literal_order(current.literals)
                if _level(current.reduct((-l,)), k - 1, memo).contradiction
            )
        lit = next(iter(candidates), None)
        if lit is None:
            break
        forced.add(lit)
        current = current.reduct((lit,))
    residual = current if empty is None else current.subset((empty,))
    memo[formula, k] = result = LevelReduction(
        residual, frozenset(forced), empty is not None
    )
    return result


def level_reduce(formula: CnfFormula, k: int) -> LevelReduction:
    """Apply the level-k forced assignments to the formula.

    Without a contradiction the residual is the reduct of the input by the
    forced literals.  With one, the forcing stops at the first empty clause:
    the residual is that single clause, with its input id, and ``forced``
    holds the literals forced before it.  Results are memoized for the
    length of one call (the recursion revisits the same reducts heavily).
    Without a contradiction the fixpoint is independent of the literal scan
    order.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return _level(formula, k, {})
