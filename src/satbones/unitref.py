"""Levelled generalized unit propagation.

At every level k >= 0, while the formula holds no empty clause, the first
literal in scan order whose complement, asserted, collapses at level k-1 is
forced and asserted (level 0 forces nothing).  A formula that comes to hold
the empty clause collapses to its smallest-id empty clause; otherwise the
fixpoint is returned.  Level 1 is exactly unit propagation, and it asserts
nothing to probe a literal: on a formula without the empty clause, F|-l
contains the empty clause exactly when F contains the unit clause {l}, so
level 1 reads the literals it may force off F's unit clauses and takes them
in the same scan order.  A level k >= 3 at least the variable count tests
each probe with one SAT call instead of recursing: the probe has fewer than
k variables, and a level at least a clause set's variable count collapses
exactly the unsatisfiable ones (hardness is at most the number of
variables).  The probes at every level run on bare frozensets of clauses,
asserted with the solver's ``_assert``; clause ids are needed only for the
returned residual, which is one reduct of the input.  The forced-literal
sets grow with k on satisfiable inputs and always over-approximate the
literal sets found by iterative k-backbone computation (strictly so on some
families).
"""

from __future__ import annotations

from typing import NamedTuple

from .formula import CnfFormula, literal_order
from .solver import _assert, solve_sets


class LevelReduction(NamedTuple):
    residual: CnfFormula
    forced: frozenset[int]
    contradiction: bool


def _level(
    clauses: frozenset[frozenset[int]],
    k: int,
    memo: dict[
        tuple[frozenset[frozenset[int]], int], tuple[tuple[int, ...], bool]
    ],
) -> tuple[tuple[int, ...], bool]:
    """The literals forced at level k, in forcing order, and whether the
    clauses come to hold the empty clause."""
    if (clauses, k) in memo:
        return memo[clauses, k]
    current = clauses
    forced: list[int] = []
    while not (collapsed := frozenset() in current) and k > 0:
        if k == 1:
            # the closed form of the level-0 probe: current holds no empty
            # clause, so F|-l collapses exactly when {l} is a unit clause
            candidates = literal_order(l for c in current if len(c) == 1 for l in c)
        else:
            variables = {abs(l) for c in current for l in c}
            # at or above the variable count one SAT call decides each probe;
            # level 2 keeps level 1's closed form, which is cheaper still
            exact = k > 2 and k >= len(variables)
            candidates = (
                l
                for l in literal_order(l for v in variables for l in (v, -v))
                if (
                    solve_sets(_assert(current, -l)) is None
                    if exact
                    else _level(frozenset(_assert(current, -l)), k - 1, memo)[1]
                )
            )
        lit = next(iter(candidates), None)
        if lit is None:
            break
        forced.append(lit)
        current = frozenset(_assert(current, lit))
    memo[clauses, k] = result = tuple(forced), collapsed
    return result


def level_reduce(formula: CnfFormula, k: int) -> LevelReduction:
    """Apply the level-k forced assignments to the formula.

    Without a contradiction the residual is the reduct of the input by the
    forced literals.  With one, the forcing stops at the first empty clause:
    the residual is that single clause, with its input id, and ``forced``
    holds the literals forced before it.  The probes run on bare clause
    sets, memoized for the length of one call (the recursion revisits the
    same reducts heavily); only the returned residual carries clause ids.
    Without a contradiction the fixpoint is independent of the literal scan
    order.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    forced, collapsed = _level(frozenset(formula.literal_sets()), k, {})
    residual = formula.reduct(forced) if forced else formula
    if collapsed:
        residual = residual.subset((residual.empty_clause_id(),))
    return LevelReduction(residual, frozenset(forced), collapsed)
