"""Levelled generalized unit propagation.

At every level k >= 0, while the formula holds no empty clause, the first
literal in scan order whose complement, asserted, collapses at level k-1 is
forced and asserted (level 0 forces nothing).  A formula that comes to hold
the empty clause collapses to its smallest-id empty clause; otherwise the
fixpoint is returned.  Level 1 is exactly unit propagation, and it asserts
nothing to probe a literal: on a formula without the empty clause, F|-l
contains the empty clause exactly when F contains the unit clause {l}, so
level 1 reads the literals it may force off F's unit clauses and takes them
in the same scan order.  Level 2 asserts nothing either: a level-1 probe
collapses exactly when unit propagation from the probed literal refutes
the formula, so each pass of level 2 indexes the current clauses once
(the solver's ``_refuter``) and tests every candidate on that index; each
probe undoes the previous probe's trail before it starts.  A level k >= 3
at least the variable count does the same without recursing, except that
a probe propagation leaves open goes on to the solver's search from the
probe's trail on the same index: the probe has fewer than k variables,
and a level at least a clause set's variable count collapses exactly the
unsatisfiable ones (hardness is at most the number of variables).  Below
it, a level k >= 3 recurses on each probe, asserted with the solver's
``_assert`` as a bare frozenset of clauses, and memoizes its levels
k >= 2 for the length of one call; clause ids are needed only for the
returned residual, which is one reduct of the input.  The forced-literal
sets grow with k on satisfiable inputs and always over-approximate the
literal sets found by iterative k-backbone computation (strictly so on some
families).
"""

from __future__ import annotations

from typing import NamedTuple

from .formula import CnfFormula, literal_order
from .solver import _assert, _refuter


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
            literals = literal_order(l for v in variables for l in (v, -v))
            if k == 2 or k >= len(variables):
                # a level-1 probe collapses exactly when unit propagation
                # from the complement refutes current, and a probe at or
                # above its variable count exactly when it is unsatisfiable,
                # which the search decides from propagation's trail: one
                # index per pass
                refuted = _refuter(current, complete=k > 2)
                candidates = (l for l in literals if refuted(-l))
            else:
                candidates = (
                    l
                    for l in literals
                    if _level(frozenset(_assert(current, -l)), k - 1, memo)[1]
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
    sets; levels 1 and 2, and the levels at or above the variable count,
    answer theirs without building a clause set per probe, and below it the
    recursion memoizes the levels k >= 2 it reaches for the length of one
    call (it revisits the same reducts heavily).  Only the returned residual
    carries clause ids.  Without a contradiction the fixpoint is independent
    of the literal scan order.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    forced, collapsed = _level(frozenset(formula.literal_sets()), k, {})
    residual = formula.reduct(forced) if forced else formula
    if collapsed:
        residual = residual.subset((residual.empty_clause_id(),))
    return LevelReduction(residual, frozenset(forced), collapsed)
