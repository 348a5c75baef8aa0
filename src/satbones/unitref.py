"""Levelled generalized unit propagation.

At every level k >= 0, while the formula holds no empty clause, the first
literal in scan order whose complement, asserted, collapses at level k-1 is
forced and asserted (level 0 forces nothing).  A formula that comes to hold
the empty clause collapses to its smallest-id empty clause; otherwise the
fixpoint is returned.  Level 1 is exactly unit propagation, and it asserts
nothing to probe a literal: on a formula without the empty clause, F|-l
contains the empty clause exactly when F contains the unit clause {l}, so
level 1 reads the literals it may force off F's unit clauses and takes them
in the same scan order.  Every level k >= 2 has one probe rule.  Each pass
indexes the current clauses once (the solver's ``_refuter``) and tests
every candidate on that index; each probe undoes the previous probe's
trail before it starts.  At level 2 the test is unit propagation, which
refutes a probe exactly when it collapses at level 1.  At a level k >= 3
the test is complete: a probe that propagation leaves open goes on to the
solver's search from the probe's trail, so it is refuted exactly when it
is unsatisfiable.  A probe that collapses is unsatisfiable, because every
forced literal is entailed, so a probe the test does not refute is never
forced.  At or above the variable count a refuted probe collapses
(hardness is at most the number of variables); below it, the level
recurses on the refuted probe, asserted with the solver's ``_assert`` as a
bare frozenset of clauses.  The recursion therefore only ever sees
unsatisfiable clause sets, where every probe is refuted.  It is told so,
as is the top level when one SAT call finds the input unsatisfiable, and
a level told so below its variable count builds no index and recurses on
every probe.  Nothing is memoized.  Clause ids are needed only for the
returned residual, which is one reduct of the input.  The forced-literal
sets grow with k on satisfiable inputs and always over-approximate the
literal sets found by iterative k-backbone computation (strictly so on
some families).
"""

from __future__ import annotations

from typing import NamedTuple

from .formula import CnfFormula, literal_order
from .solver import _assert, _refuter, solve_sets


class LevelReduction(NamedTuple):
    residual: CnfFormula
    forced: frozenset[int]
    contradiction: bool


def _level(
    clauses: frozenset[frozenset[int]], k: int, unsat: bool
) -> tuple[tuple[int, ...], bool]:
    """The literals forced at level k, in forcing order, and whether the
    clauses come to hold the empty clause; ``unsat`` says that the clauses
    are known to be unsatisfiable."""
    forced: list[int] = []
    while not (collapsed := frozenset() in clauses) and k > 0:
        if k == 1:
            # the closed form of the level-0 probe: the clauses hold no
            # empty clause, so F|-l collapses exactly when {l} is a unit clause
            candidates = literal_order(l for c in clauses if len(c) == 1 for l in c)
        else:
            variables = {abs(l) for c in clauses for l in c}
            candidates = literal_order(l for v in variables for l in (v, -v))
            if not (unsat and 2 < k < len(variables)):
                # one index per pass: unit propagation at level 2, and
                # propagation then search, that is unsatisfiability, above;
                # a level that recurses on unsatisfiable clauses needs no
                # test, since every probe there is unsatisfiable
                refuted = _refuter(clauses, complete=k > 2)
                candidates = (l for l in candidates if refuted(-l))
            if 2 < k < len(variables):
                # below the variable count a refuted probe must also
                # collapse a level lower, where it is known unsatisfiable
                candidates = (
                    l
                    for l in candidates
                    if _level(frozenset(_assert(clauses, -l)), k - 1, True)[1]
                )
        if (lit := next(iter(candidates), None)) is None:
            break
        forced.append(lit)
        clauses = frozenset(_assert(clauses, lit))
    return tuple(forced), collapsed


def level_reduce(formula: CnfFormula, k: int) -> LevelReduction:
    """Apply the level-k forced assignments to the formula.

    Without a contradiction the residual is the reduct of the input by the
    forced literals.  With one, the forcing stops at the first empty clause:
    the residual is that single clause, with its input id, and ``forced``
    holds the literals forced before it.  The probes run on bare clause
    sets, and every level k >= 2 tests each probe on one clause index per
    pass; a level below the variable count recurses only on the probes that
    test refutes, which are unsatisfiable.  Nothing is memoized.  When
    2 < k < the variable count, one SAT call on the input says whether it
    is unsatisfiable: then every probe is, and the levels that recurse
    build no index.  Only the returned residual carries clause ids.
    Without a contradiction the fixpoint is independent of the literal scan
    order.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    clauses = frozenset(formula.literal_sets())
    unsat = 2 < k < len(formula.variables) and solve_sets(clauses) is None
    forced, collapsed = _level(clauses, k, unsat)
    residual = formula.reduct(forced) if forced else formula
    if collapsed:
        residual = residual.subset((residual.empty_clause_id(),))
    return LevelReduction(residual, frozenset(forced), collapsed)
