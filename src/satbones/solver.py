"""A small complete satisfiability engine: splitting plus unit propagation.

Deliberately plain (no clause learning, static lowest-variable branching) so
it can double as the trusted oracle behind every entailment and
unsatisfiable-subset check in this package.  Desk-scale instances only.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Optional

from .formula import CnfFormula

Assignment = dict[int, bool]


class UnsatFormulaError(Exception):
    """Raised where a satisfiable formula is required."""


def _assert(clauses: Iterable[frozenset[int]], lit: int) -> list[frozenset[int]]:
    """The clauses under lit: drop those it satisfies, strip its complement."""
    complement = frozenset((-lit,))
    return [c - complement if -lit in c else c for c in clauses if lit not in c]


def _propagate(
    clauses: list[frozenset[int]],
) -> tuple[Optional[list[frozenset[int]]], Assignment]:
    """Assert the first unit clause, again and again, until none is left.

    Stops at the first empty clause: while one is present, no unit fires.
    Returns the remaining clauses (None on an empty clause) and the units
    asserted, in firing order."""
    assign: Assignment = {}
    while all(clauses):  # no clause is empty
        for c in clauses:
            if len(c) == 1:
                (lit,) = c
                break
        else:
            return clauses, assign
        assign[abs(lit)] = lit > 0
        clauses = _assert(clauses, lit)
    return None, assign


def solve_sets(clause_sets: Iterable[frozenset[int]]) -> Optional[Assignment]:
    """SAT check on bare literal sets; returns a (partial) model or None.

    Depth-first splitting on the lowest variable, positive polarity first,
    with unit propagation at every node.  Open branches live on an explicit
    stack, each with the partial model of its node, so no input can reach
    the recursion limit."""
    branches: list[tuple[list[frozenset[int]], Assignment, int]] = []
    clauses, model = _propagate(list(clause_sets))
    while True:
        if clauses is not None:
            if not clauses:
                return model
            v = min(map(abs, chain.from_iterable(clauses)))
            branches.append((clauses, model, -v))
            branches.append((clauses, model, v))
        if not branches:
            return None
        clauses, model, lit = branches.pop()
        clauses, units = _propagate(_assert(clauses, lit))
        model = {**model, abs(lit): lit > 0, **units}


def solve(formula: CnfFormula) -> Optional[Assignment]:
    """Complete SAT/UNSAT decision; on SAT the model is total on Var(formula).

    Unconstrained variables default to False so the result is reproducible.
    """
    model = solve_sets(formula.literal_sets())
    if model is None:
        return None
    for v in formula.variables:
        model.setdefault(v, False)
    return model


def full_backbones(formula: CnfFormula) -> dict[int, bool]:
    """All variables with one truth value across all models, with that value.

    One SAT test per candidate literal l: l is a backbone literal exactly
    when F ∧ ¬l is unsatisfiable.  Each backbone literal proven is asserted
    into the working clauses: every model of F sets it, so the later tests
    stay exact and run on a smaller formula.  The candidates are the
    variables the first model assigns, with their values; a counter-model
    drops every candidate it flips or leaves unassigned, since a variable a
    model leaves unassigned takes either value.

    Raises UnsatFormulaError on unsatisfiable input: under the subset-based
    definition every variable of an unsatisfiable formula would qualify, and
    we surface that degenerate case instead of reporting it.
    """
    clauses = list(formula.literal_sets())
    candidates = solve_sets(clauses)
    if candidates is None:
        raise UnsatFormulaError("formula is unsatisfiable; backbones undefined")
    result: dict[int, bool] = {}
    for v in sorted(candidates):
        if v not in candidates:
            continue
        lit = v if candidates[v] else -v
        counter = solve_sets(clauses + [frozenset((-lit,))])
        if counter is None:
            result[v] = lit > 0
            clauses = _assert(clauses, lit)
        else:
            # the counter-model rules out every candidate it flips or leaves free
            for u in list(candidates):
                if counter.get(u) != candidates[u]:
                    del candidates[u]
    return result
