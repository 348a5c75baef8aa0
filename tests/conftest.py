"""Shared helpers: formula shorthand, brute-force oracles and a SAT-call cap.

The truth-table oracles here deliberately avoid the package's solver so that
solver tests check against something independent.
"""

from __future__ import annotations

import itertools

import pytest

from satbones import CnfFormula, unsat_subsets

SAT_CALL_CAP = 10_000


@pytest.fixture
def capped_sat_calls(monkeypatch):
    """Fail the test once the subset searches pass SAT_CALL_CAP SAT calls."""
    calls = itertools.count(1)
    solve = unsat_subsets.solve_sets

    def counted(clause_sets):
        if next(calls) > SAT_CALL_CAP:
            raise AssertionError(f"more than {SAT_CALL_CAP} SAT calls")
        return solve(clause_sets)

    monkeypatch.setattr(unsat_subsets, "solve_sets", counted)


def F(*clauses) -> CnfFormula:
    """Formula from literal lists, ids 1..m."""
    return CnfFormula.from_clauses(clauses)


def tt_models(formula: CnfFormula) -> list[dict[int, bool]]:
    """All satisfying total assignments, by direct truth-table enumeration."""
    variables = sorted(formula.variables)
    sets = formula.literal_sets()
    out = []
    for bits in itertools.product((False, True), repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        if all(any(assignment[abs(l)] == (l > 0) for l in c) for c in sets):
            out.append(assignment)
    return out


def tt_satisfiable(formula: CnfFormula) -> bool:
    return bool(tt_models(formula)) if formula.variables else not any(
        not c for c in formula.literal_sets()
    )


def tt_entails(formula: CnfFormula, literal: int) -> bool:
    models = tt_models(formula)
    if abs(literal) not in formula.variables:
        return not tt_satisfiable(formula)
    return all(m[abs(literal)] == (literal > 0) for m in models)


def tt_backbones(formula: CnfFormula) -> dict[int, bool]:
    """Backbones by model enumeration; requires a satisfiable formula."""
    models = tt_models(formula)
    assert models, "oracle needs a satisfiable formula"
    result = {}
    for v in sorted(formula.variables):
        values = {m[v] for m in models}
        if len(values) == 1:
            result[v] = values.pop()
    return result


def brute_unsat_subset(formula: CnfFormula, k: int):
    """Smallest unsatisfiable subset of size <= k by raw enumeration."""
    ids = formula.clause_ids()
    for size in range(1, min(k, len(ids)) + 1):
        for combo in itertools.combinations(ids, size):
            if not tt_satisfiable(formula.subset(combo)):
                return frozenset(combo)
    return None


def brute_k_backbone(formula: CnfFormula, var: int, k: int):
    """Smallest subset of size <= k forcing var, by raw enumeration.

    Returns (size, polarity) or None.
    """
    ids = formula.clause_ids()
    for size in range(1, min(k, len(ids)) + 1):
        for combo in itertools.combinations(ids, size):
            sub = formula.subset(combo)
            if tt_entails(sub, var):
                return size, True
            if tt_entails(sub, -var):
                return size, False
    return None
