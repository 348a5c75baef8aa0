"""Shared helpers: formula shorthand, reference oracles and a SAT-call cap.

The truth-table oracles (``tt_*`` and ``brute_*``) avoid the package's
solver, so that solver tests check against something independent.  The
other references state the paper's definitions plainly on top of the
package: ``sus_bruteforce`` and ``unit_propagate`` run on its solver,
``backbone_split`` is the paper's reduction of a k-backbone to an
unsatisfiable subset, and ``iterative_order`` is the definition of a
variable's iterative order, each level computed from the input.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

import pytest

from satbones import CnfFormula, iterative_k_backbones, unsat_subsets
from satbones.solver import _propagate, solve_sets

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


def sus_bruteforce(formula: CnfFormula, k: int) -> Optional[tuple[int, ...]]:
    """Minimum-cardinality unsatisfiable subset of size <= k, as ascending
    clause ids, by enumeration with the package's solver.

    No pruning beyond bailing out early when the whole formula is
    satisfiable.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if solve_sets(formula.literal_sets()) is not None:
        return None
    ids = formula.clause_ids()
    for size in range(1, min(k, len(ids)) + 1):
        for combo in itertools.combinations(ids, size):
            if solve_sets([formula.clause(cid) for cid in combo]) is None:
                return combo
    return None


def backbone_split(
    formula: CnfFormula, var: int
) -> tuple[CnfFormula, dict[int, tuple[int, int]]]:
    """Union of the two reducts of the formula on var, variable-disjoint.

    Returns the combined formula plus an origin map: new clause id ->
    (original clause id, literal certified by a witness containing it).
    The formula has an unsatisfiable subset of size <= k exactly when var is
    a k-backbone.
    """
    offset = formula.max_var
    combined: dict[int, frozenset[int]] = {}
    origin: dict[int, tuple[int, int]] = {}
    new_id = 1
    for cid, c in formula.reduct((var,)).clauses():
        combined[new_id] = c
        origin[new_id] = (cid, -var)
        new_id += 1
    for cid, c in formula.reduct((-var,)).clauses():
        shifted = frozenset(l + offset if l > 0 else l - offset for l in c)
        combined[new_id] = shifted
        origin[new_id] = (cid, var)
        new_id += 1
    return CnfFormula(combined), origin


class Propagation(NamedTuple):
    forced: tuple[int, ...]
    residual: CnfFormula
    conflict: bool


def unit_propagate(formula: CnfFormula) -> Propagation:
    """Close the formula under unit-clause consequences with the solver's
    propagation loop.

    Unit clauses fire in ascending clause-id order, and none fires once an
    empty clause is present (``conflict``); ``residual`` is the reduct of
    the input by the forced literals.
    """
    clauses, assign = _propagate(list(formula.literal_sets()))
    forced = tuple(v if value else -v for v, value in assign.items())
    return Propagation(forced, formula.reduct(forced), clauses is None)


def iterative_order(formula: CnfFormula, var: int, kmax: int) -> Optional[int]:
    """Smallest k <= kmax at which var joins the iterative k-backbones, each
    level computed from the input, or None."""
    for k in range(1, kmax + 1):
        if var in iterative_k_backbones(formula, k).variables:
            return k
    return None
