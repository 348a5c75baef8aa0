"""Shared helpers: formula shorthand, reference oracles and a SAT-call cap.

The truth-table oracles (``tt_*`` and ``brute_*``) avoid the package's
solver, so that solver tests check against something independent.  The
other references state the paper's definitions plainly on top of the
package: ``copying_solve_sets`` is the DPLL that copies the clause list at
every node, the reference for ``solve_sets``'s models; ``sus_bruteforce``
and ``unit_propagate`` run on its solver,
``backbone_split`` is the paper's reduction of a k-backbone to an
unsatisfiable subset, and ``iterative_order`` is the definition of a
variable's iterative order, each level computed from the input.  The
paper's hardness reductions are proof devices that no command builds, so
they live here as planted-answer references: ``add_guard_variable`` (an
unsatisfiable subset of at most k clauses as a k-backbone), hyperpath
search (``is_k_hyperpath``, ``shortest_hyperpath``), the unit-free Horn
plant and ``ternary_collector``, the 3-CNF form of the clique instance.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Optional

import pytest

from satbones import (
    CnfFormula,
    FormulaClassError,
    classify,
    iterative_k_backbones,
    unsat_subsets,
)
from satbones.generators import HyperpathInstance
from satbones.solver import _assert, _propagate, solve_sets

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


def copying_solve_sets(
    clause_sets: Iterable[frozenset[int]],
) -> Optional[dict[int, bool]]:
    """``solve_sets`` as a DPLL that copies and rescans the clause list at
    every node: the same branching (lowest variable of the clauses left,
    positive first, depth-first), a (partial) model or None.

    Each open branch carries the clauses and the partial model of its node;
    popping one asserts its literal and propagates units."""
    branches = []
    clauses, model = _propagate(list(clause_sets))
    while True:
        if clauses is not None:
            if not clauses:
                return model
            v = min(map(abs, itertools.chain.from_iterable(clauses)))
            branches.append((clauses, model, -v))
            branches.append((clauses, model, v))
        if not branches:
            return None
        clauses, model, lit = branches.pop()
        clauses, units = _propagate(_assert(clauses, lit))
        model = {**model, abs(lit): lit > 0, **units}


def iterative_order(formula: CnfFormula, var: int, kmax: int) -> Optional[int]:
    """Smallest k <= kmax at which var joins the iterative k-backbones, each
    level computed from the input, or None."""
    for k in range(1, kmax + 1):
        if var in iterative_k_backbones(formula, k).variables:
            return k
    return None


def add_guard_variable(formula: CnfFormula) -> tuple[CnfFormula, int]:
    """Add a fresh variable positively to every clause.

    Any subset of the result entails the new variable exactly when the
    matching original clauses are unsatisfiable, so the new variable is a
    k-backbone of the result iff the input has an unsatisfiable subset of at
    most k clauses.  The fresh variable never occurs negatively.
    """
    z = formula.max_var + 1
    return CnfFormula({cid: c | {z} for cid, c in formula.clauses()}), z


def _head_and_body(clause: frozenset[int]) -> tuple[int, frozenset[int]]:
    positives = [l for l in clause if l > 0]
    if len(positives) != 1:
        raise FormulaClassError("hyperpath clauses must be definite Horn")
    return positives[0], frozenset(abs(l) for l in clause if l < 0)


def is_k_hyperpath(
    formula: CnfFormula, clause_ids: Iterable[int], s: int, t: int, k: int
) -> bool:
    """Whether the chosen clauses derive t from s and number at most k.

    Recursive check: t equals s, or some chosen clause has head t and the
    remaining clauses derive each of its body variables from s.
    """
    ids = frozenset(clause_ids)
    if len(ids) > k:
        return False
    heads: dict[int, tuple[int, frozenset[int]]] = {}
    for cid in ids:
        heads[cid] = _head_and_body(formula.clause(cid))
    memo: dict[tuple[frozenset[int], int], bool] = {}

    def derives(available: frozenset[int], goal: int) -> bool:
        if goal == s:
            return True
        key = (available, goal)
        if key in memo:
            return memo[key]
        result = False
        for cid in available:
            head, body = heads[cid]
            if head != goal:
                continue
            rest = available - {cid}
            if all(derives(rest, v) for v in body):
                result = True
                break
        memo[key] = result
        return result

    return derives(ids, t)


def shortest_hyperpath(
    formula: CnfFormula, s: int, t: int, kmax: int
) -> Optional[int]:
    """Minimum number of clauses deriving t from s, or None beyond kmax.

    Exhaustive over clause subsets by increasing size; exact oracle for
    desk-scale instances.
    """
    if not classify(formula).is_definite_horn:
        raise FormulaClassError("formula is not definite Horn")
    if t == s:
        return 0
    ids = formula.clause_ids()
    for size in range(1, min(kmax, len(ids)) + 1):
        for combo in itertools.combinations(ids, size):
            if is_k_hyperpath(formula, combo, s, t, size):
                return size
    return None


def hyperpath_to_unitfree_horn(
    instance: HyperpathInstance,
) -> tuple[CnfFormula, int, int]:
    """Plant the hyperpath answer as a negative backbone on unit-free Horn.

    Requires a ternary-width, unit-free instance whose target-headed clauses
    all have size 3.  Those clauses lose their head; the source literal
    (negatively) is a budget-backbone of the result iff the instance has a
    hyperpath within budget.  Clause ids are preserved.
    """
    formula, t = instance.formula, instance.target
    flags = classify(formula)
    if not flags.is_definite_horn or flags.max_clause_width > 3:
        raise FormulaClassError("input must be definite Horn with width <= 3")
    clauses: dict[int, frozenset[int]] = {}
    for cid, c in formula.clauses():
        if len(c) < 2:
            raise ValueError("input must not contain unit clauses")
        head, _ = _head_and_body(c)
        if head == t:
            if len(c) != 3:
                raise ValueError(
                    "every clause with the target as head must have size 3"
                )
            clauses[cid] = c - {t}
        else:
            clauses[cid] = c
    return CnfFormula(clauses), -instance.source, instance.budget


def ternary_collector(instance: HyperpathInstance) -> HyperpathInstance:
    """A ``colored_clique_to_hyperpath`` instance with its last clause, the
    wide collector, rewritten into a chain of ternary clauses.

    Fresh chain variables c1..cC follow the target, for the C color pairs
    p1..pC in ascending order: p1 -> c1, c(r-1) and pr -> cr, cC -> target.
    A hyperpath now needs C more clauses, so the budget becomes
    k + 2*C(k,2) + 1.
    """
    formula, t = instance.formula, instance.target
    *kept, (last, collector) = formula.clauses()
    pairs = sorted(-l for l in collector if l < 0)
    chain = range(formula.max_var + 1, formula.max_var + 1 + len(pairs))
    links = [(-pairs[0], chain[0])]
    links += [(-chain[r - 1], -pairs[r], chain[r]) for r in range(1, len(pairs))]
    links.append((-chain[-1], t))
    clauses = dict(kept)
    clauses.update(enumerate(links, start=last))
    return HyperpathInstance(
        CnfFormula(clauses), instance.source, t, instance.budget + len(pairs)
    )
