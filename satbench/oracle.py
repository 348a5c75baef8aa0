"""Reference answers that do not use the package under test.

A small splitting solver with unit propagation (used for the satisfiability
filter and the backbone sets the checks compare against) and a truth-table
test for witnesses.  Clauses are tuples of DIMACS literals throughout.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

Clause = tuple[int, ...]

# A witness with more variables than this is rejected instead of enumerated.
MAX_TRUTH_TABLE_VARS = 20


def _propagate(clauses: list[Clause], assign: dict[int, bool]) -> Optional[list[Clause]]:
    """Simplify under assign, extending it by unit clauses; None on conflict."""
    while True:
        out: list[Clause] = []
        units = []
        for c in clauses:
            kept = []
            for l in c:
                value = assign.get(abs(l))
                if value is None:
                    kept.append(l)
                elif value == (l > 0):
                    break
            else:
                if not kept:
                    return None
                if len(kept) == 1:
                    units.append(kept[0])
                out.append(tuple(kept))
        if not units:
            return out
        for unit in units:
            value = assign.get(abs(unit))
            if value is None:
                assign[abs(unit)] = unit > 0
            elif value != (unit > 0):
                return None
        clauses = out


def solve(clauses: Sequence[Clause], assumptions: Sequence[int] = ()) -> Optional[dict[int, bool]]:
    """A model (partial: unconstrained variables may be missing) or None.

    Depth-first over an explicit stack of (clauses, assignment) states, so
    the search depth is bounded by memory, not by the recursion limit.
    """
    start = {abs(l): l > 0 for l in assumptions}
    stack = [(list(clauses), start)]
    while stack:
        current, assign = stack.pop()
        current = _propagate(current, assign)
        if current is None:
            continue
        if not current:
            return assign
        v = abs(min(current, key=len)[0])
        for value in (False, True):  # True is popped first
            branch = dict(assign)
            branch[v] = value
            stack.append((current, branch))
    return None


def backbones(clauses: Sequence[Clause], model: dict[int, bool]) -> dict[int, bool]:
    """Every backbone variable with its value, given one model of the clauses."""
    variables = sorted({abs(l) for c in clauses for l in c})
    candidates = {v: model.get(v, False) for v in variables}
    result: dict[int, bool] = {}
    for v in variables:
        if v not in candidates:
            continue
        value = candidates[v]
        counter = solve(clauses, (-v if value else v,))
        if counter is None:
            result[v] = value
            continue
        for u in list(candidates):
            if u in counter and counter[u] != candidates[u]:
                del candidates[u]
    return result


def satisfies(clauses: Sequence[Clause], model: dict[int, bool]) -> bool:
    return all(any(model.get(abs(l)) == (l > 0) for l in c) for c in clauses)


def truth_table_unsat(clauses: Sequence[Clause]) -> bool:
    """Whether no assignment satisfies the clauses, by full enumeration."""
    variables = sorted({abs(l) for c in clauses for l in c})
    if len(variables) > MAX_TRUTH_TABLE_VARS:
        raise ValueError(f"{len(variables)} variables is too many for a truth table")
    for bits in itertools.product((False, True), repeat=len(variables)):
        assign = dict(zip(variables, bits))
        if satisfies(clauses, assign):
            return False
    return True


def level2_forced(clauses: Sequence[Clause]) -> frozenset[int]:
    """Literals forced by level-2 generalized unit propagation.

    A literal is forced when unit propagation refutes its complement; the
    forced literals are asserted and the scan repeats until nothing new is
    forced.  The fixpoint does not depend on the scan order.
    """
    current = list(clauses)
    forced: set[int] = set()
    while True:
        variables = sorted({abs(l) for c in current for l in c})
        for lit in (s * v for v in variables for s in (1, -1)):
            if _propagate(current, {abs(lit): lit < 0}) is None:
                assign = {abs(lit): lit > 0}
                reduced = _propagate(current, assign)
                if reduced is None:
                    raise ValueError("both polarities refuted: unsatisfiable input")
                forced.update(v if value else -v for v, value in assign.items())
                current = reduced
                break
        else:
            return frozenset(forced)
