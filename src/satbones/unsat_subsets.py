"""Finding minimum unsatisfiable subsets of at most k clauses.

Two routes that return witnesses of the same, minimum, size:

* ``sus_bruteforce`` -- reference oracle, plain enumeration by subset size;
* ``sus_search`` -- iteratively deepened search over connected sub-formulas
  of the incidence graph with fewer variables than the target size (a
  subset-minimal unsatisfiable formula has more clauses than variables, and
  so has every subset on the search's path to it), hence restricted to
  clauses shorter than k.

Both are deterministic: seeds in ascending clause-id order,
extensions in ascending id order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .formula import CnfFormula
from .solver import solve_sets


@dataclass(frozen=True)
class WitnessSubset:
    """Clause ids certifying unsatisfiability or entailment of a literal."""

    clause_ids: frozenset[int]
    literal: Optional[int] = None  # the entailed literal; None for unsat

    def sorted_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.clause_ids))


def _is_unsat(clause_sets) -> bool:
    return solve_sets(clause_sets) is None


def sus_bruteforce(formula: CnfFormula, k: int) -> Optional[WitnessSubset]:
    """Minimum-cardinality unsatisfiable subset of size <= k, by enumeration.

    Reference oracle: no pruning beyond bailing out early when the whole
    formula is satisfiable.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if solve_sets(formula.literal_sets()) is not None:
        return None
    ids = formula.clause_ids()
    for size in range(1, min(k, len(ids)) + 1):
        for combo in itertools.combinations(ids, size):
            if _is_unsat([formula.clause(cid) for cid in combo]):
                return WitnessSubset(frozenset(combo))
    return None


def _short_clauses(formula: CnfFormula, k: int) -> dict[int, frozenset[int]]:
    return {cid: c for cid, c in formula.clauses() if len(c) < k}


def _neighbors(star: dict[int, frozenset[int]]) -> dict[int, tuple[int, ...]]:
    by_var: dict[int, list[int]] = {}
    for cid, c in star.items():
        for l in c:
            by_var.setdefault(abs(l), []).append(cid)
    adjacent: dict[int, set[int]] = {cid: set() for cid in star}
    for ids in by_var.values():
        for cid in ids:
            adjacent[cid].update(ids)
    return {
        cid: tuple(sorted(peers - {cid})) for cid, peers in adjacent.items()
    }


def sus_search(formula: CnfFormula, k: int) -> Optional[WitnessSubset]:
    """Smallest unsatisfiable subset of at most k clauses, or None.

    Enumerates connected sub-formulas of the incidence graph, each exactly
    once (from the seed with the smallest clause id), skipping every one
    with at least as many variables as the target size.  The target size is
    iteratively deepened from 1 to k and the SAT test runs only on subsets of
    the target size, so the witness has minimum cardinality and is the first
    one the unbounded enumeration would find.

    Bounded occurrence needs no route of its own: when every variable occurs
    in at most d clauses, a clause shorter than k has fewer than k*d
    neighbours, so the connected subsets of at most k clauses through each
    seed number at most a function of k and d, and this enumeration is
    already fixed-parameter tractable in k + d.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    star = _short_clauses(formula, k)
    for cid, c in star.items():
        if not c:
            return WitnessSubset(frozenset((cid,)))
    if solve_sets(star.values()) is not None:
        return None
    neighbors = _neighbors(star)
    variables = {cid: frozenset(abs(l) for l in c) for cid, c in star.items()}

    def extend(
        sub: list[int], used: frozenset[int], banned: set[int], seed: int,
        target: int,
    ) -> Optional[frozenset[int]]:
        if len(sub) == target:
            unsat = _is_unsat([star[i] for i in sub])
            return frozenset(sub) if unsat else None
        frontier = set()
        for member in sub:
            frontier.update(neighbors[member])
        candidates = sorted(
            x for x in frontier if x > seed and x not in banned and x not in sub
        )
        blocked = set(banned)
        for x in candidates:
            grown = used | variables[x]
            if len(grown) < target:  # else every superset breaks the bound too
                found = extend(sub + [x], grown, blocked, seed, target)
                if found is not None:
                    return found
            blocked.add(x)
        return None

    seeds = sorted(star)
    for target in range(1, min(k, len(star)) + 1):
        for seed in seeds:
            if len(variables[seed]) < target:
                found = extend([seed], variables[seed], set(), seed, target)
                if found is not None:
                    return WitnessSubset(found)
    return None
