"""Finding small unsatisfiable subsets of CNF formulas.

Two routes with identical verdicts:

* ``sus_bruteforce`` -- reference oracle, plain enumeration by subset size;
* ``sus_search`` -- bounded search over connected sub-formulas of the
  incidence graph with fewer variables than the clause budget (a
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
    kind: str = "unsat"  # "unsat" | "entails"
    literal: Optional[int] = None

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


def sus_search(
    formula: CnfFormula, k: int, minimum: bool = False
) -> Optional[WitnessSubset]:
    """Bounded search for an unsatisfiable subset of at most k clauses.

    Enumerates connected sub-formulas of the incidence graph, each exactly
    once (from the seed with the smallest clause id), skipping every one
    with at least as many variables as the clause budget (the target size,
    else k).
    With ``minimum=True`` the subset size is iteratively deepened, so the
    returned witness has minimum cardinality and is the first one the
    unbounded enumeration would find; otherwise the first witness found is
    returned, and it has at most k - 1 variables.

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
        target: Optional[int],
    ) -> Optional[frozenset[int]]:
        if target is None or len(sub) == target:
            if _is_unsat([star[i] for i in sub]):
                return frozenset(sub)
        size = target or k
        if len(sub) == size:
            return None
        frontier = set()
        for member in sub:
            frontier.update(neighbors[member])
        candidates = sorted(
            x for x in frontier if x > seed and x not in banned and x not in sub
        )
        blocked = set(banned)
        for x in candidates:
            grown = used | variables[x]
            if len(grown) < size:  # else every superset breaks the bound too
                found = extend(sub + [x], grown, blocked, seed, target)
                if found is not None:
                    return found
            blocked.add(x)
        return None

    seeds = sorted(star)
    targets = range(1, min(k, len(star)) + 1) if minimum else (None,)
    for target in targets:
        for seed in seeds:
            if len(variables[seed]) < (target or k):
                found = extend([seed], variables[seed], set(), seed, target)
                if found is not None:
                    return WitnessSubset(found)
    return None


def minimize_witness(formula: CnfFormula, witness: WitnessSubset) -> WitnessSubset:
    """Shrink an unsatisfiability witness to a subset-minimal one.

    Deletion test in ascending id order; the result satisfies the
    more-clauses-than-variables inequality of minimal unsatisfiable formulas.
    """
    if witness.kind != "unsat":
        raise ValueError("can only minimize unsatisfiability witnesses")
    kept = sorted(witness.clause_ids)
    i = 0
    while i < len(kept):
        trial = kept[:i] + kept[i + 1 :]
        if _is_unsat([formula.clause(cid) for cid in trial]):
            kept = trial
        else:
            i += 1
    return WitnessSubset(frozenset(kept))
