"""Finding minimum unsatisfiable subsets of at most k clauses.

``sus_search`` returns a witness of minimum size as a tuple of clause ids
in ascending order.  It is an iteratively deepened search over connected
sub-formulas of the incidence graph with fewer variables than the target
size (a subset-minimal unsatisfiable formula has more clauses than
variables, and so has every subset on the search's path to it), hence
restricted to clauses shorter than k.  The clauses are bits of an int,
numbered in ascending id order.  A subset of the target size goes to the
SAT test only when each of its variables occurs in both polarities: the
smaller targets have all been searched, so an unsatisfiable subset of the
target size is minimally unsatisfiable, and such a formula has no pure
literal.  A subset whose clause weights 2^-|C| sum to less than 1 is
satisfiable (Erdős–Selfridge), so the search cuts every subtree whose
leaves all weigh less than 1, whole targets included.

The search is deterministic: seeds in ascending clause-id order, extensions
in ascending id order.
"""

from __future__ import annotations

from typing import Optional

from .formula import CnfFormula
from .solver import solve_sets


def sus_search(formula: CnfFormula, k: int) -> Optional[tuple[int, ...]]:
    """Smallest unsatisfiable subset of at most k clauses, as ascending
    clause ids, or None.

    Enumerates connected sub-formulas of the incidence graph, each exactly
    once (from the seed with the smallest clause id), skipping every one
    with at least as many variables as the target size.  The target size is
    iteratively deepened from 1 to k and the SAT test runs only on subsets of
    the target size, so the witness has minimum cardinality and is the first
    one the unbounded enumeration would find.

    The short clauses are numbered 0..n-1 in ascending id order, and the
    subset, its frontier, the banned clauses and the subset's positive and
    negative variables are int bitmasks.  Candidates are taken lowest bit
    first, which is ascending id order.  The seeds are the empty subset's
    extensions: at the root every short clause is a candidate, and the root
    bans each clause before it tries the next, so only larger ids join a
    seed.

    A subset of the target size gets the SAT test only if every variable in
    it occurs in both polarities.  This drops no unsatisfiable subset:
    every smaller target has already been searched, so an unsatisfiable
    subset of this size has no unsatisfiable proper subset (a minimal one
    would be connected, with fewer variables than clauses, and found
    earlier), and a minimally unsatisfiable formula has no pure literal.
    The filter thus depends on the loop over targets: a search at a single
    target keeps it exact only when no smaller witness can exist.

    The weight bound needs no such condition.  A uniformly random assignment
    falsifies a clause C with probability 2^-|C|, so a subset whose weights
    2^-|C| sum to less than 1 has an assignment that falsifies none of its
    clauses: it is satisfiable.  Scaled by 2^w for the widest short clause's
    width w, each clause weighs the integer ``goal >> |C|``, where
    ``goal = 1 << w`` stands for 1, and ``top`` is the largest weight.  A
    node of weight s with ``room`` slots still to fill has no leaf heavier
    than ``s + room * top``.  ``extend`` receives the surplus
    ``s + room * top - goal``, which each added clause lowers by its
    ``gap``, top minus its weight, and returns when it is negative.  At a
    leaf (room 0) this is the weight test of the leaf itself, at the root it
    skips the whole target (on 3-CNF reducts at k = 4 every target below
    4), and in between it cuts a subtree of satisfiable leaves.  Every leaf
    it drops is satisfiable, so the witness, and the set of leaves that get
    the SAT test, are those of the enumeration without the bound.  The
    scale keeps the surplus a small int: it never exceeds k * top.

    Bounded occurrence needs no route of its own: when every variable occurs
    in at most d clauses, a clause shorter than k has fewer than k*d
    neighbours, so the connected subsets of at most k clauses through each
    seed number at most a function of k and d, and this enumeration is
    already fixed-parameter tractable in k + d.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    star = {cid: c for cid, c in formula.clauses() if len(c) < k}
    for cid, c in star.items():
        if not c:
            return (cid,)
    if solve_sets(star.values()) is not None:
        return None
    ids = list(star)
    clauses = list(star.values())
    occurs: dict[int, int] = {}  # variable -> mask of the clauses it is in
    for i, c in enumerate(clauses):
        for l in c:
            occurs[abs(l)] = occurs.get(abs(l), 0) | 1 << i
    var_bit = {v: 1 << j for j, v in enumerate(occurs)}
    positive = [0] * len(ids)
    negative = [0] * len(ids)
    neighbors = [0] * len(ids)
    for i, c in enumerate(clauses):
        for l in c:
            if l > 0:
                positive[i] |= var_bit[l]
            else:
                negative[i] |= var_bit[-l]
            neighbors[i] |= occurs[abs(l)]
    variables = [p | n for p, n in zip(positive, negative)]
    lengths = list(map(len, clauses))
    top, goal = 1 << (max(lengths) - min(lengths)), 1 << max(lengths)
    gap = [top - (goal >> n) for n in lengths]
    every = (1 << len(ids)) - 1

    def extend(
        sub: int, frontier: int, banned: int, pos: int, neg: int,
        surplus: int, room: int,
    ) -> Optional[int]:
        if surplus < 0:  # every leaf below weighs less than 1
            return None
        if not room:
            if pos != neg:  # a pure literal: the subset is satisfiable
                return None
            leaf = [clauses[i] for i in _indices(sub)]
            return sub if solve_sets(leaf) is None else None
        candidates = (frontier if sub else every) & ~banned
        used = pos | neg
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            banned |= low
            x = low.bit_length() - 1
            if (used | variables[x]).bit_count() < target:
                # else every superset breaks the bound too
                found = extend(
                    sub | low, frontier | neighbors[x], banned,
                    pos | positive[x], neg | negative[x], surplus - gap[x],
                    room - 1,
                )
                if found is not None:
                    return found
        return None

    for target in range(1, min(k, len(ids)) + 1):
        found = extend(0, 0, 0, 0, 0, target * top - goal, target)
        if found is not None:
            return tuple(ids[j] for j in _indices(found))
    return None


def _indices(mask: int):
    """The positions of mask's set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
