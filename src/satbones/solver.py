"""A small complete satisfiability engine: splitting plus unit propagation.

Deliberately plain (no clause learning, static lowest-variable branching) so
it can double as the trusted oracle behind every entailment and
unsatisfiable-subset check in this package.  One propagation pass that
copies the clause list runs at the root; below it, the search runs on a
clause index and undoes a trail on backtracking, with the branching and the
models of a search that copies at every node.  The search starts from the
index and the trail its caller hands it: ``solve_sets`` hands it a fresh
index, and ``_refuter``, which serves the levelled unit propagation's
probes, one index per clause set, on which each probe asserts a literal
and propagates; in a complete refuter, a probe that propagation leaves
open goes on to the search from that trail.  One routine, ``_assign``,
undoes a trail and asserts and propagates literals on an index for both; it
is a plain function, because a class or a closure that keeps the counters
slowed the search by 4 to 7%.  The root pass stays the copying one: most
calls here are tiny, and the 11,112 calls of a seed-0 ``structured``
benchmark pass took 54 to 59% longer when the root pass ran on the index as
well.  Desk-scale instances only.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

from .formula import CnfFormula

Assignment = dict[int, bool]


class UnsatFormulaError(Exception):
    """The input is unsatisfiable: raised where a satisfiable formula is
    required, and where an iterative analysis reaches a contradiction."""


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
    with unit propagation at every node.  One pass of ``_propagate`` at the
    root decides every call that ends there, by a conflict or by satisfying
    every clause; the clauses it leaves go to ``_search``.  The model is the
    root's units plus the literals the search assigns."""
    clauses, model = _propagate(list(clause_sets))
    if clauses is None:
        return None
    if clauses:
        trail: list[int] = []
        if not _search(clauses, *_index(clauses), {}, trail):
            return None
        for lit in trail:
            model[abs(lit)] = lit > 0
    return model


def _index(
    clauses: list[frozenset[int]],
) -> tuple[defaultdict[int, list[int]], list[int], list[int]]:
    """The index ``_assign`` works on, with nothing assigned: the clause
    positions of each literal, and per clause its count of true literals
    and of unassigned ones."""
    occurs: defaultdict[int, list[int]] = defaultdict(list)
    for i, c in enumerate(clauses):
        for lit in c:
            occurs[lit].append(i)
    return occurs, [0] * len(clauses), list(map(len, clauses))


def _assign(
    clauses: list[frozenset[int]],
    occurs: defaultdict[int, list[int]],
    units: Sequence[int],
    true: list[int],
    free: list[int],
    value: dict[int, bool],
    trail: list[int],
    mark: int,
    probe: int,
) -> bool:
    """Undo the trail back to length mark, assert probe and then units, and
    propagate; returns whether a clause emptied.

    The one routine that asserts a literal on a clause index: occurs lists
    the clause positions of each literal, and per clause true counts its
    true literals and free its unassigned ones, so asserting a literal
    touches only the clauses that hold it or its complement.  A clause with
    no true literal and one unassigned literal queues that literal.  value
    holds both literals of every assigned variable, and the trail lists the
    assigned literals in order.  Propagation stops at the first empty
    clause; the trail stays as it is for a later call to undo."""
    for lit in trail[mark:]:
        del value[lit], value[-lit]
        for c in occurs[lit]:
            true[c] -= 1
        for c in occurs[-lit]:
            free[c] += 1
    del trail[mark:]
    # the probe is popped first: a unit clause it falsifies then empties
    queue = [*units, probe]
    conflict = False
    while queue and not conflict:
        lit = queue.pop()
        if lit in value:
            continue  # queued twice: had it been false, the clause that
            # queued it would be empty, a conflict already found
        value[lit] = True
        value[-lit] = False
        trail.append(lit)
        for c in occurs[lit]:
            true[c] += 1
        # a conflict waits until every count is updated, so that undoing lit
        # restores them all
        for c in occurs[-lit]:
            free[c] -= 1
            if not true[c]:
                if free[c] == 1:
                    for unit in clauses[c]:
                        if unit not in value:
                            queue.append(unit)
                            break
                elif not free[c]:
                    conflict = True
    return conflict


def _search(
    clauses: list[frozenset[int]],
    occurs: defaultdict[int, list[int]],
    true: list[int],
    free: list[int],
    value: dict[int, bool],
    trail: list[int],
) -> bool:
    """The search from the trail its caller hands it: whether a model
    extends the trail's assignment.

    The index (occurs, true and free, as ``_assign`` keeps them) holds the
    trail's literals, in value and in the counts, and propagation from
    them has ended without a conflict.  ``_assign`` asserts each decision
    and each flipped decision on that index.  Each decision records the
    trail length before it; on a conflict the decisions whose both
    branches failed are popped without undoing anything, and asserting the
    flipped decision undoes the trail back to its mark in one step.  No
    recursion: the decisions live on an explicit stack.  On success the
    trail lists the model's literals in order, the given ones first; on
    failure it is left as it stands, for the caller's next ``_assign`` to
    undo.

    The branch variable is the lowest unassigned variable of a clause
    without a true literal, the one a search that drops satisfied clauses
    picks.  A clause stays satisfied while the search descends, so the scan
    of the sorted variables resumes at the parent's branch variable and
    moves back only when the search backtracks."""
    order = sorted(set(map(abs, occurs)))
    decisions: list[tuple[int, int, int]] = []  # (trail length, scan, literal)
    scan = 0
    while True:
        for scan in range(scan, len(order)):
            v = order[scan]
            if v not in value and not (
                all(map(true.__getitem__, occurs[v]))
                and all(map(true.__getitem__, occurs[-v]))
            ):
                break
        else:
            return True
        mark, lit = len(trail), v
        decisions.append((mark, scan, lit))
        while _assign(clauses, occurs, (), true, free, value, trail, mark, lit):
            while decisions and decisions[-1][2] < 0:
                decisions.pop()
            if not decisions:
                return False
            mark, scan, lit = decisions.pop()
            lit = -lit
            decisions.append((mark, scan, lit))


def _refuter(
    clauses: Iterable[frozenset[int]], complete: bool = False
) -> Callable[[int], bool]:
    """A test of whether the clauses with one literal asserted are refuted:
    by unit propagation, or, when complete, by unit propagation and then
    ``_search``, that is, whether they are unsatisfiable.

    The clauses hold no empty clause.  They are indexed once, and each
    probe is one ``_assign`` call on that index: it undoes the previous
    probe's trail, asserts the probed literal and then the clauses' own
    unit literals, and propagates, so one index serves every probe.  A
    complete probe that propagation leaves open searches from that trail
    on the same index, and the next probe undoes the search's trail too."""
    clauses = list(clauses)
    units = [lit for c in clauses if len(c) == 1 for lit in c]
    occurs, true, free = _index(clauses)
    value: dict[int, bool] = {}
    trail: list[int] = []
    refuted = partial(_assign, clauses, occurs, units, true, free, value, trail, 0)
    if not complete:
        return refuted
    return lambda lit: refuted(lit) or not _search(
        clauses, occurs, true, free, value, trail
    )


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
    """All variables with one truth value across all models, with that value,
    in ascending variable order.

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
