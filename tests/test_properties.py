"""Property tests for the forcing test and the subset search on small
random formulas.

The forcing test's reference is the paper's reduction: search the two-reduct
split of the variable and map the witness back through the origin map.
``is_k_backbone`` must give that witness and its polarity on every formula,
unsatisfiable ones included, where both polarities are forced.  The subset
search's reference is the same enumeration on sets, without the variable
bound, the pure-literal leaf filter or the weight bound, and its witnesses
are checked to be minimally unsatisfiable.  The report's order phase is
checked against ``is_k_backbone`` and ``iterative_k_backbones``, and
``full_backbones`` against the truth table.  Examples are derandomized and
no example database is kept, so runs are repeatable.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    F,
    backbone_split,
    brute_k_backbone,
    brute_unsat_subset,
    tt_backbones,
    tt_satisfiable,
)
from satbones import (
    UnsatFormulaError,
    full_backbones,
    is_k_backbone,
    iterative_k_backbones,
    level_reduce,
    local_backbones,
    sus_search,
)
from satbones.backbones import backbone_orders
from satbones.generators import random_formula
from satbones.solver import solve_sets

SETTINGS = settings(derandomize=True, database=None, deadline=None)


@st.composite
def formulas(draw):
    """At most 5 variables, 7 clauses of width 1..3, no tautologies."""
    n = draw(st.integers(1, 5))
    clause = st.lists(
        st.integers(1, n), min_size=1, max_size=min(3, n), unique=True
    ).flatmap(lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)))
    return F(*draw(st.lists(clause, min_size=1, max_size=7)))


@st.composite
def formula_and_variable(draw):
    f = draw(formulas())
    return f, draw(st.sampled_from(sorted(f.variables)))


def split_reference(f, var, k):
    """(original clause ids, certified literal) via backbone_split, or None."""
    split, origin = backbone_split(f, var)
    found = sus_search(split, k)
    if found is None:
        return None
    (literal,) = {origin[cid][1] for cid in found}
    return tuple(origin[cid][0] for cid in found), literal


def as_pair(var, polarity, witness):
    return None if witness is None else (witness, var if polarity else -var)


@SETTINGS
@given(formula_and_variable(), st.integers(1, 4))
@example((F([1], [], [-1, 2]), 2), 2)
@example((F([-1, 2], [-1, -2], [1]), 1), 2)
@example((F([1, 2], [1, -2], [3]), 1), 3)
def test_witnesses_match_split_reference(case, k):
    f, var = case
    verdict, polarity, witness = is_k_backbone(f, var, k)
    expected = split_reference(f, var, k)
    assert verdict == (expected is not None)
    assert as_pair(var, polarity, witness) == expected


@SETTINGS
@given(formula_and_variable(), st.integers(1, 4))
def test_order_and_polarity_match_brute_force(case, k):
    f, var = case
    expected = brute_k_backbone(f, var, k)
    verdict, polarity, witness = is_k_backbone(f, var, k)
    assert verdict == (expected is not None)
    order = None if witness is None else len(witness)
    assert order == (None if expected is None else expected[0])
    if expected is not None and tt_satisfiable(f):
        # only a satisfiable formula forces a single polarity
        assert polarity == expected[1]


@SETTINGS
@given(formulas(), st.integers(1, 4))
def test_local_backbones_collect_accepted_variables(f, k):
    expected = {}
    for v in sorted(f.variables):
        verdict, polarity, _ = is_k_backbone(f, v, k)
        if verdict:
            expected[v] = polarity
    assert local_backbones(f, k) == expected


@SETTINGS
@given(formulas())
@example(F([1, 2], [1, -2], [-1, 3], [3, 4]))
@example(F([-1, 2]))
def test_full_backbones_match_truth_table(f):
    if tt_satisfiable(f):
        assert full_backbones(f) == tt_backbones(f)
    else:
        with pytest.raises(UnsatFormulaError):
            full_backbones(f)


@SETTINGS
@given(formulas(), st.integers(1, 5))
@example(random_formula("3cnf", 8, 30, 14), 5)
def test_backbone_orders_match_per_variable_references(f, kmax):
    if not tt_satisfiable(f):
        return
    backbone = full_backbones(f)
    witnesses, iterative = backbone_orders(f, backbone, kmax)
    assert witnesses == {
        v: is_k_backbone(f, v, kmax)[2] for v in sorted(backbone)
    }
    expected = {}
    for k in range(1, kmax + 1):
        for v in sorted(iterative_k_backbones(f, k).variables):
            expected.setdefault(v, k)
    assert iterative == expected


@SETTINGS
@given(formulas(), st.integers(0, 1))
def test_level_at_the_variable_count_forces_the_backbone(f, extra):
    # hardness is at most the variable count: at that level the probes are
    # exact, so the forced literals are the backbone, or the input collapses
    result = level_reduce(f, len(f.variables) + extra)
    if tt_satisfiable(f):
        backbone = tt_backbones(f)
        assert not result.contradiction
        assert result.forced == {v if backbone[v] else -v for v in backbone}
    else:
        assert result.contradiction


def assert_model_or_unsat(f):
    """solve_sets returns None exactly on unsatisfiable input, and otherwise
    a partial model that makes a literal of every clause true: full_backbones
    drops every variable a model leaves unassigned, which is sound only then.
    Returns whether the model is partial (None when unsatisfiable)."""
    model = solve_sets(f.literal_sets())
    assert (model is None) == (not tt_satisfiable(f))
    if model is None:
        return None
    assert all(
        any(model.get(abs(l)) == (l > 0) for l in c) for c in f.literal_sets()
    )
    return model.keys() < f.variables


@SETTINGS
@given(formulas())
def test_solve_sets_model_satisfies_every_clause(f):
    assert_model_or_unsat(f)


def test_solve_sets_partial_models_near_the_threshold():
    # 3-CNF 10/43 sits at the satisfiability threshold, so the DPLL
    # backtracks, and some of its models leave variables unassigned
    outcomes = {
        assert_model_or_unsat(random_formula("3cnf", 10, 43, seed))
        for seed in range(60)
    }
    assert outcomes == {None, False, True}


def test_iterative_orders_can_beat_orders_beyond_kmax():
    f = random_formula("3cnf", 8, 30, 14)
    witnesses, iterative = backbone_orders(f, full_backbones(f), 5)
    assert witnesses[6] is None and witnesses[3] is None
    assert iterative[6] == 4 and iterative[3] == 5


def _neighbors(star):
    """Clause id -> ascending ids of the other clauses sharing a variable."""
    by_var = {}
    for cid, c in star.items():
        for l in c:
            by_var.setdefault(abs(l), []).append(cid)
    adjacent = {cid: set() for cid in star}
    for ids in by_var.values():
        for cid in ids:
            adjacent[cid].update(ids)
    return {
        cid: tuple(sorted(peers - {cid})) for cid, peers in adjacent.items()
    }


def unpruned_minimum_search(formula, k):
    """sus_search without the variable bound, the pure-literal leaf filter
    or the weight bound, on sets instead of bitmasks: every connected subset
    of short clauses, in the same order, gets the SAT test; ascending clause
    ids or None."""
    star = {cid: c for cid, c in formula.clauses() if len(c) < k}
    for cid, c in star.items():
        if not c:
            return (cid,)
    if solve_sets(star.values()) is not None:
        return None
    neighbors = _neighbors(star)

    def extend(sub, banned, seed, target):
        if len(sub) == target:
            unsat = solve_sets([star[i] for i in sub]) is None
            return tuple(sorted(sub)) if unsat else None
        frontier = set()
        for member in sub:
            frontier.update(neighbors[member])
        candidates = sorted(
            x for x in frontier if x > seed and x not in banned and x not in sub
        )
        blocked = set(banned)
        for x in candidates:
            found = extend(sub + [x], blocked, seed, target)
            if found is not None:
                return found
            blocked.add(x)
        return None

    for target in range(1, min(k, len(star)) + 1):
        for seed in sorted(star):
            found = extend([seed], set(), seed, target)
            if found is not None:
                return found
    return None


@SETTINGS
@given(formulas(), st.integers(1, 5))
@example(F([1, 2], [], [-1]), 2)
@example(F([1, 2], [-1, 2], [1, -2], [-1, -2]), 4)
@example(F([1], [-1, 2], [-2]), 3)  # the heaviest clause is the unit's
def test_minimum_search_matches_unpruned_enumeration(f, k):
    found = sus_search(f, k)
    assert found == unpruned_minimum_search(f, k)
    expected = brute_unsat_subset(f, k)
    assert (found is None) == (expected is None)
    if found is not None:
        assert isinstance(found, tuple) and found == tuple(sorted(set(found)))
        assert len(found) == len(expected)


@SETTINGS
@given(formulas(), st.integers(1, 4))
@example(F([2, 4, -1], [3, -1], [-1], [1]), 4)
def test_search_witness_is_small_and_unsatisfiable(f, k):
    witness = sus_search(f, k)
    assert (witness is None) == (brute_unsat_subset(f, k) is None)
    if witness is not None:
        sub = f.subset(witness)
        assert not tt_satisfiable(sub)
        assert len(sub) <= k
        assert len(sub.variables) <= k - 1


@SETTINGS
@given(formulas(), st.integers(1, 4))
@example(F([1, 2], [1, -2], [-1, 2], [-1, -2]), 4)
@example(F([1], [-1, 2], [-2], [2, 3]), 3)
def test_search_witness_is_minimal_without_pure_literals(f, k):
    # the lemma behind sus_search's leaf filter: under iterative deepening
    # every witness is minimally unsatisfiable, hence has no pure literal
    ids = sus_search(f, k)
    if ids is None:
        return
    assert not tt_satisfiable(f.subset(ids))
    for cid in ids:
        assert tt_satisfiable(f.subset([i for i in ids if i != cid]))
    literals = {l for cid in ids for l in f.clause(cid)}
    assert all(-l in literals for l in literals)
