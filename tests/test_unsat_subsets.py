import random
import sys

import pytest

from conftest import F, brute_unsat_subset, sus_bruteforce, tt_satisfiable
from satbones import full_backbones, is_k_backbone, sus_search, unsat_subsets
from satbones.generators import random_formula


def small_corpus(count, seed_base=0):
    """Mixed-width random formulas small enough for the brute oracle."""
    rng = random.Random(9000 + seed_base)
    out = []
    for i in range(count):
        n = rng.randint(3, 6)
        m = rng.randint(3, 8)
        clauses = []
        for _ in range(m):
            width = rng.randint(1, min(3, n))
            vs = rng.sample(range(1, n + 1), width)
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        out.append(F(*clauses))
    return out


def test_bruteforce_finds_pair():
    w = sus_bruteforce(F([1], [-1]), 2)
    assert w == (1, 2)


def test_bruteforce_respects_k():
    assert sus_bruteforce(F([1], [-1]), 1) is None


def test_bruteforce_minimum_cardinality():
    f = F([1, 2], [1, -2], [-1, 2], [-1, -2])
    w = sus_bruteforce(f, 4)
    assert w == (1, 2, 3, 4)


def test_bruteforce_rejects_bad_k():
    with pytest.raises(ValueError):
        sus_bruteforce(F([1]), 0)


def test_search_chain_contradiction():
    w = sus_search(F([1], [-1, 2], [-2]), 3)
    assert w == (1, 2, 3)


def test_search_empty_clause_fast_path():
    f = F([1, 2], [])
    w = sus_search(f, 1)
    assert w == (2,)


def test_search_never_uses_wide_clauses():
    # only the two units form a witness; the wide clause is size >= k
    f = F([1, 2, 3], [4], [-4])
    for k in (2, 3):
        w = sus_search(f, k)
        assert w is not None
        assert all(len(f.clause(cid)) < k for cid in w)


def test_search_verdict_matches_bruteforce():
    corpus = small_corpus(80)
    for i, f in enumerate(corpus):
        k = i % 5 + 1
        got = sus_search(f, k)
        expected = sus_bruteforce(f, k)
        assert (got is None) == (expected is None)
        if got is not None:
            assert len(got) <= k
            assert not tt_satisfiable(f.subset(got))


def test_search_minimum_mode_matches_bruteforce_size():
    corpus = small_corpus(40, seed_base=1)
    for f in corpus:
        got = sus_search(f, 5)
        expected = sus_bruteforce(f, 5)
        assert (got is None) == (expected is None)
        if got is not None:
            assert len(got) == len(expected)


def test_witness_monotone_in_k():
    corpus = small_corpus(30, seed_base=2)
    for f in corpus:
        w = sus_search(f, 3)
        if w is None:
            continue
        for bigger in (4, 5):
            again = sus_search(f, bigger)
            assert again is not None
            assert not tt_satisfiable(f.subset(again))


def test_sus_search_bounded_occurrence_unit_pair():
    w = sus_search(F([1], [-1]), 2)
    assert w == (1, 2)


def test_sus_search_bounded_occurrence_witness_in_each_component():
    # two variable-disjoint contradictions
    f = F([1], [-1, 2], [-2], [3], [-3])
    w = sus_search(f, 3)
    assert w is not None
    assert not tt_satisfiable(f.subset(w))
    # restrict to the second component only: still found
    g = f.subset([4, 5])
    assert sus_search(g, 3) == (4, 5)


def test_sus_search_bounded_occurrence_matches_bruteforce():
    # the bounded-occurrence family needs no search of its own
    checked = 0
    for seed in range(120):
        f = random_formula("vo", 12, 7, seed, d=3)
        if seed % 2:
            # none of these draws has an unsatisfiable subset within k:
            # plant a 3-clause contradiction over fresh variables, which
            # keeps every variable within the occurrence bound
            f = F(*f.literal_sets(), [13], [-13, 14], [-14])
        k = seed % 5 + 1
        expected = sus_bruteforce(f, k)
        got = sus_search(f, k)
        assert (got is None) == (expected is None), (seed, k)
        if got is not None:
            checked += 1
            assert len(got) == len(expected)
    assert checked >= 30
    # the planted core's exact ids, next to noise over other variables
    f = F([1], [-1, 2], [-2], [3, 4], [5, 6])
    assert sus_search(f, 3) == (1, 2, 3)


def test_planted_core_is_recovered_exactly():
    # noise shares variables with the core but the core is the only
    # unsatisfiable subset of size <= 3
    f = F([1], [-1, 2], [-2], [2, 3], [-3, 4], [1, 4])
    assert sus_search(f, 3) == (1, 2, 3)


def test_minimized_witnesses_satisfy_clause_variable_inequality():
    corpus = small_corpus(60, seed_base=3)
    seen = 0
    for f in corpus:
        w = sus_search(f, 5)
        if w is None:
            continue
        seen += 1
        # a minimum witness is minimal, so nothing needs shrinking first
        sub = f.subset(w)
        assert len(sub) > len(sub.variables)
        assert not tt_satisfiable(sub)
    assert seen >= 10


def test_deficiency_bound_keeps_minimum_search_small(capped_sat_calls):
    # variable 2 is a negative backbone of f: search the reduct by +2, where
    # every 3-clause is a candidate at k=4 unless the variable bound prunes it
    f = random_formula("3cnf", 30, 125, 2)
    assert full_backbones(f)[2] is False
    assert sus_search(f.reduct((2,)), 4) is None


def test_deficiency_bound_keeps_order_at_kmax_5_small(capped_sat_calls):
    f = random_formula("3cnf", 12, 50, 1)
    backbones = full_backbones(f)
    assert len(backbones) == 11
    for v in sorted(backbones):
        assert is_k_backbone(f, v, 5) == (False, None, None)


def test_bounded_occurrence_search_stays_small(capped_sat_calls):
    # the `wide` benchmark's vo family: the connected-subset enumeration is
    # fixed-parameter tractable in k + d, and iterative deepening tests only
    # subsets of the target size, so k=4 and k=6 need few SAT calls
    for seed in range(6):
        f = random_formula("vo", 20, 50, seed, d=8)
        for k in (4, 6):
            sus_search(f, k)


def test_pure_literal_filter_keeps_sat_calls_few(monkeypatch):
    # a subset of the target size is SAT-tested only when every variable in
    # it occurs in both polarities; without that filter these ten searches
    # make 5,083 SAT calls
    calls = []
    solve = unsat_subsets.solve_sets

    def counted(clause_sets):
        calls.append(None)
        return solve(clause_sets)

    monkeypatch.setattr(unsat_subsets, "solve_sets", counted)
    for seed in range(10):
        sus_search(random_formula("3cnf", 12, 70, seed), 6)
    assert len(calls) <= 1500


@pytest.mark.parametrize(
    "seed,literal,sat_calls,witness",
    [
        (1, 1, 1, None),  # the short clauses are satisfiable: one SAT call
        (14, 2, 1, None),  # no leaf without a pure literal
        (18, -1, 113, None),  # every target up to 5, no witness
        (25, -8, 2, (25, 35, 40, 45)),
        (13, 6, 2, (9, 10, 23, 27, 49)),
        (16, -2, 4, (1, 6, 8, 20, 50)),
    ],
)
def test_sus_search_sat_tests_exactly_these_leaves(
    monkeypatch, seed, literal, sat_calls, witness
):
    # which leaves get the SAT test, pinned by their count on reducts of
    # random 3-CNF 12/50: a connected subset reached from two seeds, or a
    # leaf the filters should drop, changes the count even where the
    # witness stays the same
    calls = []
    solve = unsat_subsets.solve_sets

    def counted(clause_sets):
        calls.append(None)
        return solve(clause_sets)

    monkeypatch.setattr(unsat_subsets, "solve_sets", counted)
    formula = random_formula("3cnf", 12, 50, seed).reduct((literal,))
    assert sus_search(formula, 5) == witness
    assert len(calls) == sat_calls


@pytest.mark.parametrize(
    "width,k,witness",
    [
        (3, 8, tuple(range(1, 9))),
        (3, 7, None),  # the eight 3-clauses cannot fit in 7
        (2, 4, (1, 2, 3, 4)),
        (2, 3, None),
    ],
)
def test_weight_bound_keeps_a_leaf_of_weight_exactly_one(width, k, witness):
    # every clause over `width` variables: 2^width clauses of weight
    # 2^-width sum to exactly 1, so the bound must cut below 1, not at it
    clauses = [
        [v if (bits >> (v - 1)) & 1 else -v for v in range(1, width + 1)]
        for bits in range(2**width)
    ]
    assert sus_search(F(*clauses), k) == witness


def test_weight_bound_cuts_subtrees_of_satisfiable_leaves(monkeypatch):
    # reducts of random 3-CNF 5/21, the random-deep shape: a binary clause
    # weighs 1/4 and a ternary one 1/8, so at k = 4 every target below 4 is
    # skipped at its root and a subtree is cut as soon as its leaves cannot
    # weigh 1.  The witnesses stay those of brute force, the leaves that get
    # the SAT test stay the 154 of the leaf-only weight filter, and the
    # extend frames fall from that filter's 8,405 to 3,000
    calls = []
    solve = unsat_subsets.solve_sets

    def counted(clause_sets):
        calls.append(None)
        return solve(clause_sets)

    monkeypatch.setattr(unsat_subsets, "solve_sets", counted)
    extend = next(
        c for c in sus_search.__code__.co_consts
        if getattr(c, "co_name", None) == "extend"
    )
    frames = 0

    def profile(frame, event, arg):
        nonlocal frames
        frames += event == "call" and frame.f_code is extend

    witnesses = 0
    for seed in range(8):
        f = random_formula("3cnf", 5, 21, seed)
        for v in sorted(f.variables):
            for lit in (v, -v):
                reduct = f.reduct((lit,))
                previous = sys.getprofile()
                sys.setprofile(profile)
                try:
                    witness = sus_search(reduct, 4)
                finally:
                    sys.setprofile(previous)
                assert witness == sus_bruteforce(reduct, 4)
                witnesses += witness is not None
    assert witnesses
    assert len(calls) == 154
    assert frames == 3000 < 8405 // 2
