"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Corpora are seeded and
frozen; agreement criteria are exact (100%), runtime criteria use wall-clock
bounds.
"""

import random
import time

import pytest

from conftest import (
    F,
    add_guard_variable,
    backbone_split,
    brute_k_backbone,
    brute_unsat_subset,
    hyperpath_to_unitfree_horn,
    iterative_order,
    shortest_hyperpath,
    sus_bruteforce,
    ternary_collector,
    tt_satisfiable,
    unit_propagate,
)
from satbones import (
    UnsatFormulaError,
    build_report,
    classify,
    full_backbones,
    is_k_backbone,
    iterative_k_backbones,
    level_reduce,
    local_backbones,
    solve,
    sus_search,
)
from satbones.generators import (
    ColoredGraph,
    HyperpathInstance,
    colored_clique_to_hyperpath,
    hyperpath_to_definite_horn,
    implication_cycle,
    random_formula,
)
from satbones.horn import horn_consequences
from satbones.krom import krom_iterative_backbones


def small_mixed_formula(seed: int):
    """<= 8 clauses over <= 8 variables, widths 1..3; contradictions common."""
    rng = random.Random(31000 + seed)
    n = rng.randint(3, 8)
    m = rng.randint(3, 8)
    clauses = []
    for _ in range(m):
        width = rng.randint(1, min(3, n))
        vs = rng.sample(range(1, n + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return F(*clauses)


SMALL_CORPUS = [small_mixed_formula(seed) for seed in range(200)]

# witnesses produced by the searches, re-checked by criterion 10
_collected_witnesses: list = []


def _passed(number: int, message: str) -> None:
    print(f"[AC {number:>2}] PASS: {message}")


def test_criterion_01_sus_oracle_equivalence():
    start = time.perf_counter()
    agreements = 0
    for i, formula in enumerate(SMALL_CORPUS):
        k = i % 5 + 1
        expected = sus_bruteforce(formula, k)
        searched = sus_search(formula, k)
        assert (searched is None) == (expected is None), (i, k)
        for witness in (expected, searched):
            if witness is not None:
                assert len(witness) <= k
                assert not tt_satisfiable(formula.subset(witness))
                _collected_witnesses.append((formula, witness))
        agreements += 1
    elapsed = time.perf_counter() - start
    assert agreements == 200
    assert elapsed < 60.0
    _passed(1, f"200/200 verdict agreements between both searches "
               f"in {elapsed:.1f}s (< 60s)")


def test_criterion_02_reduction_round_trips():
    lifted_checked = 0
    split_checked = 0
    rng = random.Random(777)
    for i, formula in enumerate(SMALL_CORPUS):
        k = i % 4 + 1
        has_subset = brute_unsat_subset(formula, k) is not None

        lifted, z = add_guard_variable(formula)
        brute_lift = brute_k_backbone(lifted, z, k)
        assert (brute_lift is not None) == has_subset, (i, k)
        assert is_k_backbone(lifted, z, k)[0] == has_subset, (i, k)
        lifted_checked += 1

        x = rng.choice(sorted(formula.variables))
        is_local = brute_k_backbone(formula, x, k) is not None
        split, _ = backbone_split(formula, x)
        split_has_subset = brute_unsat_subset(split, k) is not None
        assert split_has_subset == is_local, (i, x, k)
        found = sus_search(split, k)
        assert (found is not None) == is_local, (i, x, k)
        if found is not None:
            _collected_witnesses.append((split, found))
        split_checked += 1
    assert lifted_checked == 200 and split_checked == 200
    _passed(2, "both reduction round-trips agree with brute force, 200/200 each")


def test_criterion_03_unit_propagation_identity():
    checked = 0
    seed = 0
    while checked < 200:
        formula = small_mixed_formula(10_000 + seed)
        seed += 1
        propagated = unit_propagate(formula)
        if propagated.conflict:
            # all three detect the contradiction consistently
            assert level_reduce(formula, 1).contradiction
            with pytest.raises(UnsatFormulaError):
                iterative_k_backbones(formula, 1)
            continue
        expected = set(propagated.forced)
        assert set(iterative_k_backbones(formula, 1).forced) == expected
        assert level_reduce(formula, 1).forced == expected
        checked += 1
    _passed(3, "iterative level-1 forced set = unit propagation = level-1 "
               "reduction on 200 conflict-free formulas")


def test_criterion_04_definite_horn_collapse():
    for seed in range(200):
        formula = random_formula("definite_horn", 8, 9, 20_000 + seed)
        entailed = horn_consequences(formula)
        for k in (1, 2, 5):
            assert iterative_k_backbones(formula, k).variables == entailed
    for seed in range(200):
        formula = random_formula(
            "definite_horn", 8, 9, 21_000 + seed, min_width=2
        )
        assert full_backbones(formula) == {}
    _passed(4, "definite Horn iterative sets equal forward chaining for "
               "k in {1,2,5} on 200 formulas; 200 unit-free formulas have "
               "no backbones")


def test_criterion_05_krom_equivalence():
    compared = 0
    seed = 0
    while compared < 200:
        rng = random.Random(30_000 + seed)
        n = rng.randint(4, 30)
        m = max(3, int(n * 1.1))
        formula = random_formula("krom", n, m, 30_000 + seed)
        seed += 1
        if solve(formula) is None:
            continue
        for k in (1, 2, 3, 4):
            assert (
                krom_iterative_backbones(formula, k).variables
                == iterative_k_backbones(formula, k).variables
            ), (seed, n, k)
        compared += 1
    _passed(5, "implication-path fixpoint matches the generic iterative "
               "algorithm for k in 1..4 on 200 satisfiable Krom formulas")


def test_criterion_06_cycle_family():
    start = time.perf_counter()
    for n in range(4, 9):
        formula = implication_cycle(n)
        assert full_backbones(formula) == {1: False}
        assert is_k_backbone(formula, 1, n) == (True, False, tuple(range(1, n + 1)))
        assert is_k_backbone(formula, 1, n - 1) == (False, None, None)
        assert iterative_order(formula, 1, n) == n
        for k in range(1, n):
            assert 1 not in iterative_k_backbones(formula, k).variables
        assert -1 in level_reduce(formula, 2).forced
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(6, f"cycle family n=4..8: backbone {{x1:-}}, order n, iterative "
               f"order n, level-2 catches -x1, in {elapsed:.1f}s (< 10s)")


def _triangle(missing=None):
    edges = {(10, 20), (10, 30), (20, 30)} - {missing}
    return ColoredGraph(colors={10: 1, 20: 2, 30: 3}, edges=frozenset(edges))


def test_criterion_07_clique_reduction_constants():
    wide = colored_clique_to_hyperpath(_triangle(), 3)
    assert wide.budget == 7 == 3 + 3 + 1
    assert shortest_hyperpath(wide.formula, wide.source, wide.target, 7) == 7
    gone = colored_clique_to_hyperpath(_triangle((10, 20)), 3)
    assert shortest_hyperpath(gone.formula, gone.source, gone.target, 7) is None

    ternary = ternary_collector(colored_clique_to_hyperpath(_triangle(), 3))
    assert ternary.budget == 10 == 3 + 2 * 3 + 1
    flags = classify(ternary.formula)
    assert flags.is_definite_horn and flags.max_clause_width <= 3
    assert shortest_hyperpath(
        ternary.formula, ternary.source, ternary.target, 10
    ) == 10
    gone3 = ternary_collector(colored_clique_to_hyperpath(_triangle((10, 20)), 3))
    assert shortest_hyperpath(
        gone3.formula, gone3.source, gone3.target, 10
    ) is None
    _passed(7, "planted triangle: budget 7 met exactly (wide) and 10 "
               "(ternary); edge-deleted instances have no hyperpath")


def _tiny_instances(count, seed_base):
    rng = random.Random(seed_base)
    out = []
    while len(out) < count:
        n = rng.randint(4, 6)
        m = rng.randint(2, 5)
        clauses = []
        for _ in range(m):
            body = rng.sample(range(1, n + 1), 2)
            head = rng.choice([v for v in range(1, n + 1) if v not in body])
            clauses.append([-body[0], -body[1], head])
        formula = F(*clauses)
        if len(formula) < m or len(formula.variables) < 2:
            continue
        s, t = rng.sample(sorted(formula.variables), 2)
        out.append(HyperpathInstance(formula, s, t, rng.randint(2, 4)))
    return out


def test_criterion_08_gadget_fidelity():
    for instance in _tiny_instances(50, 41_000):
        planted, target, budget = hyperpath_to_definite_horn(instance)
        units = [c for _, c in planted.clauses() if len(c) == 1]
        assert units == [frozenset({instance.source})]
        assert budget == instance.budget + 1
        has_path = shortest_hyperpath(
            instance.formula, instance.source, instance.target, instance.budget
        ) is not None
        assert is_k_backbone(planted, target, budget)[0] == has_path

    for instance in _tiny_instances(50, 42_000):
        planted, target_literal, budget = hyperpath_to_unitfree_horn(instance)
        flags = classify(planted)
        assert flags.is_horn and flags.is_nuhorn and flags.max_clause_width <= 3
        has_path = shortest_hyperpath(
            instance.formula, instance.source, instance.target, instance.budget
        ) is not None
        assert is_k_backbone(planted, abs(target_literal), budget)[0] == has_path
    _passed(8, "50 definite-Horn plantings (single unit clause, budget+1 "
               "answer) and 50 unit-free Horn plantings verified against "
               "is_k_backbone")


def test_criterion_09_containment_chain():
    instances = 0
    seed = 0
    while instances < 60:
        formula = small_mixed_formula(50_000 + seed)
        seed += 1
        if solve(formula) is None:
            continue
        instances += 1
        full = set(full_backbones(formula))
        previous_local: set = set()
        previous_iterative: set = set()
        for k in (1, 2, 3):
            local = set(local_backbones(formula, k))
            iterative = set(iterative_k_backbones(formula, k).variables)
            assert previous_local <= local
            assert previous_iterative <= iterative
            assert local <= iterative <= full
            previous_local, previous_iterative = local, iterative
        for k in (2, 3):
            forced = set(iterative_k_backbones(formula, k).forced)
            assert forced <= level_reduce(formula, k).forced
    _passed(9, "local and iterative sets monotone and nested inside the full "
               "backbones, iterative forced literals inside the level-k "
               "forced sets, on 60 satisfiable instances")


def test_criterion_10_minimal_witnesses_obey_clause_variable_inequality():
    pool = list(_collected_witnesses)
    # stand-alone coverage in case this criterion runs in isolation
    for seed in range(40):
        formula = small_mixed_formula(60_000 + seed)
        witness = sus_search(formula, 5)
        if witness is not None:
            pool.append((formula, witness))
    assert pool, "no witnesses to check"
    for formula, witness in pool:
        # every search returns a minimum witness, so none is minimized first
        sub = formula.subset(witness)
        assert len(sub) > len(sub.variables), (formula, witness)
        assert not tt_satisfiable(sub)
    _passed(10, f"{len(pool)} search witnesses all have more clauses "
                f"than variables, zero violations")


def test_criterion_11_report_pipeline():
    cycle = implication_cycle(6)
    first = build_report(cycle, 6, instance="cycle6")
    second = build_report(cycle, 6, instance="cycle6")
    assert first.to_json() == second.to_json()
    assert first.to_csv() == second.to_csv()
    rows = first.curve()
    assert [p for _, p, _ in rows] == [0.0, 0.0, 0.0, 0.0, 0.0, 100.0]
    assert [q for _, _, q in rows] == [0.0, 0.0, 0.0, 0.0, 0.0, 100.0]
    (record,) = [r for r in first.records if r.is_backbone]
    assert record.order == 6 and record.iterative_order == 6

    chain = F([1], [-1, 2], [-2, 3], [-3, 4], [-4, 5])
    assert classify(chain).is_definite_horn
    one = build_report(chain, 5, instance="chain5")
    two = build_report(chain, 5, instance="chain5")
    assert one.to_json() == two.to_json()
    assert one.to_csv() == two.to_csv()
    for (_, p1, q1), (_, p2, q2) in zip(one.curve(), one.curve()[1:]):
        assert p1 <= p2 and q1 <= q2
    for _, p, q in one.curve():
        assert q >= p
    orders = [r.order for r in one.records]
    iterative_orders = [r.iterative_order for r in one.records]
    assert orders == [1, 2, 3, 4, 5]
    assert iterative_orders == [1, 1, 1, 1, 1]
    _passed(11, "reports on the 6-cycle and a definite-Horn chain are "
                "byte-identical across runs with monotone curves and the "
                "exact orders")
