import random

import pytest

from conftest import F, brute_unsat_subset, tt_backbones, tt_satisfiable
from satbones import classify, full_backbones, is_k_backbone, solve
from satbones.generators import (
    ColoredGraph,
    HyperpathInstance,
    InfeasibleParameters,
    add_guard_variable,
    colored_clique_to_hyperpath,
    hyperpath_to_definite_horn,
    hyperpath_to_unitfree_horn,
    implication_cycle,
    is_k_hyperpath,
    random_formula,
    shortest_hyperpath,
)


def triangle(missing_edge=None):
    edges = {(10, 20), (10, 30), (20, 30)} - {missing_edge}
    return ColoredGraph(colors={10: 1, 20: 2, 30: 3}, edges=frozenset(edges))


def tiny_hyperpath_instances(count, seed_base=0):
    """Random ternary-width, unit-free definite Horn hyperpath questions."""
    rng = random.Random(7700 + seed_base)
    out = []
    while len(out) < count:
        n = rng.randint(4, 6)
        m = rng.randint(2, 5)
        clauses = []
        for _ in range(m):
            body = rng.sample(range(1, n + 1), 2)
            head = rng.choice([v for v in range(1, n + 1) if v not in body])
            clauses.append([-body[0], -body[1], head])
        try:
            formula = F(*clauses)
        except ValueError:
            continue
        if len(formula) < m or len(formula.variables) < 2:
            continue
        s, t = rng.sample(sorted(formula.variables), 2)
        out.append(HyperpathInstance(formula, s, t, rng.randint(2, 4)))
    return out


def test_guard_variable_turns_contradiction_into_backbone():
    lifted, z = add_guard_variable(F([1], [-1]))
    assert lifted.clauses() == ((1, frozenset({1, z})), (2, frozenset({-1, z})))
    verdict, polarity, witness = is_k_backbone(lifted, z, 2)
    assert verdict and polarity is True
    assert witness == (1, 2)


def test_guard_variable_never_occurs_negated():
    f = random_formula("3cnf", 5, 7, 3)
    lifted, z = add_guard_variable(f)
    assert all(-z not in c for _, c in lifted.clauses())
    assert all(z in c for _, c in lifted.clauses())


def test_guard_variable_of_satisfiable_formula_is_never_a_backbone():
    for seed in range(20):
        f = random_formula("krom", 5, 6, seed)
        if solve(f) is None:
            continue
        lifted, z = add_guard_variable(f)
        assert z not in tt_backbones(lifted)


def test_guard_variable_equivalence_with_unsat_subsets():
    rng = random.Random(12)
    for seed in range(40):
        n, m = rng.randint(3, 5), rng.randint(3, 7)
        clauses = []
        for _ in range(m):
            vs = rng.sample(range(1, n + 1), rng.randint(1, 2))
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        f = F(*clauses)
        k = rng.randint(1, 4)
        lifted, z = add_guard_variable(f)
        has_subset = brute_unsat_subset(f, k) is not None
        verdict, _, _ = is_k_backbone(lifted, z, k)
        assert verdict == has_subset, (seed, k)


def test_hyperpath_base_case():
    f = F([-1, 2])
    assert is_k_hyperpath(f, [], 1, 1, 0)


def test_hyperpath_three_clause_example():
    # derive t=4 from s=1 through both 2 and 3
    f = F([-1, 2], [-1, 3], [-2, -3, 4])
    assert is_k_hyperpath(f, [1, 2, 3], 1, 4, 3)
    assert not is_k_hyperpath(f, [1, 2, 3], 1, 4, 2)
    assert not is_k_hyperpath(f, [1, 3], 1, 4, 3)


def test_hyperpath_unreachable_body():
    f = F([-2, 3])
    assert not is_k_hyperpath(f, [1], 1, 3, 1)


def test_hyperpath_headless_clause_rejected():
    from satbones import FormulaClassError

    f = F([-1, -2])
    with pytest.raises(FormulaClassError):
        is_k_hyperpath(f, [1], 1, 2, 1)


def test_shortest_hyperpath_examples():
    f = F([-1, 2], [-1, 3], [-2, -3, 4])
    assert shortest_hyperpath(f, 1, 4, 4) == 3
    assert shortest_hyperpath(f, 1, 1, 4) == 0
    assert shortest_hyperpath(f, 4, 1, 4) is None


def test_shortest_hyperpath_agrees_with_forward_chaining():
    from satbones import horn_consequences

    for seed in range(40):
        f = random_formula("definite_horn", 6, 7, seed, min_width=2)
        variables = sorted(f.variables)
        rng = random.Random(seed)
        s, t = rng.sample(variables, 2)
        seeded = F([s], *[sorted(c, key=abs) for _, c in f.clauses()])
        reachable = t in horn_consequences(seeded)
        assert (shortest_hyperpath(f, s, t, len(f)) is not None) == reachable


def test_triangle_reduction_wide_mode():
    inst = colored_clique_to_hyperpath(triangle(), 3)
    assert inst.budget == 7
    assert len(inst.formula) == 7
    assert shortest_hyperpath(inst.formula, inst.source, inst.target, 7) == 7


def test_triangle_reduction_missing_edge_has_no_hyperpath():
    inst = colored_clique_to_hyperpath(triangle(missing_edge=(10, 20)), 3)
    assert shortest_hyperpath(inst.formula, inst.source, inst.target, inst.budget) is None


def test_triangle_reduction_ternary_mode():
    inst = colored_clique_to_hyperpath(triangle(), 3, three_cnf=True)
    assert inst.budget == 10
    flags = classify(inst.formula)
    assert flags.is_definite_horn and flags.max_clause_width <= 3
    assert shortest_hyperpath(inst.formula, inst.source, inst.target, 10) == 10
    missing = colored_clique_to_hyperpath(triangle((20, 30)), 3, three_cnf=True)
    assert shortest_hyperpath(missing.formula, missing.source, missing.target, 10) is None


def test_colored_graph_rejects_monochrome_edge():
    with pytest.raises(ValueError):
        ColoredGraph(colors={1: 1, 2: 1}, edges=frozenset({(1, 2)}))


def test_clique_reduction_requires_full_color_range():
    with pytest.raises(ValueError):
        colored_clique_to_hyperpath(ColoredGraph(colors={1: 1, 2: 3}), 3)


def test_definite_horn_planting():
    for inst in tiny_hyperpath_instances(25):
        planted, target, budget = hyperpath_to_definite_horn(inst)
        units = [c for _, c in planted.clauses() if len(c) == 1]
        assert units == [frozenset({inst.source})]
        assert budget == inst.budget + 1
        has_path = (
            shortest_hyperpath(inst.formula, inst.source, inst.target, inst.budget)
            is not None
        )
        verdict, polarity, _ = is_k_backbone(planted, target, budget)
        assert verdict == has_path
        if verdict:
            assert polarity is True


def test_unitfree_horn_planting():
    for inst in tiny_hyperpath_instances(25, seed_base=1):
        planted, target_literal, budget = hyperpath_to_unitfree_horn(inst)
        flags = classify(planted)
        assert flags.is_horn and flags.is_nuhorn
        assert flags.max_clause_width <= 3
        assert all(len(c) >= 2 for _, c in planted.clauses())
        has_path = (
            shortest_hyperpath(inst.formula, inst.source, inst.target, inst.budget)
            is not None
        )
        verdict, polarity, _ = is_k_backbone(planted, abs(target_literal), budget)
        assert verdict == has_path
        if verdict:
            assert polarity is (target_literal > 0)


def test_unitfree_transform_rejects_units():
    bad = HyperpathInstance(F([1], [-1, -2, 3]), 1, 3, 2)
    with pytest.raises(ValueError):
        hyperpath_to_unitfree_horn(bad)


def test_unitfree_transform_rejects_short_target_clause():
    bad = HyperpathInstance(F([-1, 3], [-1, -2, 3]), 1, 3, 2)
    with pytest.raises(ValueError):
        hyperpath_to_unitfree_horn(bad)


def test_unitfree_transform_output_not_definite_when_head_dropped():
    inst = HyperpathInstance(F([-1, 2], [-1, 3], [-2, -3, 4]), 1, 4, 3)
    planted, _, _ = hyperpath_to_unitfree_horn(inst)
    flags = classify(planted)
    assert flags.is_horn and not flags.is_definite_horn


def test_implication_cycle_smallest():
    assert implication_cycle(2) == F([-1, 2], [-2, -1])
    with pytest.raises(ValueError):
        implication_cycle(1)


def test_implication_cycle_backbones_by_enumeration():
    for n in (3, 5, 6):
        f = implication_cycle(n)
        assert tt_backbones(f) == {1: False}
        assert full_backbones(f) == {1: False}


def test_random_formula_deterministic():
    a = random_formula("3cnf", 10, 20, 99)
    b = random_formula("3cnf", 10, 20, 99)
    assert a == b
    assert a != random_formula("3cnf", 10, 20, 100)


@pytest.mark.parametrize(
    "family,kwargs,check",
    [
        ("3cnf", {}, lambda fl: fl.max_clause_width == 3),
        ("krom", {}, lambda fl: fl.is_krom),
        ("horn", {}, lambda fl: fl.is_horn),
        ("definite_horn", {}, lambda fl: fl.is_definite_horn),
        ("vo", {"d": 3}, lambda fl: fl.max_occurrence <= 3),
    ],
)
def test_random_formula_class_guarantee(family, kwargs, check):
    for seed in range(15):
        f = random_formula(family, 12, 8, seed, **kwargs)
        assert len(f) == 8
        assert check(classify(f))


def test_random_formula_min_width():
    f = random_formula("definite_horn", 8, 10, 1, min_width=2)
    assert all(len(c) >= 2 for _, c in f.clauses())


def test_random_formula_infeasible_parameters():
    with pytest.raises(InfeasibleParameters):
        random_formula("vo", 3, 50, 0, d=2)
    with pytest.raises(InfeasibleParameters):
        random_formula("3cnf", 2, 5, 0)
    with pytest.raises(InfeasibleParameters):
        random_formula("nonsense", 5, 5, 0)


@pytest.mark.parametrize("family", ["3cnf", "krom", "horn", "definite_horn"])
def test_random_formula_refuses_occurrence_bound_outside_vo(family):
    # d bounds only family vo; elsewhere it would change the draw and be
    # recorded in the sidecar while bounding nothing
    with pytest.raises(InfeasibleParameters):
        random_formula(family, 10, 30, 1, d=2)


def test_phase_transition_ratio_mixes_verdicts():
    verdicts = {
        solve(random_formula("3cnf", 30, 128, seed)) is None
        for seed in range(12)
    }
    assert verdicts == {True, False}
