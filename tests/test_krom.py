import pytest

from conftest import F
from satbones import (
    FormulaClassError,
    UnsatFormulaError,
    iterative_k_backbones,
    solve,
)
from satbones.generators import random_formula
from satbones.krom import ImplicationGraph, krom_iterative_backbones


def edges_of(graph):
    return {
        (src, dst, cid)
        for src, targets in graph.edges.items()
        for dst, cid in targets
    }


def test_graph_edges_for_binary_clause():
    graph = ImplicationGraph(F([1, 2]))
    assert edges_of(graph) == {(-1, 2, 1), (-2, 1, 1)}


def test_graph_self_edge_for_unit_clause():
    graph = ImplicationGraph(F([1]))
    assert edges_of(graph) == {(-1, 1, 1)}


def test_graph_skew_symmetry_and_edge_bound():
    for seed in range(30):
        f = random_formula("krom", 8, 10, seed)
        graph = ImplicationGraph(f)
        edges = edges_of(graph)
        assert all((-dst, -src, cid) in edges for src, dst, cid in edges)
        assert len(edges) <= 2 * len(f)


def test_graph_rejects_wide_formula():
    with pytest.raises(FormulaClassError):
        ImplicationGraph(F([1, 2, 3]))


def test_iterative_two_edge_path_forces_variable():
    result = krom_iterative_backbones(F([1, 2], [1, -2]), 2)
    assert result.variables == {1}
    assert result.forced == (1,)


def test_iterative_single_clause_forces_nothing():
    for k in (1, 3, 5):
        assert krom_iterative_backbones(F([1, 2]), k).variables == frozenset()


def test_iterative_needs_long_enough_paths():
    # forcing 1 requires the two-edge path; k=1 sees nothing
    f = F([1, 2], [1, -2])
    assert krom_iterative_backbones(f, 1).variables == frozenset()


def test_iterative_unsat_detected():
    with pytest.raises(UnsatFormulaError):
        krom_iterative_backbones(F([1], [-1]), 1)


def test_iterative_matches_generic_algorithm():
    compared = 0
    for seed in range(80):
        f = random_formula("krom", 8, 10, seed)
        if solve(f) is None:
            continue
        compared += 1
        for k in (1, 2, 3):
            krom = krom_iterative_backbones(f, k)
            generic = iterative_k_backbones(f, k)
            assert krom.variables == generic.variables, (seed, k)
            assert frozenset(krom.forced) == frozenset(generic.forced), (seed, k)
    assert compared >= 40
