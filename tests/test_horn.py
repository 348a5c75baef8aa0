import pytest

from conftest import F, tt_entails
from satbones import (
    FormulaClassError,
    full_backbones,
    iterative_k_backbones,
)
from satbones.generators import random_formula
from satbones.horn import horn_consequences


def test_consequences_chain():
    assert horn_consequences(F([1], [-1, 2])) == {1, 2}


def test_consequences_need_a_unit_seed():
    assert horn_consequences(F([-1, 2])) == frozenset()


def test_consequences_blocked_body():
    # the last clause needs variable 3, which is never derived
    f = F([1], [-1, 2], [-2, -3, 4])
    assert horn_consequences(f) == {1, 2}


def test_consequences_match_entailment():
    for seed in range(60):
        f = random_formula("definite_horn", 7, 9, seed)
        derived = horn_consequences(f)
        for v in sorted(f.variables):
            assert (v in derived) == tt_entails(f, v)


def test_class_violation_rejected():
    with pytest.raises(FormulaClassError):
        horn_consequences(F([1, 2]))
    with pytest.raises(FormulaClassError):
        horn_consequences(F([-1, -2]))


def test_iterative_backbones_do_not_depend_on_k():
    for seed in range(30):
        f = random_formula("definite_horn", 6, 8, seed)
        entailed = horn_consequences(f)
        assert iterative_k_backbones(f, 1).variables == entailed
        assert iterative_k_backbones(f, 7).variables == entailed


def test_iterative_backbones_match_generic_algorithm():
    for seed in range(50):
        f = random_formula("definite_horn", 6, 8, seed)
        expected = horn_consequences(f)
        assert iterative_k_backbones(f, 2).variables == expected


def test_generic_algorithm_forces_only_positive_literals():
    for seed in range(30):
        f = random_formula("definite_horn", 6, 8, seed)
        assert all(l > 0 for l in iterative_k_backbones(f, 3).forced)


def test_unit_free_definite_horn_has_no_backbones():
    for seed in range(40):
        f = random_formula("definite_horn", 7, 8, seed, min_width=2)
        assert full_backbones(f) == {}
        assert horn_consequences(f) == frozenset()
        # both constant assignments satisfy such formulas
        assert all(any(l > 0 for l in c) for c in f.literal_sets())
        assert all(any(l < 0 for l in c) for c in f.literal_sets())


def test_entailment_oracle_cross_check_small():
    f = F([1], [-1, 2], [-2, 3], [-4, 5])
    derived = horn_consequences(f)
    for v in sorted(f.variables):
        assert (v in derived) == tt_entails(f, v)
