import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import F
from satbones import (
    CnfFormula,
    ComplementaryLiteralsError,
    TautologicalClauseError,
    classify,
)
from satbones.generators import random_formula


def test_clause_rejects_complementary_pair():
    with pytest.raises(TautologicalClauseError):
        F([1, -1])


def test_duplicate_literals_collapse():
    f = F([1, 1, 2])
    assert f.clause(1) == frozenset({1, 2})


def test_duplicate_clauses_collapse_first_id_wins():
    f = CnfFormula({1: [1, 2], 2: [2, 1], 3: [-1]})
    assert f.clause_ids() == (1, 3)
    assert len(f) == 2


def test_counts_and_length():
    f = F([1, 2, 3], [-1, 2], [3])
    assert len(f) == 3
    assert f.length == 6


def test_literals_include_both_polarities():
    f = F([1, 2])
    assert f.literals == frozenset({1, -1, 2, -2})


def test_empty_clause_allowed():
    f = F([])
    assert f.empty_clause_id() is not None
    assert f.empty_clause_id() == 1
    assert f.variables == frozenset()


def test_reduct_unit_propagation_step():
    f = F([1], [-1, 2])
    assert f.reduct([1]) == CnfFormula({2: [2]})


def test_reduct_occurrence_removal():
    f = F([1, 2])
    assert f.reduct([-2]) == CnfFormula({1: [1]})


def test_reduct_produces_empty_clause():
    f = F([-1])
    reduced = f.reduct([1])
    assert reduced.empty_clause_id() is not None
    assert reduced.clause_ids() == (1,)


def test_reduct_rejects_complementary_assertions():
    with pytest.raises(ComplementaryLiteralsError):
        F([1, 2]).reduct([1, -1])


def test_reduct_preserves_clause_ids():
    f = F([1, 2], [3, 4], [-1, 3])
    reduced = f.reduct([-1])
    assert reduced.clause_ids() == (1, 2)
    assert reduced.clause(1) == frozenset({2})
    assert reduced.clause(2) == frozenset({3, 4})


@st.composite
def formulas_and_assertions(draw):
    """Up to 9 clauses of width 0..3 over at most 5 variables, under gappy
    ids, and a non-complementary literal set that may name absent
    variables."""
    n = draw(st.integers(1, 5))
    clause = st.lists(
        st.integers(1, n), max_size=min(3, n), unique=True
    ).flatmap(lambda vs: st.tuples(*(st.sampled_from((v, -v)) for v in vs)))
    ids = draw(st.lists(st.integers(1, 40), max_size=9, unique=True))
    clauses = {cid: draw(clause) for cid in ids}
    variables = draw(st.lists(st.integers(1, n + 1), max_size=4, unique=True))
    asserted = [draw(st.sampled_from((v, -v))) for v in variables]
    return CnfFormula(clauses, {1: "a", 2: "b"}), asserted


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(formulas_and_assertions())
def test_reduct_equals_constructor_on_stripped_clauses(case):
    f, asserted = case
    reduced = f.reduct(asserted)
    expected = CnfFormula(
        {
            cid: c - {-l for l in asserted}
            for cid, c in f.clauses()
            if not c & set(asserted)
        },
        f.var_names,
    )
    assert reduced.clauses() == expected.clauses()
    assert reduced == expected and hash(reduced) == hash(expected)
    assert (reduced.empty_clause_id() is not None) == (
        expected.empty_clause_id() is not None
    )
    assert reduced.empty_clause_id() == expected.empty_clause_id()
    assert reduced.var_names == f.var_names


def test_reduct_collision_keeps_smallest_id():
    # both clauses strip to {1}; the constructor keeps the smaller id
    reduced = CnfFormula({1: [1, 3], 2: [1, -2]}).reduct([-3, 2])
    assert reduced.clauses() == ((1, frozenset({1})),)
    # a clause the assertion leaves alone still yields to an earlier one
    unchanged = CnfFormula({1: [1, -2], 2: [1], 3: [-1, 3]}).reduct([2])
    assert unchanged.clauses() == ((1, frozenset({1})), (3, frozenset({-1, 3})))


def test_reduct_variable_shrinkage_random():
    rng = random.Random(7)
    for trial in range(50):
        f = random_formula("3cnf", 6, 8, trial)
        lits = [v if rng.random() < 0.5 else -v for v in sorted(f.variables)]
        asserted = rng.sample(lits, 2)
        reduced = f.reduct(asserted)
        assert reduced.variables <= f.variables - {abs(l) for l in asserted}


@pytest.mark.parametrize(
    "family,kwargs,flag",
    [
        ("horn", {}, "is_horn"),
        ("krom", {}, "is_krom"),
        ("definite_horn", {}, "is_definite_horn"),
    ],
)
def test_class_closure_under_instantiation(family, kwargs, flag):
    for seed in range(30):
        f = random_formula(family, 8, 8, seed, **kwargs)
        lit = min(f.literals, key=abs)
        assert getattr(classify(f.reduct([lit])), flag)


def test_vo_closure_under_instantiation():
    for seed in range(30):
        f = random_formula("vo", 14, 8, seed, d=3)
        d = classify(f).max_occurrence
        lit = min(f.literals, key=abs)
        assert classify(f.reduct([lit])).max_occurrence <= d


def test_classify_horn_example():
    flags = classify(F([-1, -2, 3]))
    assert flags.is_horn and flags.is_definite_horn
    assert flags.max_clause_width == 3
    assert flags.max_occurrence == 1
    assert not flags.is_krom


def test_classify_two_positive_literals():
    flags = classify(F([1, 2]))
    assert flags.is_krom
    assert not flags.is_horn
    assert not flags.is_nuhorn


def test_classify_negative_binary_clause():
    flags = classify(F([-1, -2]))
    assert flags.is_horn and flags.is_nuhorn and flags.is_krom
    assert not flags.is_definite_horn


def test_satisfied_by_requires_total_assignment():
    f = F([1, 2])
    assert f.satisfied_by({1: True, 2: False})
    assert not f.satisfied_by({1: False, 2: False})
    with pytest.raises(ValueError):
        f.satisfied_by({1: True})


def test_formula_equality_and_hash():
    a = F([1, 2], [-1])
    b = CnfFormula({1: [2, 1], 2: [-1]})
    assert a == b
    assert hash(a) == hash(b)
    assert a != F([1, 2])


def test_formula_identity_ignores_literal_iteration_order():
    # frozenset({1, 9}) built from [1, 9] and from [9, 1] iterates in
    # different orders in CPython, so an order-dependent key tells them apart
    a = CnfFormula({1: [1, 9], 2: [9, -3]})
    b = CnfFormula({1: [9, 1], 2: [-3, 9]})
    assert a == b
    assert hash(a) == hash(b)
    assert a.reduct((3,)) == b.reduct((3,))
    assert hash(a.reduct((3,))) == hash(b.reduct((3,)))
