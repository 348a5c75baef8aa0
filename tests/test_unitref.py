import gc
import random
import sys
import weakref

import pytest

from conftest import F, tt_entails, unit_propagate
from satbones import (
    CnfFormula,
    LevelReduction,
    UnsatDetected,
    iterative_k_backbones,
    level_reduce,
    solve,
)
from satbones import unitref
from satbones.cli import main
from satbones.dimacs import emit_dimacs, parse_dimacs
from satbones.formula import literal_order
from satbones.generators import implication_cycle, random_formula


def test_level_one_is_unit_propagation_chain():
    assert level_reduce(F([1], [-1, 2]), 1).forced == {1, 2}


def test_level_zero_forces_nothing():
    for f in (F([1], [-1, 2]), F([]), F()):
        assert level_reduce(f, 0).forced == frozenset()


def test_level_zero_collapse_flag():
    collapsed = level_reduce(F([1], []), 0)
    assert collapsed.contradiction
    assert collapsed.residual.clause_ids() == (2,)
    sound = level_reduce(F([1]), 0)
    assert not sound.contradiction
    assert sound.residual == F([1])


def test_negative_level_rejected():
    with pytest.raises(ValueError):
        level_reduce(F([1]), -1)


def test_level_one_matches_unit_propagation_random():
    checked = 0
    for seed in range(80):
        f = random_formula("horn", 7, 9, seed)
        propagated = unit_propagate(f)
        if propagated.conflict:
            continue
        checked += 1
        assert level_reduce(f, 1).forced == set(propagated.forced)
    assert checked >= 40


def test_forced_sets_grow_with_level():
    # on unsatisfiable inputs the forcing stops at the first empty clause,
    # which a higher level may reach with fewer literals forced, so growth
    # is only meaningful when satisfiable
    checked = 0
    for seed in range(60):
        f = random_formula("krom", 7, 9, seed)
        if solve(f) is None:
            continue
        checked += 1
        sets = [level_reduce(f, k).forced for k in (0, 1, 2, 3)]
        for small, large in zip(sets, sets[1:]):
            assert small <= large
    assert checked >= 30


def test_collapse_verdict_is_stable_across_levels():
    f = F([1, 2], [1, -2], [-1, 2], [-1, -2])
    for k in (2, 3):
        result = level_reduce(f, k)
        assert result.contradiction
        assert [c for _, c in result.residual.clauses()] == [frozenset()]


def test_forcing_stops_at_the_first_empty_clause():
    f = CnfFormula({1: [1], 2: [-1, 2], 3: [-2], 4: [3, 4]})
    for k in (1, 2, 3):
        result = level_reduce(f, k)
        assert result.forced == {1, 2}
        assert result.residual.clauses() == ((3, frozenset()),)
        assert result.contradiction


def test_input_with_empty_clause_forces_nothing():
    f = CnfFormula({1: [1, -2], 2: [], 3: [2, 3], 4: [-3]})
    for k in (0, 1, 2, 3):
        result = level_reduce(f, k)
        assert result.forced == frozenset()
        assert result.residual.clause_ids() == (2,)
        assert result.contradiction


def test_collapse_builds_no_reduct(monkeypatch):
    f = CnfFormula.from_clauses(
        [[2 * i + 1, 2 * i + 2] for i in range(50)] + [[]]
    )
    calls = []
    probes = []
    reduct = CnfFormula.reduct
    assert_literal = unitref._assert

    def counted(self, literals):
        calls.append(literals)
        return reduct(self, literals)

    def probe(clauses, lit):
        probes.append(lit)
        return assert_literal(clauses, lit)

    monkeypatch.setattr(CnfFormula, "reduct", counted)
    monkeypatch.setattr(unitref, "_assert", probe)
    for k in (1, 2, 3):
        assert level_reduce(f, k).residual.clause_ids() == (51,)
    assert calls == []
    assert probes == []


def test_levels_above_one_never_reach_level_one(monkeypatch):
    # level 2 answers its probes by unit propagation on one clause index, so
    # neither it nor the recursion above it calls or memoizes level 1
    levels = []
    memos = []
    level = unitref._level

    def counted(clauses, k, memo):
        levels.append(k)
        memos.append(memo)
        return level(clauses, k, memo)

    monkeypatch.setattr(unitref, "_level", counted)
    for f in (random_formula("3cnf", 10, 40, 1), implication_cycle(6)):
        for k in (2, 3, 4):
            levels.clear()
            memos.clear()
            level_reduce(f, k)
            assert set(levels) == set(range(2, k + 1))
            assert {key[1] for memo in memos for key in memo} == set(levels)


def test_cycle_is_caught_at_level_two():
    for n in (4, 5, 6, 7, 8):
        assert -1 in level_reduce(implication_cycle(n), 2).forced


def test_level_at_the_variable_count_probes_without_recursion():
    # at a level of at least the variable count each probe is decided by
    # propagation and a search on one clause index, without recursing, so a
    # long cycle at its own order stays far below the recursion limit
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        result = level_reduce(implication_cycle(200), 200)
    finally:
        sys.setrecursionlimit(limit)
    assert result.forced == {-1}
    assert len(result.residual.clause_ids()) == 198
    assert not result.contradiction


def test_iterative_forced_contained_in_level_forced():
    for seed in range(40):
        f = random_formula("krom", 7, 9, seed)
        if solve(f) is None:
            continue
        for k in (2, 3):
            try:
                iterative = set(iterative_k_backbones(f, k).forced)
            except UnsatDetected:
                continue
            assert iterative <= level_reduce(f, k).forced


def test_strict_containment_on_cycle():
    f = implication_cycle(5)
    assert set(iterative_k_backbones(f, 2).forced) == set()
    assert -1 in level_reduce(f, 2).forced


def test_forced_literals_are_entailed():
    for seed in range(40):
        f = random_formula("3cnf", 6, 9, seed)
        if solve(f) is None:
            continue
        for k in (1, 2):
            for lit in level_reduce(f, k).forced:
                assert tt_entails(f, lit)


def test_residual_is_reduct_by_forced():
    for seed in range(40):
        f = random_formula("krom", 7, 9, seed)
        for k in (1, 2):
            result = level_reduce(f, k)
            if not result.contradiction:
                assert result.residual == f.reduct(result.forced)
                assert result.residual.empty_clause_id() is None
                continue
            ((cid, clause),) = result.residual.clauses()
            assert clause == frozenset()
            assert cid in f.clause_ids()


def renamed(formula, rename):
    """The formula with every literal l replaced by rename(l), same ids."""
    return CnfFormula(
        {cid: [rename(l) for l in c] for cid, c in formula.clauses()}
    )


def test_fixpoint_is_scan_order_independent_when_satisfiable():
    # level_reduce scans by ascending variable, positive first; renaming the
    # variables by a signed permutation v -> +-pi(v) changes that order
    rng = random.Random(5)
    checked = 0
    for seed in range(40):
        f = random_formula("krom", 5, 7, seed)
        if solve(f) is None:
            continue
        checked += 1
        canonical = level_reduce(f, 2)
        for _ in range(3):
            image = rng.sample(range(1, 6), 5)
            sign = [rng.choice((1, -1)) for _ in range(5)]

            def rename(l):
                v = abs(l) - 1
                return image[v] * sign[v] * (1 if l > 0 else -1)

            shuffled = level_reduce(renamed(f, rename), 2)
            assert shuffled.forced == {rename(l) for l in canonical.forced}
            assert shuffled.residual == renamed(canonical.residual, rename)
    assert checked >= 20


def test_level_reduce_keeps_no_reference_to_its_input():
    f = random_formula("3cnf", 12, 40, 3)
    ref = weakref.ref(f)
    level_reduce(f, 2)
    del f
    gc.collect()
    assert ref() is None


def reference_level(formula, k, memo):
    """The levelled fixpoint with a reduct per probe: a literal l is tested
    by building F|-l and reducing it at level k-1, at every level k >= 1.
    At every level, a formula holding the empty clause collapses to it."""
    if formula.empty_clause_id() is not None:
        collapsed = formula.subset((formula.empty_clause_id(),))
        return LevelReduction(collapsed, frozenset(), True)
    if k == 0:
        return LevelReduction(formula, frozenset(), False)
    if (formula, k) in memo:
        return memo[formula, k]
    for lit in literal_order(formula.literals):
        if reference_level(formula.reduct((-lit,)), k - 1, memo).contradiction:
            rest = reference_level(formula.reduct((lit,)), k, memo)
            result = rest._replace(forced=rest.forced | {lit})
            break
    else:
        result = LevelReduction(formula, frozenset(), False)
    memo[formula, k] = result
    return result


def uc_lines(result):
    return [str(l) for l in literal_order(result.forced)] + [
        f"total: {len(result.forced)}",
        f"residual clauses: {len(result.residual)}",
        f"contradiction: {str(result.contradiction).lower()}",
    ]


def oracle_draws():
    for seed in range(12):
        yield random_formula("3cnf", 8, 30 + 2 * seed, seed)
        yield random_formula("krom", 7, 9 + seed, seed)
    # bounded occurrence: level 1 forces nothing, levels 2 and 3 force up
    # to 2 literals
    for seed in range(6):
        yield random_formula("vo", 12, 18, seed, d=4)
    # level 1 forces nothing, level 2 forces 4 to 8 literals and collapses
    for n, m, seed in ((8, 14, 13), (8, 15, 1), (8, 17, 11), (9, 14, 15), (9, 21, 17)):
        yield random_formula("krom", n, m, seed)
    # an input holding the empty clause collapses at once and forces nothing
    yield CnfFormula({1: [1, -2], 2: [], 3: [2, 3], 4: [-3]})


def test_level_reduce_matches_reduct_per_probe_reference(tmp_path, capsys):
    path = tmp_path / "f.cnf"
    unsatisfiable = 0
    for f in oracle_draws():
        path.write_text(emit_dimacs(f))
        f = parse_dimacs(path.read_text())
        unsatisfiable += solve(f) is None
        for k in (1, 2, 3):
            expected = reference_level(f, k, {})
            got = level_reduce(f, k)
            assert got.forced == expected.forced
            assert got.residual.clauses() == expected.residual.clauses()
            assert got.contradiction == expected.contradiction
            assert main(["uc", str(path), "-k", str(k)]) == 0
            assert capsys.readouterr().out.splitlines() == uc_lines(expected)
    assert unsatisfiable >= 5


def small_draws():
    """Satisfiable and unsatisfiable formulas of at most 6 variables."""
    for seed in range(10):
        yield random_formula("3cnf", 5, 12 + 2 * seed, seed)
        yield random_formula("3cnf", 6, 20 + 2 * seed, seed)
        yield random_formula("krom", 6, 6 + seed, seed)
        yield random_formula("horn", 6, 8 + seed, seed)
    for n in range(2, 7):
        yield implication_cycle(n)


def test_level_reduce_matches_the_reference_past_the_variable_count(
    monkeypatch, tmp_path, capsys
):
    # every k from 1 to one past the variable count: at and above the
    # variable count (k >= 3) the probes go to the complete refuter, at the
    # top level or, from a lower k, inside the recursion once the probed
    # clause sets have few enough variables
    searched = []
    refuter = unitref._refuter

    def counted(clauses, complete):
        searched.append(complete)
        return refuter(clauses, complete)

    monkeypatch.setattr(unitref, "_refuter", counted)
    path = tmp_path / "f.cnf"
    routes = {"top": 0, "recursion": 0}
    satisfiable = []
    for f in small_draws():
        path.write_text(emit_dimacs(f))
        f = parse_dimacs(path.read_text())
        satisfiable.append(solve(f) is not None)
        n = len(f.variables)
        for k in range(1, n + 2):
            searched.clear()
            expected = reference_level(f, k, {})
            got = level_reduce(f, k)
            assert got.forced == expected.forced
            assert got.residual.clauses() == expected.residual.clauses()
            assert got.contradiction == expected.contradiction
            assert main(["uc", str(path), "-k", str(k)]) == 0
            assert capsys.readouterr().out.splitlines() == uc_lines(expected)
            if any(searched):
                routes["top" if k >= max(n, 3) else "recursion"] += 1
    assert 15 <= sum(satisfiable) <= len(satisfiable) - 15
    assert routes["top"] > 80 and routes["recursion"] > 80
