import random

import pytest

from conftest import F, tt_backbones, tt_satisfiable, unit_propagate
from satbones import UnsatFormulaError, full_backbones, solve, solver
from satbones.cli import main
from satbones.dimacs import emit_dimacs
from satbones.generators import implication_cycle, random_formula
from satbones.solver import solve_sets


def test_solve_contradiction():
    assert solve(F([1], [-1])) is None


def test_solve_empty_formula():
    assert solve(F()) == {}


def test_solve_forced_variable():
    model = solve(F([1, 2], [-1, 2]))
    assert model is not None
    assert model[2] is True


def test_solve_model_is_total_and_satisfying():
    f = F([1, 2, 3], [-2, 4])
    model = solve(f)
    assert set(model) == f.variables
    assert all(any(model[abs(l)] == (l > 0) for l in c) for c in f.literal_sets())


def test_solve_deep_branching_has_no_recursion_limit(tmp_path, capsys):
    # 1500 disjoint binary clauses need 1500 nested branching decisions
    f = F(*[[2 * i - 1, 2 * i] for i in range(1, 1501)])
    model = solve(f)
    assert model is not None and set(model) == f.variables
    assert all(any(model[abs(l)] == (l > 0) for l in c) for c in f.literal_sets())
    path = tmp_path / "disjoint.cnf"
    path.write_text(emit_dimacs(f))
    assert main(["solve", str(path)]) == 0


def test_solve_agrees_with_truth_table_small():
    rng = random.Random(11)
    for trial in range(120):
        m = rng.randint(1, 5)
        clauses = []
        for _ in range(m):
            width = rng.randint(1, 3)
            vs = rng.sample(range(1, 5), min(width, 4))
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
        f = F(*clauses)
        assert (solve(f) is not None) == tt_satisfiable(f)


def test_solve_agrees_with_truth_table_sampled_larger():
    for seed in range(40):
        f = random_formula("3cnf", 12, 30, seed)
        assert (solve(f) is not None) == tt_satisfiable(f)


def test_unit_propagate_chain():
    result = unit_propagate(F([1], [-1, 2]))
    assert set(result.forced) == {1, 2}
    assert len(result.residual) == 0
    assert not result.conflict


def test_unit_propagate_conflict():
    result = unit_propagate(F([1], [-1]))
    assert result.conflict
    assert result.residual.empty_clause_id() is not None


def test_unit_propagate_stops_at_the_first_empty_clause():
    # {2} is still a unit clause once {-1} has become empty, but no unit
    # fires after the conflict
    result = unit_propagate(F([1], [2], [-1]))
    assert result.forced == (1,)
    assert result.conflict
    assert result.residual.clauses() == ((2, frozenset({2})), (3, frozenset()))


def test_unit_propagate_no_units():
    result = unit_propagate(F([1, 2]))
    assert result.forced == ()
    assert not result.conflict


def test_unit_propagate_idempotent():
    for seed in range(30):
        f = random_formula("horn", 8, 10, seed)
        result = unit_propagate(f)
        again = unit_propagate(result.residual)
        assert again.forced == ()
        assert again.residual == result.residual


def test_unit_propagate_residual_is_reduct():
    for seed in range(30):
        f = random_formula("krom", 8, 10, seed)
        result = unit_propagate(f)
        if not result.conflict:
            assert result.residual == f.reduct(result.forced)


def test_full_backbones_chain():
    assert full_backbones(F([1], [-1, 2])) == {1: True, 2: True}


def test_full_backbones_none():
    assert full_backbones(F([1, 2])) == {}


def test_full_backbones_cycle_by_enumeration():
    f = implication_cycle(6)
    assert full_backbones(f) == {1: False}
    assert tt_backbones(f) == {1: False}


def test_full_backbones_unsat_input_raises():
    with pytest.raises(UnsatFormulaError):
        full_backbones(F([1], [-1]))


def test_full_backbones_matches_enumeration_random():
    checked = found = 0
    for seed in range(60):
        f = random_formula("3cnf", 8, 34, seed)
        if not tt_satisfiable(f):
            continue
        checked += 1
        backbone = full_backbones(f)
        assert backbone == tt_backbones(f)
        found += len(backbone)
    assert checked >= 40
    assert found >= 200


def _recording_solve_sets(monkeypatch):
    """Route full_backbones' SAT calls through a recorder; returns the log
    of (clause list, returned model) pairs."""
    calls = []

    def record(clause_sets):
        clauses = list(clause_sets)
        model = solve_sets(clauses)
        calls.append((clauses, model))
        return model

    monkeypatch.setattr(solver, "solve_sets", record)
    return calls


def test_full_backbones_asserts_each_proven_backbone(monkeypatch):
    calls = _recording_solve_sets(monkeypatch)
    f = F([1, 2], [1, -2], [-1, 3], [3, 4])
    assert full_backbones(f) == {1: True, 3: True}
    proof = next(
        i for i, (clauses, model) in enumerate(calls)
        if model is None and frozenset((-1,)) in clauses
    )
    later = calls[proof + 1 :]
    assert later
    assert all(abs(lit) != 1 for clauses, _ in later for c in clauses for lit in c)


def test_full_backbones_skips_a_variable_the_model_leaves_free(monkeypatch):
    # the counter-model of x1 sets x1 = False, which satisfies the clause
    # and leaves x2 unassigned: x2 is free and gets no SAT test of its own
    calls = _recording_solve_sets(monkeypatch)
    assert full_backbones(F([-1, 2])) == {}
    assert len(calls) == 2


# `satbones solve` output on random_formula("3cnf", 30, 120, seed); None
# marks an unsatisfiable draw.  The branching order (lowest variable,
# positive first) fixes every model, so a change to the DPLL loop that
# keeps its order prints the same lines.
SOLVE_GOLDEN = {
    0: "v 1 2 -3 -4 -5 -6 7 8 9 -10 11 12 13 14 -15 -16 17 -18 19 20 21 -22 23 -24 25 26 -27 -28 -29 -30 0",
    1: "v -1 -2 3 4 5 -6 -7 8 -9 10 -11 12 -13 -14 15 16 17 18 -19 20 -21 -22 23 -24 -25 26 27 -28 -29 -30 0",
    2: "v 1 2 -3 4 5 6 7 -8 9 10 11 -12 13 14 -15 16 -17 18 19 -20 21 -22 -23 24 25 -26 -27 28 29 30 0",
    3: None,
    4: "v 1 -2 3 -4 5 -6 7 8 9 10 11 12 13 -14 -15 -16 17 18 19 20 21 -22 -23 24 25 -26 -27 -28 -29 30 0",
    5: "v 1 -2 3 4 5 -6 7 -8 9 -10 -11 12 -13 -14 15 16 17 -18 -19 20 21 -22 23 24 25 26 27 -28 29 30 0",
}


def test_solve_models_are_pinned(tmp_path, capsys):
    path = tmp_path / "f.cnf"
    for seed, model_line in SOLVE_GOLDEN.items():
        path.write_text(emit_dimacs(random_formula("3cnf", 30, 120, seed)))
        code = main(["solve", str(path)])
        out = capsys.readouterr().out.splitlines()
        if model_line is None:
            assert (code, out) == (1, ["UNSATISFIABLE"])
        else:
            assert (code, out) == (0, ["SATISFIABLE", model_line])
