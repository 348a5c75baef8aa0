import pytest

from conftest import F
from satbones import DimacsError, emit_dimacs, parse_dimacs
from satbones.generators import random_formula


def test_parse_single_unit():
    f = parse_dimacs("p cnf 1 1\n1 0")
    assert f.clauses() == ((1, frozenset({1})),)


def test_parse_two_binary_clauses_krom():
    from satbones import classify

    f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 -2 0")
    assert len(f) == 2
    assert classify(f).is_krom


def test_parse_rejects_tautology_in_strict_mode():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 1 1\n1 -1 0")


def test_lenient_mode_drops_tautology_with_diagnostic():
    notes = []
    f = parse_dimacs("p cnf 2 2\n1 -1 0\n2 0", strict=False, warn=notes.append)
    assert f.clauses() == ((2, frozenset({2})),)
    assert any("tautological" in n for n in notes)


def test_parse_collapses_duplicates():
    f = parse_dimacs("p cnf 2 3\n1 1 2 0\n2 1 0\n-1 0")
    assert len(f) == 2
    assert f.clause(1) == frozenset({1, 2})


def test_parse_comments_blank_lines_and_multiline_clause():
    f = parse_dimacs("c header comment\np cnf 3 1\nc mid\n1 2\n3 0\n")
    assert f.clause(1) == frozenset({1, 2, 3})


def test_parse_percent_terminator():
    f = parse_dimacs("p cnf 1 1\n1 0\n%\n0\n")
    assert len(f) == 1


def test_parse_empty_clause_line():
    f = parse_dimacs("p cnf 1 2\n1 0\n0\n")
    assert f.empty_clause_id() is not None


def test_malformed_header():
    with pytest.raises(DimacsError):
        parse_dimacs("p dnf 1 1\n1 0")
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf one 1\n1 0")


def test_clause_before_header():
    with pytest.raises(DimacsError):
        parse_dimacs("1 0\np cnf 1 1\n")


def test_unterminated_clause():
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 1\n1 2\n")


def test_variable_beyond_declared_is_diagnostic_not_fatal():
    notes = []
    f = parse_dimacs("p cnf 1 1\n1 2 0", warn=notes.append)
    assert f.variables == {1, 2}
    assert any("beyond declared" in n for n in notes)


def test_clause_count_mismatch_is_diagnostic():
    notes = []
    parse_dimacs("p cnf 1 2\n1 0", warn=notes.append)
    assert any("declared 2 clauses" in n for n in notes)


def test_emit_single_unit():
    assert emit_dimacs(F([1])) == "p cnf 1 1\n1 0\n"


def test_emit_empty_formula():
    assert emit_dimacs(F()) == "p cnf 0 0\n"


def test_emit_accepts_bytes_on_reparse():
    f = F([1, -2], [2])
    assert parse_dimacs(emit_dimacs(f).encode()) == f


@pytest.mark.parametrize("family", ["3cnf", "krom", "horn"])
def test_round_trip_random(family):
    for seed in range(40):
        f = random_formula(family, 7, 9, seed)
        assert parse_dimacs(emit_dimacs(f)) == f
