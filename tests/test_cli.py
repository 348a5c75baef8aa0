import argparse
import json

import pytest

from conftest import unit_propagate
from satbones import cli
from satbones.cli import main
from satbones.dimacs import parse_dimacs

CHAIN = "p cnf 2 2\n1 0\n-1 2 0\n"
UNSAT = "p cnf 1 2\n1 0\n-1 0\n"
OPEN = "p cnf 2 1\n1 2 0\n"


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.cnf"
    path.write_text(CHAIN)
    return str(path)


@pytest.fixture
def unsat_file(tmp_path):
    path = tmp_path / "unsat.cnf"
    path.write_text(UNSAT)
    return str(path)


def test_classify_text(chain_file, capsys):
    assert main(["classify", chain_file]) == 0
    out = capsys.readouterr().out
    assert "krom: true" in out
    assert "definite_horn: true" in out


def test_classify_json(chain_file, capsys):
    assert main(["classify", chain_file, "--format", "json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["n_clauses"] == 2
    assert parsed["horn"] is True


def test_classify_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf x y\n")
    assert main(["classify", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_strict_tautology_rejected_but_droppable(tmp_path, capsys):
    path = tmp_path / "taut.cnf"
    path.write_text("p cnf 2 2\n1 -1 0\n2 0\n")
    assert main(["classify", str(path)]) == 2
    capsys.readouterr()
    assert main(["classify", str(path), "--drop-tautologies"]) == 0
    captured = capsys.readouterr()
    assert "n_clauses: 1" in captured.out
    assert "tautological" in captured.err


def test_solve_exit_codes(chain_file, unsat_file, capsys):
    assert main(["solve", chain_file]) == 0
    assert "SATISFIABLE" in capsys.readouterr().out
    assert main(["solve", unsat_file]) == 1


def test_solve_prints_a_variable_free_model_with_one_space(tmp_path, capsys):
    path = tmp_path / "empty.cnf"
    path.write_text("p cnf 0 0\n")
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["SATISFIABLE", "v 0"]


def test_unexpected_exception_exits_with_internal_code(
    chain_file, capsys, monkeypatch
):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_solve", crash)
    assert main(["solve", chain_file]) == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "internal error: RuntimeError('boom')"


def test_backbones_output(chain_file, unsat_file, capsys):
    assert main(["backbones", chain_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["1", "2", "total: 2"]
    assert main(["backbones", unsat_file]) == 3


def test_sus_yes_and_no(chain_file, unsat_file, capsys):
    assert main(["sus", unsat_file, "-k", "2"]) == 0
    out = capsys.readouterr().out
    assert "unsatisfiable subset of 2 clauses: 1 2" in out
    assert "1: 1 0" in out
    assert main(["sus", chain_file, "-k", "2"]) == 1


def test_sus_prints_a_minimum_subset(tmp_path, capsys):
    path = tmp_path / "wide.cnf"
    path.write_text("p cnf 4 4\n2 4 -1 0\n3 -1 0\n-1 0\n1 0\n")
    assert main(["sus", str(path), "-k", "4"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "unsatisfiable subset of 2 clauses: 3 4", "  3: -1 0", "  4: 1 0",
    ]


def test_sus_prints_an_empty_clause(tmp_path, capsys):
    path = tmp_path / "empty.cnf"
    path.write_text("p cnf 3 3\n1 2 0\n-1 0\n0\n")
    assert main(["sus", str(path), "-k", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "unsatisfiable subset of 1 clauses: 3", "  3: 0",
    ]


def test_local_with_variable(chain_file, capsys):
    assert main(["local", chain_file, "-k", "2", "--var", "2"]) == 0
    assert "polarity +" in capsys.readouterr().out
    assert main(["local", chain_file, "-k", "1", "--var", "2"]) == 1


def test_local_with_variable_prints_the_smaller_witness(tmp_path, capsys):
    # unsatisfiable input forces both polarities; +1 has the smaller witness
    path = tmp_path / "both.cnf"
    path.write_text("p cnf 2 3\n1 0\n-1 2 0\n-1 -2 0\n")
    assert main(["local", str(path), "-k", "2", "--var", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "variable 1 is a 2-backbone, polarity +", "  1: 1 0",
    ]


def test_local_listing(chain_file, capsys):
    assert main(["local", chain_file, "-k", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["1", "total: 1"]


def test_iterative_matches_unit_propagation(chain_file, capsys):
    assert main(["iterative", chain_file, "-k", "1"]) == 0
    out = capsys.readouterr().out
    printed = [int(line) for line in out.splitlines()[:-1]]
    assert tuple(printed) == unit_propagate(parse_dimacs(CHAIN)).forced


@pytest.mark.parametrize("command", ["local", "iterative"])
@pytest.mark.parametrize("var", ["9", "-2"])
def test_var_outside_formula_is_input_error(chain_file, command, var, capsys):
    assert main([command, chain_file, "-k", "1", "--var", var]) == 2
    assert f"variable {var} not in formula" in capsys.readouterr().err


def test_iterative_unsat_exit(unsat_file):
    assert main(["iterative", unsat_file, "-k", "1"]) == 3


def test_uc_output(chain_file, capsys):
    assert main(["uc", chain_file, "-k", "1"]) == 0
    out = capsys.readouterr().out
    assert "total: 2" in out
    assert "contradiction: false" in out


def test_uc_contradiction_lists_literals_forced_before_collapse(tmp_path, capsys):
    path = tmp_path / "collapse.cnf"
    path.write_text("p cnf 4 4\n1 0\n-1 2 0\n-2 0\n3 4 0\n")
    assert main(["uc", str(path), "-k", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "1", "2", "total: 2", "residual clauses: 1", "contradiction: true",
    ]


def test_generate_writes_instance_and_sidecar(tmp_path, capsys):
    target = tmp_path / "inst.cnf"
    code = main(
        ["generate", "--family", "krom", "-n", "6", "-m", "8",
         "--seed", "5", "-o", str(target)]
    )
    assert code == 0
    formula = parse_dimacs(target.read_text())
    assert len(formula) == 8
    sidecar = json.loads((tmp_path / "inst.json").read_text())
    assert sidecar["construction"] == "krom"
    assert sidecar["params"]["seed"] == 5


def test_generate_cycle_sidecar_records_planted_answer(tmp_path):
    target = tmp_path / "cycle.cnf"
    assert main(["generate", "--family", "cycle", "-n", "6", "-o", str(target)]) == 0
    sidecar = json.loads((tmp_path / "cycle.json").read_text())
    assert sidecar["planted"] == {
        "backbone_variable": 1,
        "polarity": "-",
        "order": 6,
        "iterative_order": 6,
    }


def test_generate_refuses_output_that_is_its_own_sidecar(tmp_path, capsys):
    target = tmp_path / "x.json"
    code = main(["generate", "--family", "krom", "-n", "5", "-m", "4",
                 "-o", str(target)])
    assert code == 2
    assert "sidecar" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.cnf", tmp_path / "b.cnf"
    main(["generate", "--family", "3cnf", "-n", "8", "-m", "12", "--seed", "1", "-o", str(a)])
    main(["generate", "--family", "3cnf", "-n", "8", "-m", "12", "--seed", "1", "-o", str(b)])
    assert a.read_text() == b.read_text()


def test_generate_infeasible_exit(tmp_path, capsys):
    assert main(["generate", "--family", "vo", "-n", "3", "-m", "50",
                 "--occ", "2"]) == 2


def test_generate_refuses_occurrence_bound_outside_vo(tmp_path, capsys):
    target = tmp_path / "x.cnf"
    assert main(["generate", "--family", "3cnf", "-n", "10", "-m", "30",
                 "--occ", "3", "-o", str(target)]) == 2
    assert "occurrence bound" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_generate_refuses_occurrence_bound_for_cycle(tmp_path, capsys):
    target = tmp_path / "c.cnf"
    assert main(["generate", "--family", "cycle", "-n", "6",
                 "--occ", "3", "-o", str(target)]) == 2
    assert "family 'cycle' takes no occurrence bound" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_report_csv(chain_file, capsys):
    assert main(["report", chain_file, "--kmax", "2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "k,pct_order_leq_k,pct_iter_leq_k",
        "1,50.0,100.0",
        "2,100.0,100.0",
    ]


def test_report_json_to_file(chain_file, tmp_path):
    target = tmp_path / "report.json"
    assert main(["report", chain_file, "--kmax", "2", "-o", str(target)]) == 0
    parsed = json.loads(target.read_text())
    assert parsed["schema_version"] == 1
    assert parsed["backbone_count"] == 2


def test_report_unsat_exit(unsat_file):
    assert main(["report", unsat_file]) == 3


def test_report_open_formula(tmp_path, capsys):
    path = tmp_path / "open.cnf"
    path.write_text(OPEN)
    assert main(["report", str(path), "--kmax", "2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1:] == ["1,0.0,0.0", "2,0.0,0.0"]


FULL_USAGE = """\
usage: satbones [-h]
                {classify,solve,backbones,sus,local,iterative,uc,generate,report}
                ...
"""
REPORT_USAGE = """\
usage: satbones report [-h] [--drop-tautologies] [--kmax KMAX]
                       [--format {json,csv}] [-o OUTPUT]
                       path
"""
FULL_HELP = FULL_USAGE + """
Backbone and small-unsatisfiable-subset analysis of CNF formulas

positional arguments:
  {classify,solve,backbones,sus,local,iterative,uc,generate,report}
    classify            formula class flags and counts
    solve               SAT/UNSAT with a model
    backbones           all backbone variables
    sus                 minimum unsatisfiable subset
    local               k-backbones
    iterative           iterative k-backbones
    uc                  level-k generalized unit propagation
    generate            write instance plus JSON sidecar
    report              backbone order distribution

options:
  -h, --help            show this help message and exit
"""
REPORT_HELP = REPORT_USAGE + """
positional arguments:
  path                  DIMACS CNF file

options:
  -h, --help            show this help message and exit
  --drop-tautologies    drop tautological clauses with a diagnostic (default:
                        reject them)
  --kmax KMAX
  --format {json,csv}
  -o OUTPUT, --output OUTPUT
"""
UNIT_REPORT_KMAX_3 = """\
{
  "backbone_count": 1,
  "curve": [
    {
      "k": 1,
      "pct_iter_leq_k": 100.0,
      "pct_order_leq_k": 100.0
    },
    {
      "k": 2,
      "pct_iter_leq_k": 100.0,
      "pct_order_leq_k": 100.0
    },
    {
      "k": 3,
      "pct_iter_leq_k": 100.0,
      "pct_order_leq_k": 100.0
    }
  ],
  "instance": "unit.cnf",
  "kmax": 3,
  "length": 1,
  "n_clauses": 1,
  "n_vars": 1,
  "schema_version": 1,
  "variable_names": {},
  "variables": [
    {
      "is_backbone": true,
      "iterative_order": 1,
      "order": 1,
      "polarity": "+",
      "variable": 1,
      "witness": [
        1
      ]
    }
  ]
}
"""


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        ([], 2, "", FULL_USAGE + "satbones: error: the following arguments "
         "are required: command\n"),
        (["-h"], 0, FULL_HELP, ""),
        (["rep"], 2, "", FULL_USAGE + "satbones: error: argument command: "
         "invalid choice: 'rep' (choose from 'classify', 'solve', 'backbones', "
         "'sus', 'local', 'iterative', 'uc', 'generate', 'report')\n"),
        (["report", "-h"], 0, REPORT_HELP, ""),
        (["report", "F", "--bogus"], 2, "",
         FULL_USAGE + "satbones: error: unrecognized arguments: --bogus\n"),
        (["report", "F", "--km", "3"], 0, UNIT_REPORT_KMAX_3, ""),
        (["report", "F", "--kmax", "x"], 2, "", REPORT_USAGE +
         "satbones report: error: argument --kmax: invalid int value: 'x'\n"),
        (["report", "F", "--format", "xml"], 2, "", REPORT_USAGE +
         "satbones report: error: argument --format: invalid choice: 'xml' "
         "(choose from 'json', 'csv')\n"),
        (["sus", "F", "-k3"], 1,
         "no unsatisfiable subset of at most 3 clauses\n", ""),
        (["local", "F", "-k", "2", "--va", "1"], 0,
         "variable 1 is a 2-backbone, polarity +\n  1: 1 0\n", ""),
    ],
)
def test_parser_output_is_pinned(
    argv, code, out, err, tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("COLUMNS", "80")
    path = tmp_path / "unit.cnf"
    path.write_text("p cnf 1 1\n1 0\n")
    argv = [str(path) if arg == "F" else arg for arg in argv]
    assert _exit_code(argv) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == err


def test_main_builds_no_subparser_for_a_well_formed_command(
    chain_file, capsys, monkeypatch
):
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert main(["report", chain_file]) == 0
    assert main(["uc", chain_file, "-k", "1"]) == 0
    # the command's own parser prints its errors
    assert _exit_code(["report", chain_file, "--kmax", "x"]) == 2
    assert names == []
    cli.build_parser()
    assert names == list(cli.COMMANDS)
    for argv, code in (
        (["-h"], 0),
        ([], 2),
        (["rep"], 2),
        (["report", chain_file, "--bogus"], 2),
    ):
        names.clear()
        assert _exit_code(argv) == code
        assert names == list(cli.COMMANDS)


# the arguments of each subcommand; F.cnf is CHAIN, in the working directory
BASE = {
    "classify": ["F.cnf"],
    "solve": ["F.cnf"],
    "backbones": ["F.cnf"],
    "sus": ["F.cnf", "-k", "2"],
    "local": ["F.cnf", "-k", "2"],
    "iterative": ["F.cnf", "-k", "1"],
    "uc": ["F.cnf", "-k", "1"],
    "generate": ["--family", "3cnf", "-n", "3", "-m", "4"],
    "report": ["F.cnf", "--kmax", "2"],
}
# appended to a subcommand's arguments: help and its prefixes, strings
# that only the declared -h makes errors, leftovers, "--", repeats,
# abbreviations, attached and missing values, negative ints, bad values
SUFFIXES = [
    [], ["-h"], ["--help"], ["--he"], ["--h"], ["--help=x"], ["-hk"],
    ["-h x"], ["--he=x y"], ["-o", "-h x"], ["-o", "-h"], ["-o"],
    ["--bogus"], ["extra"], ["--"], ["--", "-1"], ["--", "F.cnf"], ["-"],
    ["--drop-tautologies"], ["--drop"], ["--dr", "--dr"],
    ["-o", "out.txt"], ["-oout.txt"], ["--output=out.txt"], ["--out", "o.txt"],
    ["-o", "a.txt", "-o", "b.txt"],
    ["--format", "json"], ["--format", "csv"], ["--fo", "text"],
    ["--format=xml"], ["--format"],
    ["--kmax", "3"], ["--km", "3"], ["--kmax=1"], ["--kmax", "x"],
    ["--kmax"], ["--kmax", "-1"], ["--kmax", "3", "--kmax", "1"],
    ["-k", "3"], ["-k3"], ["-k=3"], ["--k", "1"], ["--k=1"], ["-k", "-2"],
    ["-k", "x"], ["-k"],
    ["--var", "1"], ["--va", "2"], ["--v", "1"], ["--var", "9"],
    ["--var", "x"], ["--var=-1"],
    ["--family", "cycle"], ["--fam", "krom"], ["--family", "bad"],
    ["-n", "x"], ["-n4"], ["--seed", "5"], ["--se", "-5"], ["--occ", "2"],
    ["--min-width", "2"], ["--min", "2"], ["-m", "-1"], ["-m"],
]
PARSE_TABLE = (
    [[name, *BASE[name], *suffix] for name in BASE for suffix in SUFFIXES]
    + [[name, *suffix] for name in BASE for suffix in ([], ["-h"], ["-k", "2"])]
    + [[name, *reversed(BASE[name])] for name in BASE]
    + [
        [], ["-h"], ["--help"], ["--he"], ["rep"], ["Report", "F.cnf"],
        ["--", "report", "F.cnf"], ["-x", "report", "F.cnf"],
        ["report", "-k", "2", "F.cnf"], ["sus", "-k2", "F.cnf"],
        ["local", "--var", "1", "-k", "2", "--drop", "F.cnf"],
        ["report", "--format", "csv", "--", "F.cnf"],
        ["generate", "-n", "6", "--family", "cycle", "-o", "c.cnf"],
        ["generate", "--family", "vo", "-n", "4", "-m", "5", "--occ", "3"],
    ]
)


def _run_in(directory, argv, capsys):
    """Exit code, stdout, stderr and the files written by one main call."""
    code = _exit_code(list(argv))
    out, err = capsys.readouterr()
    written = {}
    for path in sorted(directory.iterdir()):
        if path.name != "F.cnf":
            written[path.name] = path.read_text()
            path.unlink()
    return code, out, err, written


class _NoCommand(dict):
    """COMMANDS as build_parser reads it, but holding no name that main
    looks up, so that main parses every list on the full parser."""

    def __contains__(self, name):
        return False


def test_command_parser_changes_no_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F.cnf").write_text(CHAIN)
    parsed = []
    for name in cli.COMMANDS:
        handler = getattr(cli, f"cmd_{name}")

        def recorded(args, handler=handler):
            parsed.append(vars(args))
            return handler(args)

        monkeypatch.setattr(cli, f"cmd_{name}", recorded)
    # at 80 columns the width the parser is built at and the terminal's
    # almost agree; at 50 a formatter left at the built width would show
    for columns in ("80", "50"):
        monkeypatch.setenv("COLUMNS", columns)
        accepted = []
        for argv in PARSE_TABLE:
            parsed.clear()
            answer = _run_in(tmp_path, argv, capsys)
            if parsed:
                accepted.append(argv)
                assert parsed == [vars(cli.build_parser().parse_args(argv))], argv
            with monkeypatch.context() as patch:
                patch.setattr(cli, "COMMANDS", _NoCommand(cli.COMMANDS))
                assert _run_in(tmp_path, argv, capsys) == answer, (columns, argv)
        # the table holds both accepted and refused lists, and every way of
        # writing a value
        assert len(accepted) > 80 and len(PARSE_TABLE) - len(accepted) > 80
        for argv in (
            ["report", *BASE["report"], "--km", "3"],
            ["uc", *BASE["uc"], "-k3"],
            ["report", *BASE["report"], "--output=out.txt"],
            ["local", *BASE["local"], "--var=-1"],
            ["generate", "-n", "6", "--family", "cycle", "-o", "c.cnf"],
        ):
            assert argv in accepted
        for argv in (
            ["report", *BASE["report"], "--he"],
            ["report", *BASE["report"], "-h x"],
            ["report", *BASE["report"], "-o", "-h x"],
            ["report", *BASE["report"], "extra"],
        ):
            assert argv not in accepted
