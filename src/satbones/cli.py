"""Command-line front end.

Subcommands: classify, solve, backbones, sus, local, iterative, uc,
generate, report.  Exit codes: 0 ok / answer yes, 1 answer no (decision
subcommands), 2 input error, 3 unsatisfiable input where satisfiability is
required, 4 internal error (never an answer).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from typing import Optional, Sequence

from .backbones import (
    UnsatDetected,
    _require_variable,
    is_k_backbone,
    iterative_k_backbones,
    local_backbones,
)
from .dimacs import emit_dimacs, parse_dimacs
from .formula import CnfFormula, classify, literal_order
from .generators import InfeasibleParameters, implication_cycle, random_formula
from .report import build_report
from .solver import UnsatFormulaError, full_backbones, solve
from .unitref import level_reduce
from .unsat_subsets import sus_search

EXIT_OK = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_UNSAT = 3
EXIT_INTERNAL = 4


def _read_formula(args) -> CnfFormula:
    with open(args.path, "rb") as handle:
        data = handle.read()
    return parse_dimacs(
        data,
        strict=not args.drop_tautologies,
        warn=lambda msg: print(f"warning: {msg}", file=sys.stderr),
    )


def _write_output(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _print_literals(literals: Sequence[int]) -> None:
    for lit in literals:
        print(lit)
    print(f"total: {len(literals)}")


def _excerpt(formula: CnfFormula, clause_ids: tuple[int, ...]) -> str:
    lines = []
    for cid in clause_ids:
        lits = literal_order(formula.clause(cid)) + [0]
        lines.append(f"  {cid}: {' '.join(map(str, lits))}")
    return "\n".join(lines)


def cmd_classify(args) -> int:
    formula = _read_formula(args)
    flags = classify(formula)
    info = {
        "n_vars": len(formula.variables),
        "n_clauses": len(formula),
        "length": formula.length,
    }
    info.update(flags.as_dict())
    if args.format == "json":
        _write_output(json.dumps(info, indent=2, sort_keys=True) + "\n", args.output)
    else:
        text = "\n".join(
            f"{key}: {str(value).lower() if isinstance(value, bool) else value}"
            for key, value in info.items()
        )
        _write_output(text + "\n", args.output)
    return EXIT_OK


def cmd_solve(args) -> int:
    formula = _read_formula(args)
    model = solve(formula)
    if model is None:
        print("UNSATISFIABLE")
        return EXIT_NO
    lits = [v if model[v] else -v for v in sorted(model)]
    print("SATISFIABLE")
    print(" ".join(["v", *map(str, lits), "0"]))
    return EXIT_OK


def cmd_backbones(args) -> int:
    formula = _read_formula(args)
    found = full_backbones(formula)
    _print_literals([v if found[v] else -v for v in sorted(found)])
    return EXIT_OK


def cmd_sus(args) -> int:
    formula = _read_formula(args)
    witness = sus_search(formula, args.k)
    if witness is None:
        print(f"no unsatisfiable subset of at most {args.k} clauses")
        return EXIT_NO
    ids = " ".join(map(str, witness))
    print(f"unsatisfiable subset of {len(witness)} clauses: {ids}")
    print(_excerpt(formula, witness))
    return EXIT_OK


def cmd_local(args) -> int:
    formula = _read_formula(args)
    if args.var is not None:
        verdict, polarity, witness = is_k_backbone(formula, args.var, args.k)
        if not verdict:
            print(f"variable {args.var} is not a {args.k}-backbone")
            return EXIT_NO
        print(
            f"variable {args.var} is a {args.k}-backbone, "
            f"polarity {'+' if polarity else '-'}"
        )
        print(_excerpt(formula, witness))
        return EXIT_OK
    found = local_backbones(formula, args.k)
    _print_literals([v if found[v] else -v for v in sorted(found)])
    return EXIT_OK


def cmd_iterative(args) -> int:
    formula = _read_formula(args)
    if args.var is not None:
        _require_variable(formula, args.var)
    result = iterative_k_backbones(formula, args.k)
    if args.var is not None:
        if args.var in result.variables:
            lit = args.var if args.var in result.forced else -args.var
            print(
                f"variable {args.var} is an iterative {args.k}-backbone, "
                f"polarity {'+' if lit > 0 else '-'}"
            )
            return EXIT_OK
        print(f"variable {args.var} is not an iterative {args.k}-backbone")
        return EXIT_NO
    _print_literals(result.forced)
    return EXIT_OK


def cmd_uc(args) -> int:
    formula = _read_formula(args)
    result = level_reduce(formula, args.k)
    _print_literals(literal_order(result.forced))
    print(f"residual clauses: {len(result.residual)}")
    print(f"contradiction: {str(result.contradiction).lower()}")
    return EXIT_OK


def cmd_generate(args) -> int:
    if args.output:
        sidecar_path = os.path.splitext(args.output)[0] + ".json"
        if sidecar_path == args.output:
            raise ValueError(f"{args.output} is also the JSON sidecar's path")
    if args.family == "cycle":
        if args.occ is not None:
            raise InfeasibleParameters("family 'cycle' takes no occurrence bound")
        formula = implication_cycle(args.n)
        planted = {
            "backbone_variable": 1,
            "polarity": "-",
            "order": args.n,
            "iterative_order": args.n,
        }
        params = {"n": args.n}
    else:
        formula = random_formula(
            args.family,
            args.n,
            args.m,
            args.seed,
            d=args.occ,
            min_width=args.min_width,
        )
        planted = None
        params = {
            "n": args.n,
            "m": args.m,
            "seed": args.seed,
            "d": args.occ,
            "min_width": args.min_width,
        }
    text = emit_dimacs(formula)
    if not args.output:
        sys.stdout.write(text)
        return EXIT_OK
    with open(args.output, "w") as handle:
        handle.write(text)
    sidecar = {
        "construction": args.family,
        "params": params,
        "planted": planted,
    }
    with open(sidecar_path, "w") as handle:
        json.dump(sidecar, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.output} and {sidecar_path}")
    return EXIT_OK


def cmd_report(args) -> int:
    formula = _read_formula(args)
    name = os.path.basename(args.path)
    result = build_report(formula, args.kmax, instance=name)
    text = result.to_csv() if args.format == "csv" else result.to_json()
    _write_output(text, args.output)
    return EXIT_OK


def _add_input(p) -> None:
    p.add_argument("path", help="DIMACS CNF file")
    p.add_argument(
        "--drop-tautologies",
        action="store_true",
        help="drop tautological clauses with a diagnostic "
        "(default: reject them)",
    )


def _add_k(p) -> None:
    _add_input(p)
    p.add_argument("-k", "--k", type=int, required=True)


def _add_k_var(p) -> None:
    _add_k(p)
    p.add_argument("--var", type=int)


def _add_classify(p) -> None:
    _add_input(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("-o", "--output")


def _add_generate(p) -> None:
    p.add_argument(
        "--family",
        required=True,
        choices=("3cnf", "krom", "horn", "definite_horn", "vo", "cycle"),
    )
    p.add_argument("-n", type=int, required=True, help="variables (cycle: length)")
    p.add_argument("-m", type=int, default=1, help="clauses")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--occ", type=int, help="occurrence bound for family vo")
    p.add_argument("--min-width", type=int, default=1)
    p.add_argument("-o", "--output")


def _add_report(p) -> None:
    _add_input(p)
    p.add_argument("--kmax", type=int, default=8)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("-o", "--output")


# subcommand -> (help, function adding its arguments); the handler of each is
# cmd_<name>, looked up by name on every call, so that a cmd_<name> replaced
# on the module is the one that runs
COMMANDS = {
    "classify": ("formula class flags and counts", _add_classify),
    "solve": ("SAT/UNSAT with a model", _add_input),
    "backbones": ("all backbone variables", _add_input),
    "sus": ("minimum unsatisfiable subset", _add_k),
    "local": ("k-backbones", _add_k_var),
    "iterative": ("iterative k-backbones", _add_k_var),
    "uc": ("level-k generalized unit propagation", _add_k),
    "generate": ("write instance plus JSON sidecar", _add_generate),
    "report": ("backbone order distribution", _add_report),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="satbones",
        description="Backbone and small-unsatisfiable-subset analysis of CNF formulas",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(handler=globals()[f"cmd_{name}"])
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """Subcommand `name`'s parser on its own, built as build_parser builds
    it, so that it prints the same help and the same errors."""
    parser = argparse.ArgumentParser(
        prog=f"satbones {name}",
        # a fixed width while the arguments are added: argparse's default
        # formatter reads the terminal size at every add_argument
        formatter_class=lambda prog: argparse.HelpFormatter(prog, width=80),
    )
    COMMANDS[name][1](parser)
    parser.set_defaults(command=name, handler=globals()[f"cmd_{name}"])
    # help and errors are sized to the terminal when they print
    parser.formatter_class = argparse.HelpFormatter
    return parser


def main(argv=None) -> int:
    # a command is parsed on its own parser, which prints its help and its
    # errors; the full parser answers no or an unknown command, and leftover
    # arguments, which only it reports as unrecognized
    if argv is None:
        argv = sys.argv[1:]
    args = rest = None
    if argv and argv[0] in COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
    if args is None or rest:
        args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (UnsatFormulaError, UnsatDetected) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSAT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
