"""Seeded cases of the three workloads.

Each workload is a list of CLI cases.  A random family draws its instances
from sub-seeds ``seed * SUBSEED_STRIDE + offset + i`` and skips a draw the
reference solver rejects (unsatisfiable, or not uniquely satisfiable where
that is asked), so the same seed always keeps the same sub-seeds.  The
families marked below as fixed are the same at every seed; the run seed also
shuffles the order of the cases.  Sizes are chosen so that one
pass over a workload's distinct instances takes most of a 30-second run and
no single case dominates it: case cost is heavy-tailed in every family
here, and the spread of a run's figures across seeds shrinks with the number
of instances it covers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from oracle import Clause, backbones, solve

SUBSEED_STRIDE = 1_000_000
MAX_DRAWS = 200  # per kept instance, before the family is declared infeasible

WORKLOADS = ("structured", "random-deep", "wide")  # reasons: BENCHMARK.json

# Cycles and clique plants are the same at every seed and only the Krom and
# Horn draws change with it.  The clique plants that hold a clique are the
# heaviest cases, about 10% of a pass, so the tail percentile falls inside
# the densest part of one fixed family instead of between families, where it
# would jump from run to run.
CYCLES = (10, 3, 12)  # each length from 3 to 12, this many times
# (family, cases, n, m, occurrence bound), as in RANDOM_DEEP and WIDE
STRUCTURED_RANDOM = (("krom", 200, 10, 12, None), ("definite_horn", 200, 8, 12, None))
# cases, vertices per colour, random edges; a clique is planted in 3 of every 5
CLIQUES = (100, 2, 2, 5, 3)
# unique-model draws only: every variable is a backbone, so every case runs
# one full order search per variable and case cost varies little
RANDOM_DEEP = ("3cnf", 52, 5, 21, None)
# (command, options, seeded, family, cases, n, m, occurrence bound).  Level 2
# forces nothing on 3-CNF, so bounded-occurrence draws give uc known answers;
# their memory varies most and sets the peak, so they are the same at every
# seed.
WIDE = (
    ("report", ("--kmax", "3"), True, "3cnf", 30, 30, 120, None),
    ("uc", ("-k", "2"), True, "3cnf", 46, 20, 80, None),
    ("uc", ("-k", "2"), False, "vo", 9, 20, 50, 8),
)
PROBE_DISJOINT = 1500  # disjoint binary clauses, all variables free


@dataclass
class Case:
    name: str
    argv_tail: tuple[str, ...]  # CLI words after the subcommand and path
    command: str
    clauses: tuple[Clause, ...]
    model: dict[int, bool]
    planted: dict = field(default_factory=dict)
    subseed: Optional[int] = None
    # reference answer, filled after set-up: the backbone of a report case,
    # the level-2 forced literals of a uc case
    expected: object = None
    path: str = ""

    def argv(self) -> list[str]:
        return [self.command, self.path, *self.argv_tail]


def _as_clauses(formula) -> tuple[Clause, ...]:
    ids = formula.clause_ids()
    if list(ids) != list(range(1, len(ids) + 1)):
        raise RuntimeError("generator returned non-contiguous clause ids")
    return tuple(tuple(sorted(c, key=abs)) for c in formula.literal_sets())


def _unique_model(clauses, model) -> bool:
    return len(backbones(clauses, model)) == len({abs(l) for c in clauses for l in c})


def _satisfiable_draws(build, count: int, base: int, accept=None):
    """Yield (subseed, clauses, model) for the first `count` satisfiable draws
    that `accept(clauses, model)` also takes."""
    subseed = base
    kept = 0
    while kept < count:
        for _ in range(MAX_DRAWS):
            clauses = _as_clauses(build(subseed))
            model = solve(clauses)
            subseed += 1
            if model is not None and (accept is None or accept(clauses, model)):
                break
        else:
            raise RuntimeError(f"no satisfiable draw in {MAX_DRAWS} tries from {base}")
        kept += 1
        yield subseed - 1, clauses, model


def _colored_graph(gen, rng: random.Random, per_color: int, n_edges: int, plant: bool):
    colors = {}
    for c in range(1, 4):
        for _ in range(per_color):
            colors[len(colors) + 1] = c
    pairs = [
        (u, v) for u, v in combinations(sorted(colors), 2) if colors[u] != colors[v]
    ]
    edges = set(rng.sample(pairs, n_edges))
    if plant:
        pick = [rng.choice([v for v in colors if colors[v] == c]) for c in range(1, 4)]
        edges.update(tuple(sorted(p)) for p in combinations(pick, 2))
    has_clique = any(
        all((min(a, b), max(a, b)) in edges for a, b in combinations(trio, 2))
        for trio in combinations(sorted(colors), 3)
        if len({colors[v] for v in trio}) == 3
    )
    return gen.ColoredGraph(colors, frozenset(edges)), has_clique


def _structured(gen, seed: int) -> list[Case]:
    cases = []
    repeats, low, high = CYCLES
    for n in range(low, high + 1):  # n > 8 reports ">8" at the default kmax
        clauses = _as_clauses(gen.implication_cycle(n))
        for i in range(repeats):
            cases.append(Case(f"cycle-n{n}-{i}", (), "report", clauses,
                              solve(clauses), {"cycle": n}))
    for i, spec in enumerate(STRUCTURED_RANDOM, start=1):
        cases += _random(gen, seed, spec, i * 10_000, "report", ())
    count, per_color, n_edges, every, planted = CLIQUES
    for subseed in range(count):
        graph, has_clique = _colored_graph(
            gen, random.Random(subseed), per_color, n_edges,
            plant=subseed % every < planted,
        )
        instance = gen.colored_clique_to_hyperpath(graph, 3)
        formula, target, within = gen.hyperpath_to_definite_horn(instance)
        clauses = _as_clauses(formula)
        cases.append(Case(
            f"clique-{subseed}", (), "report", clauses, solve(clauses),
            {"target": target, "within": within, "clique": has_clique},
        ))
    return cases


def _random(gen, seed, spec, offset, command, tail, accept=None):
    family, count, n, m, d = spec
    draws = _satisfiable_draws(
        lambda s: gen.random_formula(family, n, m, s, d=d),
        count, seed * SUBSEED_STRIDE + offset, accept,
    )
    return [
        Case(f"{command}-{family}-{n}-{m}-s{subseed}", tail, command, clauses,
             model, subseed=subseed)
        for subseed, clauses, model in draws
    ]


def build_cases(workload: str, seed: int, gen) -> list[Case]:
    """The cases of a workload in run order; `gen` is satbones.generators.

    The order is shuffled, so that any stretch of it, such as the part a
    traced run takes, mixes all the workload's families.
    """
    if workload == "structured":
        cases = _structured(gen, seed)
    elif workload == "random-deep":
        cases = _random(gen, seed, RANDOM_DEEP, 0, "report", ("--kmax", "4"),
                        _unique_model)
    elif workload == "wide":
        cases = []
        for i, (command, tail, seeded, *spec) in enumerate(WIDE):
            cases += _random(gen, seed if seeded else 0, spec, i * 50_000, command, tail)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"order:{workload}:{seed}").shuffle(cases)
    return cases


def probe_cases(workload: str, gen) -> list[Case]:
    """Known-defect probes: run once per run, reported, never timed."""
    if workload != "wide":
        return []
    clauses = tuple((2 * i - 1, 2 * i) for i in range(1, PROBE_DISJOINT + 1))
    model = {v: True for v in range(1, 2 * PROBE_DISJOINT + 1)}
    return [Case(f"solve-disjoint-{PROBE_DISJOINT}", (), "solve", clauses, model)]
