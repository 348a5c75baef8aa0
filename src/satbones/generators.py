"""Instance builders: the colored-clique hyperpath plant, a hard cycle
family, and seeded random formula families.

Each builder's output carries a known answer that the analysis modules
must reproduce.  The proof-side reductions (the guard variable, hyperpath
search, the unit-free Horn plant and the ternary collector) are kept in
``tests/conftest.py`` as references for the tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from .formula import CnfFormula, FormulaClassError, classify


class InfeasibleParameters(ValueError):
    """Requested random-instance parameters cannot be met."""


# ---------------------------------------------------------------------------
# colored clique -> hyperpath


@dataclass(frozen=True)
class HyperpathInstance:
    formula: CnfFormula
    source: int
    target: int
    budget: int


@dataclass(frozen=True)
class ColoredGraph:
    """Vertices with colors and undirected edges; coloring must be proper."""

    colors: dict[int, int]
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        for u, v in self.edges:
            if u not in self.colors or v not in self.colors:
                raise ValueError(f"edge ({u},{v}) uses an unknown vertex")
            if self.colors[u] == self.colors[v]:
                raise ValueError(
                    f"edge ({u},{v}) joins two vertices of color {self.colors[u]}"
                )

    def color_classes(self) -> dict[int, list[int]]:
        classes: dict[int, list[int]] = {}
        for v in sorted(self.colors):
            classes.setdefault(self.colors[v], []).append(v)
        return classes


def colored_clique_to_hyperpath(graph: ColoredGraph, k: int) -> HyperpathInstance:
    """Encode "does the graph have a clique with one vertex per color?".

    The output instance has a hyperpath from source to target within the
    returned budget k + C(k,2) + 1 exactly when such a clique exists.
    Variables: the source 1, one per vertex in ascending vertex order, one
    per color pair, then the target.  Clauses: source -> vertex, one per
    edge (both ends -> their color pair), and last one wide collector
    clause (all color pairs -> target).
    """
    classes = graph.color_classes()
    if sorted(classes) != list(range(1, k + 1)):
        raise ValueError(f"graph is not properly colored with colors 1..{k}")
    pairs = list(combinations(range(1, k + 1), 2))
    vertex_var = {v: i for i, v in enumerate(sorted(graph.colors), start=2)}
    pair_var = {p: i for i, p in enumerate(pairs, start=len(vertex_var) + 2)}
    t = len(vertex_var) + len(pairs) + 2

    clauses: dict[int, frozenset[int]] = {}
    cid = 1
    for v in sorted(graph.colors):
        clauses[cid] = frozenset((-1, vertex_var[v]))
        cid += 1
    for u, v in sorted(tuple(sorted(e)) for e in graph.edges):
        if graph.colors[u] > graph.colors[v]:
            u, v = v, u
        i, j = graph.colors[u], graph.colors[v]
        clauses[cid] = frozenset((-vertex_var[u], -vertex_var[v], pair_var[(i, j)]))
        cid += 1
    clauses[cid] = frozenset([-pair_var[p] for p in pairs] + [t])
    return HyperpathInstance(CnfFormula(clauses), 1, t, k + len(pairs) + 1)


# ---------------------------------------------------------------------------
# hyperpath -> planted backbone instance


def hyperpath_to_definite_horn(
    instance: HyperpathInstance,
) -> tuple[CnfFormula, int, int]:
    """Plant the hyperpath answer as a backbone question on definite Horn.

    Prepends a unit clause asserting the source; the target is then a
    (budget+1)-backbone of the result iff the instance has a hyperpath
    within budget.
    """
    if not classify(instance.formula).is_definite_horn:
        raise FormulaClassError("formula is not definite Horn")
    clauses: dict[int, frozenset[int]] = {1: frozenset((instance.source,))}
    for i, (_, c) in enumerate(instance.formula.clauses(), start=2):
        clauses[i] = c
    return CnfFormula(clauses), instance.target, instance.budget + 1


# ---------------------------------------------------------------------------
# fixed families


def implication_cycle(n: int) -> CnfFormula:
    """Chain x1 -> x2 -> ... -> xn closed by a clause forbidding xn and x1.

    The only backbone is x1, forced negative, and both its order and its
    iterative order equal n.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    clauses: dict[int, frozenset[int]] = {
        i: frozenset((-i, i + 1)) for i in range(1, n)
    }
    clauses[n] = frozenset((-n, -1))
    return CnfFormula(clauses)


def random_formula(
    family: str,
    n: int,
    m: int,
    seed: int,
    d: Optional[int] = None,
    min_width: int = 1,
) -> CnfFormula:
    """Seeded random formula of a given class; the class holds by construction.

    Families: "3cnf" (width exactly 3), "krom" (width 2 with occasional
    units), "horn" (at most one positive literal), "definite_horn" (exactly
    one positive), "vo" (every variable in at most d clauses, requires d; no
    other family takes d).
    ``min_width`` raises the smallest clause width, e.g. 2 for unit-free
    definite Horn.  Clauses are distinct; identical parameters and seed give
    identical formulas.
    """
    if n < 1 or m < 1:
        raise InfeasibleParameters("need n >= 1 and m >= 1")
    rng = random.Random(f"{family}:{n}:{m}:{seed}:{d}:{min_width}")
    widths = {
        "3cnf": (3, 3),
        "krom": (1, 2),
        "horn": (1, 3),
        "definite_horn": (1, 3),
        "vo": (2, 3),
    }
    if family not in widths:
        raise InfeasibleParameters(f"unknown family {family!r}")
    low, high = widths[family]
    low = max(low, min_width)
    if low > high or low > n:
        raise InfeasibleParameters(f"cannot build width-{low} clauses over {n} variables")
    if family == "vo":
        if d is None:
            raise InfeasibleParameters("family 'vo' requires d")
        if m * low > n * d:
            raise InfeasibleParameters(
                f"{m} clauses of width >= {low} cannot fit {n} variables {d} times"
            )
    elif d is not None:
        raise InfeasibleParameters(f"family {family!r} takes no occurrence bound")
    occurrences: dict[int, int] = {v: 0 for v in range(1, n + 1)}

    def draw() -> Optional[frozenset[int]]:
        if family == "3cnf":
            width = 3
        elif family == "krom":
            width = 1 if (low <= 1 and rng.random() < 0.15) else 2
        else:
            width = rng.randint(low, high)
        if family == "vo":
            pool = [v for v in range(1, n + 1) if occurrences[v] < d]
        else:
            pool = list(range(1, n + 1))
        if len(pool) < width:
            return None
        variables = rng.sample(pool, width)
        if family in ("horn", "definite_horn"):
            with_head = family == "definite_horn" or rng.random() < 0.5
            lits = [-v for v in variables]
            if with_head:
                head = rng.randrange(width)
                lits[head] = -lits[head]
        else:
            lits = [v if rng.random() < 0.5 else -v for v in variables]
        return frozenset(lits)

    clauses: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    attempts = 0
    while len(clauses) < m:
        attempts += 1
        if attempts > 200 * m:
            raise InfeasibleParameters(
                f"could not draw {m} distinct clauses for family {family!r}"
            )
        c = draw()
        if c is None or c in seen:
            continue
        seen.add(c)
        clauses.append(c)
        for l in c:
            occurrences[abs(l)] += 1
    return CnfFormula.from_clauses(clauses)
