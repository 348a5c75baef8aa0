"""Instance builders: planted reductions, the hyperpath oracle, a hard cycle
family, and seeded random formula families.

The reductions are constructive equivalences usable as self-checking test
instances: each builder's output carries a known answer that the analysis
modules must reproduce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Optional

from .formula import CnfFormula, FormulaClassError, classify


class InfeasibleParameters(ValueError):
    """Requested random-instance parameters cannot be met."""


# ---------------------------------------------------------------------------
# unsat-subset <-> backbone coupling


def add_guard_variable(formula: CnfFormula) -> tuple[CnfFormula, int]:
    """Add a fresh variable positively to every clause.

    Any subset of the result entails the new variable exactly when the
    matching original clauses are unsatisfiable, so the new variable is a
    k-backbone of the result iff the input has an unsatisfiable subset of at
    most k clauses.  The fresh variable never occurs negatively.
    """
    z = formula.max_var + 1
    clauses = {cid: c | {z} for cid, c in formula.clauses()}
    names = dict(formula.var_names)
    names.setdefault(z, "guard")
    return CnfFormula(clauses, names), z


# ---------------------------------------------------------------------------
# hyperpaths in definite Horn formulas


@dataclass(frozen=True)
class HyperpathInstance:
    formula: CnfFormula
    source: int
    target: int
    budget: int


def _head_and_body(clause: frozenset[int]) -> tuple[int, frozenset[int]]:
    positives = [l for l in clause if l > 0]
    if len(positives) != 1:
        raise FormulaClassError("hyperpath clauses must be definite Horn")
    return positives[0], frozenset(abs(l) for l in clause if l < 0)


def is_k_hyperpath(
    formula: CnfFormula, clause_ids: Iterable[int], s: int, t: int, k: int
) -> bool:
    """Whether the chosen clauses derive t from s and number at most k.

    Recursive check: t equals s, or some chosen clause has head t and the
    remaining clauses derive each of its body variables from s.
    """
    ids = frozenset(clause_ids)
    if len(ids) > k:
        return False
    heads: dict[int, tuple[int, frozenset[int]]] = {}
    for cid in ids:
        heads[cid] = _head_and_body(formula.clause(cid))
    memo: dict[tuple[frozenset[int], int], bool] = {}

    def derives(available: frozenset[int], goal: int) -> bool:
        if goal == s:
            return True
        key = (available, goal)
        if key in memo:
            return memo[key]
        result = False
        for cid in available:
            head, body = heads[cid]
            if head != goal:
                continue
            rest = available - {cid}
            if all(derives(rest, v) for v in body):
                result = True
                break
        memo[key] = result
        return result

    return derives(ids, t)


def shortest_hyperpath(
    formula: CnfFormula, s: int, t: int, kmax: int
) -> Optional[int]:
    """Minimum number of clauses deriving t from s, or None beyond kmax.

    Exhaustive over clause subsets by increasing size; exact oracle for
    desk-scale instances.
    """
    if not classify(formula).is_definite_horn:
        raise FormulaClassError("formula is not definite Horn")
    if t == s:
        return 0
    ids = formula.clause_ids()
    for size in range(1, min(kmax, len(ids)) + 1):
        for combo in combinations(ids, size):
            if is_k_hyperpath(formula, combo, s, t, size):
                return size
    return None


# ---------------------------------------------------------------------------
# colored clique -> hyperpath


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


def colored_clique_to_hyperpath(
    graph: ColoredGraph, k: int, three_cnf: bool = False
) -> HyperpathInstance:
    """Encode "does the graph have a clique with one vertex per color?".

    The output instance has a hyperpath from source to target within the
    returned budget exactly when such a clique exists.  The budget is
    k + C(k,2) + 1 with a single wide collector clause, or k + 2*C(k,2) + 1
    when ``three_cnf`` rewrites the collector into a chain of ternary
    clauses.
    """
    classes = graph.color_classes()
    if sorted(classes) != list(range(1, k + 1)):
        raise ValueError(f"graph is not properly colored with colors 1..{k}")
    pairs = list(combinations(range(1, k + 1), 2))
    names: dict[int, str] = {1: "s"}
    vertex_var: dict[int, int] = {}
    nxt = 2
    for v in sorted(graph.colors):
        vertex_var[v] = nxt
        names[nxt] = f"v{v}"
        nxt += 1
    pair_var: dict[tuple[int, int], int] = {}
    for i, j in pairs:
        pair_var[(i, j)] = nxt
        names[nxt] = f"p{i}_{j}"
        nxt += 1
    chain_var: dict[int, int] = {}
    if three_cnf:
        for r in range(1, len(pairs) + 1):
            chain_var[r] = nxt
            names[nxt] = f"chain{r}"
            nxt += 1
    t = nxt
    names[t] = "t"

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
    if three_cnf:
        ordered = [pair_var[p] for p in pairs]
        clauses[cid] = frozenset((-ordered[0], chain_var[1]))
        cid += 1
        for r in range(2, len(pairs) + 1):
            clauses[cid] = frozenset(
                (-chain_var[r - 1], -ordered[r - 1], chain_var[r])
            )
            cid += 1
        clauses[cid] = frozenset((-chain_var[len(pairs)], t))
        budget = k + 2 * len(pairs) + 1
    else:
        clauses[cid] = frozenset([-pair_var[p] for p in pairs] + [t])
        budget = k + len(pairs) + 1
    return HyperpathInstance(CnfFormula(clauses, names), 1, t, budget)


# ---------------------------------------------------------------------------
# hyperpath -> planted backbone instances


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
    return (
        CnfFormula(clauses, instance.formula.var_names),
        instance.target,
        instance.budget + 1,
    )


def hyperpath_to_unitfree_horn(
    instance: HyperpathInstance,
) -> tuple[CnfFormula, int, int]:
    """Plant the hyperpath answer as a negative backbone on unit-free Horn.

    Requires a ternary-width, unit-free instance whose target-headed clauses
    all have size 3.  Those clauses lose their head; the source literal
    (negatively) is a budget-backbone of the result iff the instance has a
    hyperpath within budget.  Clause ids are preserved.
    """
    formula, t = instance.formula, instance.target
    flags = classify(formula)
    if not flags.is_definite_horn or flags.max_clause_width > 3:
        raise FormulaClassError("input must be definite Horn with width <= 3")
    clauses: dict[int, frozenset[int]] = {}
    for cid, c in formula.clauses():
        if len(c) < 2:
            raise ValueError("input must not contain unit clauses")
        head, _ = _head_and_body(c)
        if head == t:
            if len(c) != 3:
                raise ValueError(
                    "every clause with the target as head must have size 3"
                )
            clauses[cid] = c - {t}
        else:
            clauses[cid] = c
    return (
        CnfFormula(clauses, formula.var_names),
        -instance.source,
        instance.budget,
    )


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
