"""Krom (2-CNF) reasoning over the implication graph.

Each binary clause {a, b} contributes the edges -a -> b and -b -> a; a unit
clause {a} contributes the self-loop-like edge -a -> a.  A path from a
literal to its own complement forces that complement, and iterating this
rule computes the iterative k-backbones of a Krom formula when paths are
capped at k edges.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .backbones import IterativeResult, force_fixpoint
from .formula import CnfFormula, FormulaClassError, classify, literal_order


class ImplicationGraph:
    """Directed graph on the literals of a Krom formula, edges labelled by
    the clause that induced them."""

    def __init__(self, formula: CnfFormula):
        if not classify(formula).is_krom:
            raise FormulaClassError("formula is not Krom")
        self.edges: dict[int, list[tuple[int, int]]] = {}
        for v in formula.variables:
            self.edges[v] = []
            self.edges[-v] = []
        for cid, c in formula.clauses():
            if len(c) == 1:
                (a,) = c
                self.edges[-a].append((a, cid))
            elif len(c) == 2:
                a, b = sorted(c)
                self.edges[-a].append((b, cid))
                self.edges[-b].append((a, cid))

    def distance(self, source: int, goal: int, max_edges: int) -> Optional[int]:
        """Fewest edges on a path source -> goal, None beyond max_edges."""
        if source not in self.edges:
            return None
        seen = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            dist = seen[node]
            if dist == max_edges:
                continue
            for target, _ in self.edges[node]:
                if target not in seen:
                    seen[target] = dist + 1
                    if target == goal:
                        return dist + 1
                    queue.append(target)
        return seen.get(goal)


def krom_iterative_backbones(formula: CnfFormula, k: int) -> IterativeResult:
    """Iterative k-backbones of a Krom formula via bounded implication paths.

    A literal is forced when its complement reaches it within k edges; each
    round builds one implication graph of the current formula and forces
    every such literal (see force_fixpoint).  Raises UnsatFormulaError when
    a contradiction surfaces.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not classify(formula).is_krom:
        raise FormulaClassError("formula is not Krom")

    def forced_in(current: CnfFormula) -> list[int]:
        graph = ImplicationGraph(current)
        return [
            lit
            for lit in literal_order(current.literals)
            if graph.distance(-lit, lit, k) is not None
        ]

    return force_fixpoint(formula, forced_in)
