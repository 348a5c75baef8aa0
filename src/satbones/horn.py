"""Definite Horn reasoning: counter-based forward chaining.

For definite Horn formulas the iterative k-backbones are exactly the
entailed variables, independent of k, so one linear forward-chaining pass
computes them.  The report keeps the generic iterative fixpoint; this pass
is its checked equivalent on the class.
"""

from __future__ import annotations

from collections import deque

from .formula import CnfFormula, FormulaClassError, classify


def horn_consequences(formula: CnfFormula) -> frozenset[int]:
    """Variables entailed by a definite Horn formula, in linear time.

    Seeds with unit clauses and fires a clause once all variables of its
    negative literals have been derived.
    """
    if not classify(formula).is_definite_horn:
        raise FormulaClassError("formula is not definite Horn")
    pending: dict[int, int] = {}
    head: dict[int, int] = {}
    watchers: dict[int, list[int]] = {}
    queue: deque[int] = deque()
    derived: set[int] = set()
    for cid, c in formula.clauses():
        body = [abs(l) for l in c if l < 0]
        (positive,) = [l for l in c if l > 0]
        pending[cid] = len(body)
        head[cid] = positive
        for v in body:
            watchers.setdefault(v, []).append(cid)
        if not body and positive not in derived:
            derived.add(positive)
            queue.append(positive)
    while queue:
        v = queue.popleft()
        for cid in watchers.get(v, ()):
            pending[cid] -= 1
            if pending[cid] == 0 and head[cid] not in derived:
                derived.add(head[cid])
                queue.append(head[cid])
    return frozenset(derived)
