"""k-backbones, backbone order, and the iterative variants.

Every forcing question is one test: a literal is forced by at most k clauses
exactly when the reduct by its complement (which keeps clause ids) has an
unsatisfiable subset of at most k clauses.  ``is_k_backbone`` answers it for
one variable with the minimum witness of either polarity (negative on a
tie), whose size is the variable's order, and ``local_backbones`` collects
the variables it accepts.  ``backbone_orders`` gives the report both orders
from one search per backbone.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Optional

from .formula import CnfFormula, literal_order
from .solver import UnsatFormulaError
from .unsat_subsets import sus_search


class IterativeResult(NamedTuple):
    forced: tuple[int, ...]
    variables: frozenset[int]


def _require_variable(formula: CnfFormula, var: int) -> None:
    if var not in formula.variables:
        raise ValueError(f"variable {var} not in formula")


def _witness(formula: CnfFormula, lit: int, k: int) -> Optional[tuple[int, ...]]:
    """Fewest clauses, at most k, entailing lit, as ascending clause ids: the
    minimum unsatisfiable subset of the -lit reduct."""
    return sus_search(formula.reduct((-lit,)), k)


def is_k_backbone(
    formula: CnfFormula, var: int, k: int
) -> tuple[bool, Optional[bool], Optional[tuple[int, ...]]]:
    """Decide whether var is forced by some subset of at most k clauses.

    Returns (verdict, forced polarity, witness over original clause ids):
    the smallest witness of either polarity.  A tie in size goes to the
    negative polarity, so the positive one is searched only below the size
    of the negative one's witness; only unsatisfiable input forces both.
    """
    _require_variable(formula, var)
    negative = _witness(formula, -var, k)
    bound = k if negative is None else len(negative) - 1
    positive = _witness(formula, var, bound) if bound else None
    if positive is not None:
        return True, True, positive
    if negative is not None:
        return True, False, negative
    return False, None, None


def local_backbones(formula: CnfFormula, k: int) -> dict[int, bool]:
    """All k-backbone variables with the polarity ``is_k_backbone`` gives,
    in ascending variable order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    found = {}
    for var in sorted(formula.variables):
        verdict, polarity, _ = is_k_backbone(formula, var, k)
        if verdict:
            found[var] = polarity
    return found


def force_fixpoint(
    formula: CnfFormula, forced_in: Callable[[CnfFormula], list[int]]
) -> IterativeResult:
    """Repeatedly assert the literals of one forcing round and reduce.

    ``forced_in(current)`` returns the literals forced in the current
    formula, in scan order; the round's literals are asserted together and
    the next round scans the reduct, until a round forces nothing.  Raises
    UnsatFormulaError if a contradiction surfaces (an empty clause, or both
    polarities of a variable forced in one round).
    """
    current = formula
    forced: list[int] = []
    while True:
        if current.empty_clause_id() is not None:
            raise UnsatFormulaError("empty clause reached")
        new_literals = forced_in(current)
        if not new_literals:
            return IterativeResult(
                tuple(forced), frozenset(abs(l) for l in forced)
            )
        round_set = set(new_literals)
        for lit in new_literals:
            if -lit in round_set:
                raise UnsatFormulaError(
                    f"both polarities of variable {abs(lit)} are forced"
                )
        forced.extend(new_literals)
        current = current.reduct(new_literals)


def iterative_k_backbones(formula: CnfFormula, k: int) -> IterativeResult:
    """Repeatedly assert k-forced literals and reduce, until fixpoint.

    One round scans every literal of the current formula (ascending variable,
    positive polarity first) and tests whether asserting its complement
    leaves an unsatisfiable subset of at most k clauses; the consequences are
    applied between rounds.  Raises UnsatFormulaError if a contradiction
    surfaces.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return force_fixpoint(
        formula,
        lambda current: [
            lit for lit in literal_order(current.literals)
            if _witness(current, lit, k) is not None
        ],
    )


def backbone_orders(
    formula: CnfFormula, backbone: Mapping[int, bool], kmax: int
) -> tuple[dict[int, Optional[tuple[int, ...]]], dict[int, int]]:
    """Minimum witness and iterative order of each backbone, up to kmax
    (None and no entry beyond it).

    ``backbone`` is the full backbone of a satisfiable formula.  No subset
    entails its other polarity, so one minimum search per backbone literal
    gives ``is_k_backbone``'s witness.  Each unplaced literal keeps its
    order in the residual, which only shrinks as entailed literals are
    asserted: at each k the literals of order <= k are asserted together and
    the rest searched again below their order, which reaches the fixpoint of
    ``iterative_k_backbones`` from the (k-1) residual.
    """
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    literal = {v: v if backbone[v] else -v for v in backbone}
    witness = {v: _witness(formula, l, kmax) for v, l in literal.items()}
    order = {v: len(w) if w else kmax + 1 for v, w in witness.items()}
    iterative: dict[int, int] = {}
    current = formula
    for k in range(1, kmax + 1):
        while ready := [v for v in order if order[v] <= k]:
            for v in ready:
                iterative[v] = k
                del order[v]
            current = current.reduct(literal[v] for v in ready)
            for v in order:
                found = _witness(current, literal[v], order[v] - 1)
                if found is not None:
                    order[v] = len(found)
    return witness, iterative
