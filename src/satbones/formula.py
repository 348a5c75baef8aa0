"""Propositional core: literals, clauses, CNF formulas, reducts, classification.

Literals are nonzero integers in the usual DIMACS convention: ``v`` is the
positive literal of variable ``v >= 1`` and ``-v`` its complement, so
``-(-l) == l`` holds for free.  A clause is a set of literals that never
contains a complementary pair; a formula is a set of clauses, each carrying a
stable integer id so that witness subsets keep pointing at the clauses of the
original input after reducts and transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Optional


class TautologicalClauseError(ValueError):
    """A clause contained both a literal and its complement."""


class ComplementaryLiteralsError(ValueError):
    """A literal set meant to be asserted jointly contained l and -l."""


class FormulaClassError(ValueError):
    """A formula was passed to an algorithm for a class it does not belong to."""


def literal_order(literals: Iterable[int]) -> list[int]:
    """Literals in scan order: ascending variable, positive polarity first."""
    return sorted(literals, key=lambda l: (abs(l), l < 0))


@dataclass(frozen=True)
class FormulaClass:
    """Syntactic class flags of a formula, computed in a single pass."""

    max_clause_width: int
    is_krom: bool
    is_horn: bool
    is_definite_horn: bool
    is_nuhorn: bool
    max_occurrence: int

    def as_dict(self) -> dict:
        return {
            "max_clause_width": self.max_clause_width,
            "krom": self.is_krom,
            "horn": self.is_horn,
            "definite_horn": self.is_definite_horn,
            "nuhorn": self.is_nuhorn,
            "max_occurrence": self.max_occurrence,
        }


class CnfFormula:
    """An immutable CNF formula: a set of clauses keyed by stable clause ids.

    Clause contents follow set semantics: duplicate literals collapse, and
    clauses with identical literal sets collapse to the one with the smallest
    id.  All operations return new formulas; nothing here mutates.
    """

    def __init__(self, clauses: Mapping[int, Iterable[int]]):
        seen: dict[frozenset[int], int] = {}
        ordered: dict[int, frozenset[int]] = {}
        for cid in sorted(clauses):
            lits = frozenset(clauses[cid])
            for l in lits:
                if not isinstance(l, int) or l == 0:
                    raise ValueError(f"bad literal {l!r} in clause {cid}")
                if -l in lits:
                    raise TautologicalClauseError(
                        f"clause {cid} contains both {l} and {-l}"
                    )
            if lits in seen:
                continue
            seen[lits] = cid
            ordered[cid] = lits
        self._clauses = ordered

    @classmethod
    def from_clauses(cls, clause_literals: Iterable[Iterable[int]]) -> "CnfFormula":
        """Build a formula assigning ids 1..m in input order."""
        return cls({i: lits for i, lits in enumerate(clause_literals, start=1)})

    def clauses(self) -> tuple[tuple[int, frozenset[int]], ...]:
        return tuple(self._clauses.items())

    def clause(self, cid: int) -> frozenset[int]:
        return self._clauses[cid]

    def clause_ids(self) -> tuple[int, ...]:
        return tuple(self._clauses)

    def literal_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(self._clauses.values())

    def __len__(self) -> int:
        return len(self._clauses)

    @property
    def length(self) -> int:
        """Total number of literal occurrences."""
        return sum(len(c) for c in self._clauses.values())

    @cached_property
    def variables(self) -> frozenset[int]:
        return frozenset(abs(l) for c in self._clauses.values() for l in c)

    @cached_property
    def literals(self) -> frozenset[int]:
        """Both polarities of every occurring variable."""
        return frozenset(s * v for v in self.variables for s in (1, -1))

    @property
    def max_var(self) -> int:
        return max(self.variables, default=0)

    def empty_clause_id(self) -> Optional[int]:
        for cid, c in self._clauses.items():
            if not c:
                return cid
        return None

    def subset(self, clause_ids: Iterable[int]) -> "CnfFormula":
        """Sub-formula induced by the given clause ids (ids preserved)."""
        return CnfFormula({cid: self._clauses[cid] for cid in clause_ids})

    def reduct(self, assert_literals: Iterable[int]) -> "CnfFormula":
        """Assert the given literals: drop satisfied clauses, strip complements.

        Clause ids survive, so a clause of the reduct is traceable to the
        clause of the original formula it came from.  A stripped clause equal
        to an earlier one is dropped, so the smallest id wins, as in the
        constructor.  The result is built directly, without the constructor's
        checks: clauses stay in ascending id order, and a subset of a valid,
        non-tautological clause is valid and non-tautological.
        """
        asserted = frozenset(assert_literals)
        for l in asserted:
            if -l in asserted:
                raise ComplementaryLiteralsError(
                    f"cannot assert both {l} and {-l}"
                )
        complements = frozenset(-l for l in asserted)
        out: dict[int, frozenset[int]] = {}
        seen: set[frozenset[int]] = set()
        for cid, c in self._clauses.items():
            if not c.isdisjoint(asserted):
                continue
            if not c.isdisjoint(complements):
                c = c - complements
            if c in seen:
                continue
            seen.add(c)
            out[cid] = c
        result = CnfFormula.__new__(CnfFormula)
        result._clauses = out
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, CnfFormula):
            return NotImplemented
        return self._clauses == other._clauses

    def __hash__(self) -> int:
        # ids are ascending on every construction path, so equal formulas
        # list their clauses in the same order
        return hash(tuple(self._clauses.items()))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{cid}:{{{','.join(map(str, sorted(c)))}}}"
            for cid, c in self._clauses.items()
        )
        return f"CnfFormula({inner})"


def classify(formula: CnfFormula) -> FormulaClass:
    """Compute all class flags of a formula in one pass.

    ``max_occurrence`` is the smallest d such that every variable occurs in
    at most d clauses (0 for the empty formula).
    """
    max_width = 0
    horn = True
    definite = True
    has_unit = False
    occurrence: dict[int, int] = {}
    for _, c in formula.clauses():
        max_width = max(max_width, len(c))
        positives = sum(1 for l in c if l > 0)
        if positives > 1:
            horn = False
        if positives != 1:
            definite = False
        if len(c) == 1:
            has_unit = True
        for l in c:
            occurrence[abs(l)] = occurrence.get(abs(l), 0) + 1
    return FormulaClass(
        max_clause_width=max_width,
        is_krom=max_width <= 2,
        is_horn=horn,
        is_definite_horn=definite,
        is_nuhorn=horn and not has_unit,
        max_occurrence=max(occurrence.values(), default=0),
    )
