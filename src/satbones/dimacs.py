"""DIMACS CNF reading and writing.

Accepted input: ``c`` comment lines, a ``p cnf <vars> <clauses>`` header,
then 0-terminated clauses which may span lines.  A line consisting of ``%``
ends the clause section (a convention of some benchmark suites).
Tautological clauses are rejected by default; with ``strict=False`` they are
dropped with a diagnostic instead.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from .formula import CnfFormula, literal_order


class DimacsError(ValueError):
    """Unrecoverable problem in a DIMACS input."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_dimacs(
    data: Union[str, bytes],
    strict: bool = True,
    warn: Optional[Callable[[str], None]] = None,
) -> CnfFormula:
    """Parse DIMACS CNF text into a formula.

    Clause ids are assigned by position in the file (1-based); a clause
    dropped in lenient mode still consumes its id.  Non-fatal issues (a
    variable exceeding the declared count, a clause count mismatch) are
    reported through ``warn`` and parsing continues.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8", errors="replace")
    diag = warn if warn is not None else (lambda msg: None)

    declared_vars: Optional[int] = None
    declared_clauses: Optional[int] = None
    clauses: dict[int, set[int]] = {}
    pending: list[int] = []
    next_id = 1
    last_line = 0

    def close_clause(line_no: int) -> None:
        nonlocal next_id, pending
        lits = pending
        pending = []
        cid = next_id
        next_id += 1
        seen = set()
        for l in lits:
            if declared_vars is not None and abs(l) > declared_vars:
                diag(
                    f"line {line_no}: clause {cid} uses variable {abs(l)} "
                    f"beyond declared {declared_vars}"
                )
            if -l in seen:
                if strict:
                    raise DimacsError(line_no, f"tautological clause {cid}")
                diag(f"line {line_no}: dropped tautological clause {cid}")
                return
            seen.add(l)
        clauses[cid] = seen

    for line_no, raw in enumerate(data.splitlines(), start=1):
        last_line = line_no
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            fields = line.split()
            if (
                declared_vars is not None
                or len(fields) != 4
                or fields[1] != "cnf"
            ):
                raise DimacsError(line_no, f"malformed header {line!r}")
            try:
                declared_vars = int(fields[2])
                declared_clauses = int(fields[3])
            except ValueError:
                raise DimacsError(line_no, f"malformed header {line!r}") from None
            if declared_vars < 0 or declared_clauses < 0:
                raise DimacsError(line_no, f"malformed header {line!r}")
            continue
        if declared_vars is None:
            raise DimacsError(line_no, "clause data before 'p cnf' header")
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsError(line_no, f"non-integer token {token!r}") from None
            if lit == 0:
                close_clause(line_no)
            else:
                pending.append(lit)

    if pending:
        raise DimacsError(last_line, "unterminated clause at end of input")
    if declared_vars is None:
        raise DimacsError(last_line, "missing 'p cnf' header")
    parsed = next_id - 1
    if declared_clauses is not None and parsed != declared_clauses:
        diag(f"header declared {declared_clauses} clauses, file has {parsed}")
    return CnfFormula(clauses)


def emit_dimacs(formula: CnfFormula) -> str:
    """Serialize a formula; round-trips with parse_dimacs up to clause order."""
    lines = [f"p cnf {formula.max_var} {len(formula)}"]
    for _, c in formula.clauses():
        lits = literal_order(c)
        lines.append(" ".join(str(l) for l in lits + [0]))
    return "\n".join(lines) + "\n"
