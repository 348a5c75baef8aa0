"""Correctness gate: each function returns None for a correct CLI output or
a one-line reason.  Answers come from the case (planted values, reference
answers from `oracle`), never from the package under test."""

from __future__ import annotations

import json
from typing import Optional

from oracle import satisfies, truth_table_unsat
from workloads import Case


def _pct(count: int, total: int) -> float:
    return 0.0 if total == 0 else round(100.0 * count / total, 1)


def _parse_order(value, kmax: int) -> Optional[int]:
    """An int order, or None for the ">kmax" marker; raises otherwise."""
    if value == f">{kmax}":
        return None
    if isinstance(value, int) and not isinstance(value, bool) and 1 <= value <= kmax:
        return value
    raise ValueError(f"bad order {value!r}")


def check_report(case: Case, text: str) -> Optional[str]:
    data = json.loads(text)
    kmax = data["kmax"]
    clauses = case.clauses
    variables = sorted({abs(l) for c in clauses for l in c})
    if data["n_vars"] != len(variables) or data["n_clauses"] != len(clauses):
        return "instance size differs from the input"
    records = data["variables"]
    if [r["variable"] for r in records] != variables:
        return "variable list differs from the input"
    orders: dict[int, Optional[int]] = {}
    iterative: dict[int, Optional[int]] = {}
    for r in records:
        v = r["variable"]
        expected = case.expected.get(v)
        if r["is_backbone"] != (expected is not None):
            return f"variable {v}: is_backbone is {r['is_backbone']}"
        if expected is None:
            if any(r[key] is not None for key in
                   ("polarity", "order", "iterative_order", "witness")):
                return f"variable {v}: non-backbone carries order fields"
            continue
        if r["polarity"] != ("+" if expected else "-"):
            return f"variable {v}: wrong polarity {r['polarity']}"
        try:
            order = _parse_order(r["order"], kmax)
            iter_order = _parse_order(r["iterative_order"], kmax)
        except ValueError as exc:
            return f"variable {v}: {exc}"
        orders[v], iterative[v] = order, iter_order
        witness = r["witness"]
        if order is None:
            if witness is not None:
                return f"variable {v}: witness beyond kmax"
            continue
        # a k-backbone is an iterative k-backbone in the first round
        if iter_order is None or iter_order > order:
            return f"variable {v}: iterative order {iter_order} above order {order}"
        if (not isinstance(witness, list) or len(set(witness)) != order
                or not all(isinstance(i, int) and 1 <= i <= len(clauses) for i in witness)):
            return f"variable {v}: witness {witness} is not {order} clause ids"
        negated = -v if expected else v
        if not truth_table_unsat([clauses[i - 1] for i in witness] + [(negated,)]):
            return f"variable {v}: witness does not force {-negated}"
    count = len(orders)
    if data["backbone_count"] != count:
        return "backbone_count differs from the records"
    curve = [
        {
            "k": k,
            "pct_order_leq_k": _pct(sum(1 for o in orders.values() if o is not None and o <= k), count),
            "pct_iter_leq_k": _pct(sum(1 for o in iterative.values() if o is not None and o <= k), count),
        }
        for k in range(1, kmax + 1)
    ]
    if data["curve"] != curve:
        return "curve does not match the records"
    return _check_planted(case, kmax, orders, iterative)


def _check_planted(case: Case, kmax, orders, iterative) -> Optional[str]:
    planted = case.planted
    if "cycle" in planted:
        n = planted["cycle"]
        want = n if n <= kmax else None
        if set(orders) != {1} or orders[1] != want or iterative[1] != want:
            return f"cycle of {n}: order {orders.get(1)}, iterative {iterative.get(1)}"
    if "target" in planted:
        t, within = planted["target"], planted["within"]
        order = orders.get(t)
        forced_within = order is not None and order <= within
        if within <= kmax and forced_within != planted["clique"]:
            return f"hyperpath target order {order}, clique {planted['clique']}"
    return None


def check_uc(case: Case, text: str) -> Optional[str]:
    lines = text.splitlines()
    if len(lines) < 3:
        return "truncated output"
    forced = [int(x) for x in lines[:-3]]
    tail = lines[-3:]
    if tail[0] != f"total: {len(forced)}" or tail[2] != "contradiction: false":
        return f"unexpected summary {tail}"
    asserted = set(forced)
    if asserted != case.expected or len(forced) != len(asserted):
        return f"forced {sorted(asserted)}, expected {sorted(case.expected)}"
    residual = {
        frozenset(l for l in c if -l not in asserted)
        for c in case.clauses
        if not asserted.intersection(c)
    }
    if tail[1] != f"residual clauses: {len(residual)}":
        return f"{tail[1]}, expected {len(residual)}"
    return None


def check_solve(case: Case, text: str) -> Optional[str]:
    lines = text.splitlines()
    if len(lines) != 2 or lines[0] != "SATISFIABLE" or not lines[1].startswith("v "):
        return "expected SATISFIABLE and a model line"
    lits = [int(x) for x in lines[1].split()[1:]]
    if lits[-1:] != [0]:
        return "model line is not 0-terminated"
    model = {abs(l): l > 0 for l in lits[:-1]}
    if len(model) != len(case.model) or not satisfies(case.clauses, model):
        return "model does not satisfy the input"
    return None


CHECKS = {"report": check_report, "uc": check_uc, "solve": check_solve}


def check(case: Case, exit_code: int, text: str) -> Optional[str]:
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        return CHECKS[case.command](case, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
