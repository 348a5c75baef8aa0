"""Backbone order distribution reports.

For a satisfiable instance: the full backbone set, the exact order and
iterative order of each backbone up to a cutoff, and the two cumulative
percentage curves over k.  Both orders come from ``backbone_orders``: one
search per backbone in its own polarity, whose orders seed the iterative
fixpoint, so only unplaced backbones are searched again, below their order.
Orders beyond the cutoff are reported as ">kmax" rather than approximated.
Output is deterministic: identical input and flags produce byte-identical
JSON and CSV.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .backbones import backbone_orders
from .formula import CnfFormula
from .solver import full_backbones


@dataclass(frozen=True)
class BackboneRecord:
    variable: int
    is_backbone: bool
    polarity: Optional[bool] = None
    order: Optional[int] = None
    iterative_order: Optional[int] = None
    witness_ids: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class OrderDistribution:
    instance: str
    n_vars: int
    n_clauses: int
    length: int
    kmax: int
    backbone_count: int
    records: tuple[BackboneRecord, ...]
    variable_names: tuple[tuple[int, str], ...] = ()

    def curve(self) -> list[tuple[int, float, float]]:
        """Rows (k, pct of backbones with order <= k, same for iterative)."""
        rows = []
        for k in range(1, self.kmax + 1):
            by_order = sum(
                1
                for r in self.records
                if r.is_backbone and r.order is not None and r.order <= k
            )
            by_iter = sum(
                1
                for r in self.records
                if r.is_backbone
                and r.iterative_order is not None
                and r.iterative_order <= k
            )
            rows.append((k, _pct(by_order, self.backbone_count),
                         _pct(by_iter, self.backbone_count)))
        return rows

    def to_json(self) -> str:
        def order_field(value: Optional[int], is_backbone: bool):
            if not is_backbone:
                return None
            return value if value is not None else f">{self.kmax}"

        payload = {
            "schema_version": 1,
            "instance": self.instance,
            "n_vars": self.n_vars,
            "n_clauses": self.n_clauses,
            "length": self.length,
            "kmax": self.kmax,
            "backbone_count": self.backbone_count,
            "variable_names": {str(v): name for v, name in self.variable_names},
            "curve": [
                {"k": k, "pct_order_leq_k": p, "pct_iter_leq_k": q}
                for k, p, q in self.curve()
            ],
            "variables": [
                {
                    "variable": r.variable,
                    "is_backbone": r.is_backbone,
                    "polarity": (
                        None
                        if r.polarity is None
                        else ("+" if r.polarity else "-")
                    ),
                    "order": order_field(r.order, r.is_backbone),
                    "iterative_order": order_field(
                        r.iterative_order, r.is_backbone
                    ),
                    "witness": (
                        list(r.witness_ids) if r.witness_ids else None
                    ),
                }
                for r in self.records
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        lines = ["k,pct_order_leq_k,pct_iter_leq_k"]
        for k, p, q in self.curve():
            lines.append(f"{k},{p:.1f},{q:.1f}")
        return "\n".join(lines) + "\n"


def _pct(count: int, total: int) -> float:
    if total == 0:
        return 0.0
    return round(100.0 * count / total, 1)


def build_report(
    formula: CnfFormula, kmax: int, instance: str = ""
) -> OrderDistribution:
    """Compute the distribution report; raises UnsatFormulaError when unsat."""
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    backbone = full_backbones(formula)
    variables = sorted(formula.variables)
    witness_of, iter_order = backbone_orders(formula, backbone, kmax)

    records = []
    for v in variables:
        if v in backbone:
            witness = witness_of[v]
            records.append(
                BackboneRecord(
                    variable=v,
                    is_backbone=True,
                    polarity=backbone[v],
                    order=len(witness) if witness else None,
                    iterative_order=iter_order.get(v),
                    witness_ids=witness,
                )
            )
        else:
            records.append(BackboneRecord(variable=v, is_backbone=False))
    return OrderDistribution(
        instance=instance,
        n_vars=len(variables),
        n_clauses=len(formula),
        length=formula.length,
        kmax=kmax,
        backbone_count=len(backbone),
        records=tuple(records),
        variable_names=tuple(
            (v, formula.var_names[v])
            for v in variables
            if v in formula.var_names
        ),
    )
