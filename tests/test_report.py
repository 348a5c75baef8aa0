import json

import pytest

from conftest import F, iterative_order
from satbones import UnsatFormulaError, build_report, solve
from satbones.generators import implication_cycle, random_formula


def test_chain_report_curves():
    report = build_report(F([1], [-1, 2]), 2, instance="chain2")
    assert report.backbone_count == 2
    assert report.curve() == [(1, 50.0, 100.0), (2, 100.0, 100.0)]


def test_cycle_report_reaches_total_only_at_n():
    report = build_report(implication_cycle(6), 6)
    rows = report.curve()
    assert [row[1] for row in rows] == [0.0, 0.0, 0.0, 0.0, 0.0, 100.0]
    assert [row[2] for row in rows] == [0.0, 0.0, 0.0, 0.0, 0.0, 100.0]
    (record,) = [r for r in report.records if r.is_backbone]
    assert record.variable == 1
    assert record.polarity is False
    assert record.order == 6 and record.iterative_order == 6
    assert record.witness_ids and len(record.witness_ids) == 6


def test_no_backbones_report_is_well_formed():
    report = build_report(F([1, 2], [3, 4]), 3)
    assert report.backbone_count == 0
    assert all(p == 0.0 and q == 0.0 for _, p, q in report.curve())
    parsed = json.loads(report.to_json())
    assert parsed["backbone_count"] == 0
    assert parsed["schema_version"] == 1


def test_curves_monotone_and_iterative_dominates():
    report = build_report(F([1], [-1, 2], [-2, 3], [3, 4]), 4)
    rows = report.curve()
    for (_, p1, q1), (_, p2, q2) in zip(rows, rows[1:]):
        assert p1 <= p2 and q1 <= q2
    for _, p, q in rows:
        assert q >= p


def test_orders_beyond_cutoff_are_marked():
    report = build_report(implication_cycle(6), 3)
    parsed = json.loads(report.to_json())
    (record,) = [v for v in parsed["variables"] if v["is_backbone"]]
    assert record["order"] == ">3"
    assert record["iterative_order"] == ">3"


def test_report_deterministic():
    f = F([1], [-1, 2], [2, 3], [-3, 4], [1, 4])
    one = build_report(f, 4, instance="x")
    two = build_report(f, 4, instance="x")
    assert one.to_json() == two.to_json()
    assert one.to_csv() == two.to_csv()


def test_csv_schema():
    report = build_report(F([1]), 2)
    lines = report.to_csv().splitlines()
    assert lines[0] == "k,pct_order_leq_k,pct_iter_leq_k"
    assert lines[1:] == ["1,100.0,100.0", "2,100.0,100.0"]


def test_curves_reach_backbone_total_at_clause_count():
    from satbones import solve
    from satbones.generators import random_formula

    seen = 0
    for seed in range(30):
        f = random_formula("krom", 5, 6, seed)
        if solve(f) is None:
            continue
        seen += 1
        report = build_report(f, len(f))
        if report.backbone_count:
            _, p, q = report.curve()[-1]
            assert p == 100.0 and q == 100.0
    assert seen >= 15


def test_unsat_input_rejected():
    with pytest.raises(UnsatFormulaError):
        build_report(F([1], [-1]), 2)


def test_bad_kmax_rejected():
    with pytest.raises(ValueError):
        build_report(F([1]), 0)


def test_iterative_order_matches_report_field():
    checked = 0
    for family, n, m in (("3cnf", 6, 24), ("krom", 7, 9)):
        for seed in range(30):
            f = random_formula(family, n, m, seed)
            if solve(f) is None:
                continue
            for r in build_report(f, 3).records:
                if r.is_backbone:
                    checked += 1
                    alone = iterative_order(f, r.variable, 3)
                    assert alone == r.iterative_order, (family, seed, r.variable)
    assert checked >= 100


def test_report_reuses_its_order_phase(capped_sat_calls):
    # none of the 27 backbones has order <= 5, so every order search is an
    # exhaustive proof of absence; searching both polarities and every
    # iterative round again from scratch took 14,998 SAT calls
    report = build_report(random_formula("3cnf", 30, 125, 2), 5)
    backbones = [r for r in report.records if r.is_backbone]
    assert len(backbones) == 27
    assert all(r.order is None and r.iterative_order is None for r in backbones)
