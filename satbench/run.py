"""End-to-end benchmark of the satbones command line.

    python3 satbench/run.py --workload structured --seed 0 --seconds 30 --trace 0

Runs ``satbones.cli.main(argv)`` on seeded instances, one case at a time
(closed loop, one client).  Each case runs in a child forked from a warmed
parent, so no process state such as a module-level cache carries from one
case to the next, just as between separate CLI runs, and the child's peak
resident memory is the case's own.  The CLI runs with its own defaults: no
``--jobs``, so the report pool sizes itself from ``os.cpu_count()``.

A run makes whole passes over the workload's cases, repeating a pass while
the next is expected to end within ``--seconds``, so every run measures all
of its seed's instances.  Every output is checked (see checks.py); an
exception, a wrong exit code, a timeout or a failed check counts the case
as failed.  The last line of stdout is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
A traced run passes over every seventh case instead, running each twice,
untraced and then traced, so the trace overhead is measured on the same
cases, and requires the call counts of all its passes to agree.

``--record-digests`` runs one pass at the default seed and stores the
digest of each output in digests.json; outputs of later runs at that seed
must match it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import math
import os
import platform
import select
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".satbench_out")
DIGESTS = os.path.join(HERE, "digests.json")
sys.path.insert(0, HERE)

from checks import check  # noqa: E402
from oracle import backbones, level2_forced  # noqa: E402
from tracing import Tracer, merge  # noqa: E402
from workloads import WORKLOADS, build_cases, probe_cases  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 5
CASE_TIMEOUT_S = 60.0
LOOP_LIMIT_S = 120.0  # no case starts after this, whatever --seconds says
TAIL_LADDER = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10
TRACE_STRIDE = 7  # a traced pass runs each of its cases twice, one traced
# probes run once per run outside the timed loop and are not counted; a
# change of outcome, such as a fix, is reported on stderr
EXPECTED_PROBE_OUTCOME = {"solve-disjoint-1500": "RecursionError"}


def _write_dimacs(path: str, clauses) -> None:
    top = max((abs(l) for c in clauses for l in c), default=0)
    lines = [f"p cnf {top} {len(clauses)}"]
    lines.extend(" ".join(map(str, (*c, 0))) for c in clauses)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def setup(workload: str, seed: int, outdir: str):
    """Import, generate, filter, write and warm up; returns (cases, probes)."""
    sys.path.insert(0, SRC)
    cli = importlib.import_module("satbones.cli")
    gen = importlib.import_module("satbones.generators")
    cases = build_cases(workload, seed, gen)
    probes = probe_cases(workload, gen)
    indir = os.path.join(outdir, "instances")
    os.makedirs(indir, exist_ok=True)
    for case in cases + probes:
        case.path = os.path.join(indir, case.name + ".cnf")
        _write_dimacs(case.path, case.clauses)
    # warm up without touching unitref, whose cache the children would
    # inherit, and with one backbone, so that no pool thread starts before
    # the parent forks
    warm = os.path.join(indir, "warmup.cnf")
    _write_dimacs(warm, [(1, 2), (1, -2)])
    saved = sys.stdout
    sys.stdout = io.StringIO()
    try:
        cli.main(["report", warm])
        cli.main(["solve", warm])
    finally:
        sys.stdout = saved
    return cases, probes


def _timed_setup_in_child(workload: str, seed: int, outdir: str) -> float:
    """Set-up time measured in a fresh fork, before the parent imports."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        code = 1
        try:
            t0 = time.perf_counter()
            setup(workload, seed, outdir)
            os.write(w, repr(time.perf_counter() - t0).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    data = _read_all(r, pid, CASE_TIMEOUT_S)
    _, status, _ = os.wait4(pid, 0)
    if data is None or status != 0:
        raise RuntimeError("set-up failed in a child process")
    return float(data)


def _read_all(fd: int, pid: int, timeout: float):
    """Drain a child's pipe; kill the child and return None on timeout."""
    chunks = []
    deadline = time.monotonic() + timeout
    try:
        while True:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([fd], [], [], max(left, 0))
            if not ready:
                os.kill(pid, signal.SIGKILL)
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)
    finally:
        os.close(fd)


def _child(case, traced: bool) -> dict:
    cli = sys.modules["satbones.cli"]
    out = io.StringIO()
    sys.stdout, sys.stderr = out, io.StringIO()
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    error = None
    t0 = time.perf_counter()
    try:
        code = cli.main(case.argv())
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # counted as a failed case, never fatal
        code = None
        error = f"{type(exc).__name__}: {str(exc)[:200]}"
    elapsed = time.perf_counter() - t0
    return {
        "code": code,
        "error": error,
        "stdout": out.getvalue(),
        "elapsed": elapsed,
        "trace": tracer.summary() if tracer else None,
    }


def run_case(case, traced: bool, digests: dict | None) -> dict:
    """Run one case in a fresh fork and check its output."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        try:
            data = json.dumps(_child(case, traced)).encode()
            view = memoryview(data)
            while view:
                view = view[os.write(w, view):]
        finally:
            os._exit(0)
    os.close(w)
    data = _read_all(r, pid, CASE_TIMEOUT_S)
    _, status, usage = os.wait4(pid, 0)
    result = {"case": case.name, "traced": traced, "rss_mb": usage.ru_maxrss / 1024}
    if not data or status != 0:
        why = "timeout" if data is None else f"child ended with status {status} and {len(data)} bytes"
        result.update(ok=False, why=why, elapsed=math.inf)
        return result
    payload = json.loads(data)
    result["elapsed"] = payload["elapsed"]
    result["trace"] = payload["trace"]
    if payload["error"] is not None:
        why = payload["error"]
    else:
        why = check(case, payload["code"], payload["stdout"])
        if why is None and digests is not None:
            digest = hashlib.sha256(
                f"{payload['code']}\n{payload['stdout']}".encode()
            ).hexdigest()
            result["digest"] = digest
            if digests and digests.get(case.name) != digest:
                why = "output differs from the digest recorded at the default seed"
    result["ok"] = why is None
    if why is not None:
        result["why"] = why
        result["elapsed"] = math.inf
    return result


def _passes(cases, seconds: float, run_one):
    """Whole passes while the next is expected to fit; returns (results, passes, wall)."""
    results = []
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        for case in cases:
            if time.perf_counter() - start > LOOP_LIMIT_S:
                break
            results.extend(run_one(case))
        passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds or now - start > LOOP_LIMIT_S:
            return results, passes, now - start


def _tail_percentile(pool_size: int) -> int:
    for p in TAIL_LADDER:
        if pool_size - math.ceil(p * pool_size / 100) >= TAIL_BEYOND:
            return p
    return TAIL_LADDER[-1]


def _nearest_rank(values, p: int) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100) - 1, 0)]


def end_to_end(cases, results, wall, setup_samples) -> tuple[dict, dict]:
    times = [r["elapsed"] for r in results]
    ok = sum(r["ok"] for r in results)
    p = _tail_percentile(len(cases))
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "cases_per_s": (ok / wall, "1/s"),
        "case_s.p50": (statistics.median(times), "s"),
        "case_s.tail": (_nearest_rank(times, p), "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in results), "MB"),
        "ok_rate": (ok / len(results), "ratio"),
    }
    details = {
        "tail_percentile": p,
        "tail_samples_beyond": len(times) - math.ceil(p * len(times) / 100),
    }
    return metrics, details


def per_layer(first: dict, all_passes: dict, passes: int, overhead: float) -> dict:
    """Counts of the first traced pass; times averaged over passes."""
    totals, counts = first["totals"], first["counts"]

    def calls(name):
        return (totals.get(name, [0])[0], "count")

    def seconds(name, index):
        return (all_passes["totals"].get(name, [0, 0.0, 0.0])[index] / passes, "s")

    def ratio(part, whole):
        return (part / whole if whole else 0.0, "ratio")

    metrics = {"cli.main.self_s": seconds("cli.main", 2)}
    for name in ("dimacs.parse_dimacs", "formula.reduct", "solver.full_backbones",
                 "solver.solve", "solver.solve_sets", "unsat_subsets.sus_search",
                 "backbones.backbone_split"):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_s"] = seconds(name, 2)
    for name in ("formula.classify", "unsat_subsets.sus_vo_search",
                 "backbones.order_with_witness", "backbones.iterative_k_backbones",
                 "krom.krom_iterative_backbones",
                 "horn.definite_horn_iterative_backbones", "unitref.level_reduce"):
        metrics[f"{name}.calls"] = calls(name)
    for name in ("backbones.order_with_witness", "backbones.iterative_k_backbones",
                 "unitref.level_reduce"):
        metrics[f"{name}.total_s"] = seconds(name, 1)
    metrics["solver.solve_sets.unsat_ratio"] = ratio(
        counts.get("solver.solve_sets.unsat", 0), calls("solver.solve_sets")[0])
    metrics["unsat_subsets.sus_search.sat_calls"] = (
        counts.get("solver.solve_sets.in.unsat_subsets.sus_search", 0), "count")
    metrics["unsat_subsets.sus_search.hit_ratio"] = ratio(
        counts.get("unsat_subsets.sus_search.hit", 0), calls("unsat_subsets.sus_search")[0])
    metrics["backbones.iterative_k_backbones.sus_calls"] = (
        counts.get("unsat_subsets.sus_search.in.backbones.iterative_k_backbones", 0), "count")
    metrics["unitref.level_reduce.reducts"] = (
        counts.get("formula.reduct.in.unitref.level_reduce", 0), "count")
    metrics["report.build_report.self_s"] = seconds("report.build_report", 2)
    metrics["report.to_json.self_s"] = seconds("report.to_json", 2)
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


def _call_counts(agg: dict) -> dict:
    return {name: slot[0] for name, slot in agg["totals"].items()} | dict(agg["counts"])


def traced_run(cases, seconds, digests, outdir):
    """Every seventh case untraced, then traced; per-pass trace aggregates."""
    pool = cases[::TRACE_STRIDE]
    per_pass: list[dict] = []
    spans_path = os.path.join(outdir, "spans.jsonl")
    # seconds: untraced, traced, and traced inside top-level spans, over
    # the cases that passed both ways
    sums = [0.0, 0.0, 0.0]
    with open(spans_path, "w") as spans_out:
        def run_one(case):
            if not per_pass or case is pool[0]:
                per_pass.append({"totals": {}, "counts": {}})
            plain = run_case(case, False, digests)
            traced = run_case(case, True, digests)
            summary = traced.pop("trace", None)
            plain.pop("trace", None)
            if summary is not None:
                merge(per_pass[-1], summary)
                spans_out.write(json.dumps({"case": case.name, "spans": summary["spans"]}) + "\n")
            if plain["ok"] and traced["ok"]:
                sums[0] += plain["elapsed"]
                sums[1] += traced["elapsed"]
                sums[2] += sum(e - s for _, depth, _, s, e in summary["spans"] if depth == 0)
            return [plain, traced]

        results, passes, wall = _passes(pool, seconds, run_one)
    complete = per_pass[:passes]
    repeat_ok = all(_call_counts(agg) == _call_counts(complete[0]) for agg in complete[1:])
    everything = {"totals": {}, "counts": {}}
    for agg in complete:
        merge(everything, agg)
    overhead = sums[1] / sums[0] if sums[0] else math.inf
    metrics = per_layer(complete[0], everything, len(complete), overhead)
    details = {
        "trace_pool": len(pool),
        "counts_repeat": repeat_ok if len(complete) > 1 else None,
        "trace_coverage": sums[2] / sums[1] if sums[1] else None,
        "spans_file": os.path.relpath(spans_path, ROOT),
    }
    return results, passes, wall, metrics, details, repeat_ok


def _load_digests(seed: int):
    if seed != DEFAULT_SEED:
        return None
    try:
        with open(DIGESTS) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "satbones", "cli.py")):
        print(f"error: no satbones sources under {SRC}", file=sys.stderr)
        return 2
    outdir = os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}")
    os.makedirs(outdir, exist_ok=True)

    # every sample in a fresh fork of this not yet warmed parent, so that
    # all of them pay for the import and the copy-on-write faults alike
    setup_samples = [
        _timed_setup_in_child(args.workload, args.seed, outdir)
        for _ in range(SETUP_REPEATS)
    ]
    cases, probes = setup(args.workload, args.seed, outdir)

    t0 = time.perf_counter()
    for case in cases:
        if case.command == "uc":
            case.expected = level2_forced(case.clauses)
        else:
            case.expected = backbones(case.clauses, case.model)
    oracle_s = time.perf_counter() - t0

    all_digests = _load_digests(args.seed)
    if args.record_digests:
        if args.seed != DEFAULT_SEED:
            parser.error("--record-digests needs the default seed")
        results = [run_case(case, False, {}) for case in cases]
        bad = [r for r in results if not r["ok"]]
        if bad:
            print(f"error: not recording, {len(bad)} cases failed: {bad[0]}", file=sys.stderr)
            return 1
        all_digests[args.workload] = {r["case"]: r["digest"] for r in results}
        with open(DIGESTS, "w") as handle:
            json.dump(all_digests, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"recorded {len(results)} digests for {args.workload}")
        return 0
    digests = None if all_digests is None else all_digests.get(args.workload, {})

    probe_results = {}
    for case in probes:
        result = run_case(case, False, None)
        probe_results[case.name] = "ok" if result["ok"] else result["why"]

    if args.trace:
        results, passes, wall, metrics, details, repeat_ok = traced_run(
            cases, args.seconds, digests, outdir)
    else:
        results, passes, wall = _passes(
            cases, args.seconds, lambda case: [run_case(case, False, digests)])
        metrics, details = end_to_end(cases, results, wall, setup_samples)
        repeat_ok = True

    failures = [
        {"case": r["case"], "traced": r["traced"], "why": r["why"]}
        for r in results if not r["ok"]
    ]
    for failure in failures:
        print(f"failed: {failure}", file=sys.stderr)
    for name, outcome in probe_results.items():
        if EXPECTED_PROBE_OUTCOME.get(name, "ok") not in outcome:
            print(f"probe {name} changed: {outcome}", file=sys.stderr)
    with open(os.path.join(outdir, "cases.jsonl"), "w") as handle:
        for r in results:
            handle.write(json.dumps({k: v for k, v in r.items() if k != "trace"}) + "\n")

    jobs_args = importlib.import_module("satbones.cli").build_parser().parse_args(
        ["report", "x.cnf"])
    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "passes": passes,
        "cases_per_pass": len(cases),
        "samples": len(results),
        "wall_s": wall,
        "setup_samples_s": setup_samples,
        "oracle_s": oracle_s,
        "digests_checked": bool(digests),
        "probes": probe_results,
        "cpu_count": os.cpu_count(),
        "jobs": getattr(jobs_args, "jobs", None),
        "python": platform.python_version(),
        "subseeds": [c.subseed for c in cases if c.subseed is not None],
    })
    print(json.dumps({"details": details}))
    failed = len(failures)
    print(json.dumps({
        "correct": failed == 0 and repeat_ok,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
