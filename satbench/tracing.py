"""Spans around the public functions of each satbones module, installed from
outside the package.

`install` replaces every public function of the layer modules (of the CLI
only `main`; plus a few methods) with a wrapper, in every satbones module
that holds a reference to it, so calls through ``from .x import f`` are
traced too.  Each thread keeps
its own span stack and its own totals, because `build_report` runs
per-variable work on a thread pool; a span opened on a pool thread with an
empty stack is a child of the span the main thread has open at that moment.

A span's self time is its duration minus the part of it that its children
cover: same-thread children run one after another, so their durations add;
children on pool threads may overlap, so the union of their intervals is
taken.  Spans at depth <= SPAN_DEPTH are kept in memory for writing out;
deeper spans only feed the totals, to keep a traced case's memory small.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

PACKAGE = "satbones"
LAYERS = (
    "cli", "dimacs", "formula", "solver", "unsat_subsets", "backbones",
    "krom", "horn", "unitref", "report",
)
# the CLI's handlers and parser are reached only through main, so main's self
# time is the command-line layer's own cost
ENTRY_POINTS = {"cli": ("main",)}
METHODS = {
    ("formula", "CnfFormula", "reduct"): "formula.reduct",
    ("report", "OrderDistribution", "to_json"): "report.to_json",
}
# counted calls of the first span while the second span is open on the thread
NESTED = {
    "solver.solve_sets": "unsat_subsets.sus_search",
    "unsat_subsets.sus_search": "backbones.iterative_k_backbones",
    "formula.reduct": "unitref.level_reduce",
}
# counted results: span name -> (counter suffix, predicate on the result)
OUTCOMES = {
    "solver.solve_sets": ("unsat", lambda result: result is None),
    "unsat_subsets.sus_search": ("hit", lambda result: result is not None),
}
SPAN_DEPTH = 2


class _Frame:
    __slots__ = ("name", "depth", "start", "child", "foreign")

    def __init__(self, name, depth, start):
        self.name = name
        self.depth = depth
        self.start = start
        self.child = 0.0      # summed durations of same-thread children
        self.foreign = None   # (start, end) of children on other threads


class _ThreadState:
    def __init__(self, index):
        self.index = index
        self.stack: list[_Frame] = []
        self.totals: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.open: dict[str, int] = {}
        self.spans: list[tuple] = []


def _covered(intervals, start, end) -> float:
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self._main: _ThreadState | None = None

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._threads))
                self._threads.append(state)
                if self._main is None:
                    self._main = state
            self._local.state = state
        return state

    def wrap(self, name, fn):
        nested_in = NESTED.get(name)
        outcome = OUTCOMES.get(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            foreign_parent = None
            if parent is None and state is not self._main and self._main.stack:
                foreign_parent = self._main.stack[-1]
            anchor = parent if parent is not None else foreign_parent
            depth = anchor.depth + 1 if anchor is not None else 0
            if nested_in is not None and state.open.get(nested_in):
                key = f"{name}.in.{nested_in}"
                state.counts[key] = state.counts.get(key, 0) + 1
            state.open[name] = state.open.get(name, 0) + 1
            frame = _Frame(name, depth, perf())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                state.open[name] -= 1
                duration = end - frame.start
                covered = frame.child
                if frame.foreign:
                    covered += _covered(frame.foreign, frame.start, end)
                totals = state.totals.get(name)
                if totals is None:
                    totals = state.totals[name] = [0, 0.0, 0.0]
                totals[0] += 1
                totals[1] += duration
                totals[2] += max(duration - covered, 0.0)
                if parent is not None:
                    parent.child += duration
                elif foreign_parent is not None:
                    if foreign_parent.foreign is None:
                        foreign_parent.foreign = []
                    foreign_parent.foreign.append((frame.start, end))
                if depth <= SPAN_DEPTH:
                    state.spans.append((name, depth, state.index, frame.start, end))
            if outcome is not None and outcome[1](result):
                key = f"{name}.{outcome[0]}"
                state.counts[key] = state.counts.get(key, 0) + 1
            return result

        return traced

    def install(self) -> int:
        """Wrap the layer functions; returns how many were wrapped."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            entry = ENTRY_POINTS.get(layer)
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__
                        and (entry is None or attr in entry)):
                    originals[value] = self.wrap(f"{layer}.{attr}", value)
        for (layer, cls, method), name in METHODS.items():
            owner = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls)
            setattr(owner, method, self.wrap(name, getattr(owner, method)))
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in originals:
                    setattr(module, attr, originals[value])
        return len(originals) + len(METHODS)

    def summary(self) -> dict:
        """Totals and counts merged over threads, plus the kept spans."""
        merged = {"totals": {}, "counts": {}, "spans": []}
        for state in self._threads:
            merge(merged, {"totals": state.totals, "counts": state.counts})
            merged["spans"].extend(state.spans)
        return merged


def merge(into: dict, summary: dict) -> None:
    """Add one summary's totals and counts into another."""
    for name, (calls, total, self_s) in summary["totals"].items():
        slot = into["totals"].setdefault(name, [0, 0.0, 0.0])
        slot[0] += calls
        slot[1] += total
        slot[2] += self_s
    for key, value in summary["counts"].items():
        into["counts"][key] = into["counts"].get(key, 0) + value
