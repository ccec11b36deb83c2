"""Traced child: one CLI invocation in-process, with spans around each layer.

Usage: ``python3 perfbench/traced.py RUN_ID OUT_JSON CLI_ARG...`` from the
checkout root, with ``src`` on ``PYTHONPATH``.

The spans are recorded from this file only: the public (and the two named
private) functions of each module are replaced, in every module namespace
that binds them, by wrappers that time the call.  Hot per-stratum calls are
batched: one span per (name, parent span) carries the call count and summed
time, so tracing stays cheap.  Busy time is CPU time: a batched span counts
its own thread's, so the ``--workers`` threads do not count time spent
waiting for the interpreter lock; a single span counts the whole process's,
so a call that waits on the worker pool includes the pool's work.  Spans
stay in memory and are written, with the counters and the digest of the
captured standard output, when the run ends.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import threading
import time
from functools import cached_property

# (span name, batched, module, attribute).  Missing attributes are skipped, so
# a refactor that removes a function drops its span instead of breaking the run.
FUNCTION_SPANS = (
    ("resolution.build", False, "resolution", "build"),
    ("resolution.matrix", True, "_linalg", "inverse"),
    ("resolution.matrix", True, "_linalg", "determinant"),
    ("resolution.matrix", True, "_linalg", "mat_mul"),
    ("resolution.matrix", True, "_linalg", "leading_principal_minors"),
    ("series.scan", False, "series", "_scan_strata"),
    ("series.mapreduce", False, "series", "_mapreduce"),
    ("series.pg", False, "series", "poincare_generalised"),
    ("series.pdg", False, "series", "poincare_divisorial"),
    ("series.stratum_sum", False, "series", "divisorial_semigroup_stratum_sum"),
    ("series.pg_tr", False, "series", "poincare_generalised_totally_rational"),
    ("series.expand", False, "series", "expand"),
    ("series.expand_tr", False, "series", "expand_totally_rational"),
    ("series.class", True, "series", "stratum_class"),
    ("codim.v", True, "codim", "v_of"),
    ("codim.F", True, "codim", "codim_F"),
    ("codim.F_literal", True, "codim", "codim_F_literal"),
    ("codim.FD", True, "codim", "codim_FD"),
    ("codim.identities", True, "codim", "deg_AA"),
    ("codim.identities", True, "codim", "deg_AK"),
    ("oracles.semigroup", False, "oracles", "semigroup_gf"),
    ("oracles.count_divisors", True, "oracles", "count_divisors_open_line"),
)
# hoskin_deligne is also called inside codim_F; only the genus identity's
# direct calls from the CLI belong to codim.identities.
CLI_ONLY_SPANS = (("codim.identities", True, "hoskin_deligne"),)
MATRIX_PROPERTIES = ("proximity_matrix", "intersection_matrix", "m_matrix")
RENDER_METHODS = ("to_text", "to_json")
# Series returned by these spans are the stratum-sum routes' results.
ROUTE_SPANS = ("series.pg", "series.pdg", "series.stratum_sum", "series.pg_tr")
EXPANSION_SPANS = ("series.expand", "series.expand_tr")
# Spans whose return values the counters read once the run has ended.
KEPT_RESULTS = ("series.scan",) + ROUTE_SPANS + EXPANSION_SPANS


class Tracer:
    """In-memory span recorder; thread-safe for the CLI's worker pool."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.results: dict[str, list] = {}
        self._batched: dict[tuple, dict] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[dict] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, batched: bool, stack: list[dict]) -> dict:
        # A worker thread's outermost call was caused by the span the main
        # thread has open (it is blocked in the pool's map).
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        parent_id = parent["id"] if parent else None
        key = (name, parent_id)
        with self._lock:
            span = self._batched.get(key) if batched else None
            if span is None:
                span = {
                    "id": len(self.spans),
                    "name": name,
                    "parent": parent_id,
                    "run": self.run_id,
                    "start": None,
                    "end": None,
                    "count": 0,
                    "wall_s": 0.0,
                    "cpu_s": 0.0,
                }
                self.spans.append(span)
                if batched:
                    self._batched[key] = span
        return span

    def call(self, name, batched, fn, args, kwargs):
        stack = self._stack()
        span = self._open(name, batched, stack)
        stack.append(span)
        cpu_clock = time.thread_time if batched else time.process_time
        c0 = cpu_clock()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            c1 = cpu_clock()
            stack.pop()
            with self._lock:
                if span["start"] is None:
                    span["start"] = t0
                span["end"] = t1
                span["count"] += 1
                span["wall_s"] += t1 - t0
                span["cpu_s"] += c1 - c0
        if name in KEPT_RESULTS:
            with self._lock:
                self.results.setdefault(name, []).append(result)
        return result

    def wrap(self, name: str, batched: bool, fn):
        def traced(*args, **kwargs):
            return self.call(name, batched, fn, args, kwargs)

        return traced


def instrument(tracer: Tracer) -> None:
    """Replace every traced function in each curvemotive module namespace."""
    from curvemotive import cli, resolution, series  # cli imports every other module

    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "curvemotive"]
    for name, batched, module_name, attr in FUNCTION_SPANS:
        original = getattr(sys.modules.get(f"curvemotive.{module_name}"), attr, None)
        if original is None:
            continue
        wrapper = tracer.wrap(name, batched, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    for name, batched, attr in CLI_ONLY_SPANS:
        if hasattr(cli, attr):
            setattr(cli, attr, tracer.wrap(name, batched, getattr(cli, attr)))

    graph_cls = resolution.ResolutionGraph
    for attr in MATRIX_PROPERTIES:
        prop = graph_cls.__dict__.get(attr)
        if isinstance(prop, cached_property):
            traced_prop = cached_property(tracer.wrap("resolution.matrix", True, prop.func))
            setattr(graph_cls, attr, traced_prop)
            traced_prop.__set_name__(graph_cls, attr)

    series_cls = series.TruncatedSeries
    for attr in RENDER_METHODS:
        if hasattr(series_cls, attr):
            setattr(series_cls, attr, tracer.wrap("cli.render", False, getattr(series_cls, attr)))
    if hasattr(series_cls, "add_term"):
        _trace_reduce(tracer, series_cls)


def _trace_reduce(tracer: Tracer, series_cls) -> None:
    # add_term is the reduction only when it folds per-stratum terms, i.e.
    # directly under _mapreduce; elsewhere (expansion products) it is not
    # traced, so those calls stay in their caller's self time.
    original = series_cls.add_term

    def add_term(self, exp, value):
        stack = tracer._stack()
        if stack and stack[-1]["name"] == "series.mapreduce":
            return tracer.call("series.reduce", True, original, (self, exp, value), {})
        return original(self, exp, value)

    series_cls.add_term = add_term


class _Capture(io.StringIO):
    """Standard output of the CLI; each write is rendering time."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self._write = tracer.wrap("cli.render", True, super().write)

    def write(self, text):
        return self._write(text)


def counters(tracer: Tracer) -> dict:
    """Exact counts taken from the traced calls' results."""
    strata = families = 0
    for result in tracer.results.get("series.scan", ()):
        try:  # _scan_strata is private: a refactor may change what it returns
            found, _skipped = result
            families += len({(st.pairs, st.branches) for st in found})
        except (TypeError, ValueError, AttributeError):
            continue
        strata += len(found)
    terms = skipped = 0
    for name in ROUTE_SPANS:
        for result in tracer.results.get(name, ()):
            terms += len(result.terms)
            skipped += result.skipped_nonintegral
    widths = [
        len(value.to_json())
        for name in ROUTE_SPANS + EXPANSION_SPANS
        for result in tracer.results.get(name, ())
        for value in result.terms.values()
    ]
    return {
        "series.strata": strata,
        "series.families": families,
        "series.terms": terms,
        "series.skipped_nonintegral": skipped,
        "grothendieck.ring_terms": sum(widths),
        "grothendieck.max_ring_terms": max(widths, default=0),
    }


def self_times(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self CPU seconds (total minus children).

    A span nested in one of the same name adds to the self time but not again
    to the total.
    """
    name_of = {span["id"]: span["name"] for span in spans}
    child_cpu: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_cpu[span["parent"]] = child_cpu.get(span["parent"], 0.0) + span["cpu_s"]
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += span["count"]
        if name_of.get(span["parent"]) != span["name"]:
            row["total_s"] += span["cpu_s"]
        row["self_s"] += max(0.0, span["cpu_s"] - child_cpu.get(span["id"], 0.0))
    return out


def main(argv: list[str]) -> int:
    run_id, out_path, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(run_id)
    instrument(tracer)
    from curvemotive import cli

    capture = _Capture(tracer)
    real_stdout, sys.stdout = sys.stdout, capture
    try:
        exit_code = tracer.call("cli.main", False, cli.main, (cli_args,), {})
    finally:
        sys.stdout = real_stdout
    out = capture.getvalue().encode()
    payload = {
        "run": run_id,
        "exit": exit_code,
        "sha256": hashlib.sha256(out).hexdigest(),
        "out_bytes": len(out),
        "counts": counters(tracer),
        "spans": tracer.spans,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
