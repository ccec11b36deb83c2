"""End-to-end and per-layer benchmark of the curvemotive command line.

Usage, from the root of a checkout (the program is read from ``src``)::

    python3 perfbench/run.py --workload pg-cusp2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 1

Every sample is a fresh ``python -m curvemotive`` process, because every CLI
user pays for the import and the graph build on each call.  The loop is
closed: one sample at a time.  A run repeats blocks of tasks until
``--seconds`` have passed; a block holds one CLI sample per workload, a few
set-up probes (import + build + first ``m_matrix`` in a fresh interpreter)
and, with ``--trace 1``, one traced sample (``traced.py``).  The seed only
shuffles the order of the tasks inside each block, so that load drift on a
shared machine does not bias one kind of sample; the inputs themselves are
fixed (see ``workloads.py``).

Every sample's exit code and standard-output digest must equal the recorded
golden output (``golden.json``, recorded by ``record_golden.py``); a
mismatch, or a sample killed at the per-sample timeout, is a failure.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  Traced runs also write their spans to
``perfbench/out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from traced import self_times
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_PATH = HERE / "golden.json"
SAMPLE_TIMEOUT_S = 40.0
SETUP_PROBES_PER_BLOCK = 3
# setup_s is reported in seconds at the speed where reference_loop() takes
# this long (about its CPU time on an idle core of the 2-vCPU Xeon host the
# benchmark was tuned on), so that host speed drift does not move it.
REF_NOMINAL_S = 0.04

SETUP_PROBE = """\
import json, sys, time
with open(sys.argv[1], encoding="utf-8") as handle:
    data = json.load(handle)
start = time.perf_counter()
import curvemotive
curvemotive.build(data).m_matrix
print(time.perf_counter() - start)
"""

# name -> (unit, source).  Sources: ("self" | "total", span name) for CPU
# seconds of a layer in the traced sample, ("count", counter), or "derived".
# Only layers every workload calls are listed: the others (pdg, expansions,
# divisorial codimension, oracles) appear in the printed layer table.
PER_LAYER = {
    "resolution.build_s": ("s", ("self", "resolution.build")),
    "resolution.matrix_s": ("s", ("self", "resolution.matrix")),
    "series.scan_s": ("s", ("self", "series.scan")),
    "series.strata": ("count", ("count", "series.strata")),
    "series.families": ("count", ("count", "series.families")),
    "codim.v_s": ("s", ("self", "codim.v")),
    "codim.F_s": ("s", ("self", "codim.F")),
    "codim.F_literal_s": ("s", ("self", "codim.F_literal")),
    "series.class_s": ("s", ("self", "series.class")),
    "series.reduce_s": ("s", ("self", "series.reduce")),
    "grothendieck.max_ring_terms": ("count", ("count", "grothendieck.max_ring_terms")),
    "grothendieck.ring_terms": ("count", ("count", "grothendieck.ring_terms")),
    "series.pg_s": ("s", ("total", "series.pg")),
    "series.terms": ("count", ("count", "series.terms")),
    "series.cancel_ratio": ("ratio", "derived"),
    "series.skipped_nonintegral": ("count", ("count", "series.skipped_nonintegral")),
    "cli.render_s": ("s", ("self", "cli.render")),
    "cli.out_bytes": ("B", ("count", "out_bytes")),
    "trace.overhead_ratio": ("ratio", "derived"),
}


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program, no golden output)."""


@dataclass
class Process:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit: int | None  # None when killed at the timeout
    stdout: bytes
    stderr: str
    ref_s: float = float("nan")  # reference loop's CPU time around the sample


@dataclass
class Stats:
    """Everything one workload's samples produced in a run."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    cli: list[Process] = field(default_factory=list)
    traced: list[Process] = field(default_factory=list)
    setup: list[tuple[float, float]] = field(default_factory=list)  # (seconds, ref_s)
    trace_runs: list[dict] = field(default_factory=list)  # traced.py payloads

    @property
    def layers(self) -> list[dict]:
        return [self_times(run["spans"]) for run in self.trace_runs]

    @property
    def counts(self) -> list[dict]:
        return [{**run["counts"], "out_bytes": run["out_bytes"]} for run in self.trace_runs]


def reference_loop() -> float:
    """CPU seconds of a fixed amount of pure-Python exact arithmetic.

    The host's speed drifts by up to 1.7x within seconds (shared cores), in
    CPU time as much as in wall time, so the gated timings are taken relative
    to this loop, run right before and after each timed sample or probe.
    """
    start = time.process_time()
    total = Fraction(0)
    seen = {}
    for i in range(1, 20000):
        total += Fraction(1, i % 97 + 1)
        seen[i % 101] = total
    return time.process_time() - start


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("CURVEMOTIVE_WORKERS", None)  # workers come from the workload's argv only
    return env


def spawn(argv: list[str], scratch: Path, timeout: float) -> Process:
    """Run ``argv`` from the checkout root; wall, CPU and peak RSS of the child."""
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Process(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024,
            exit=None if os.WIFSIGNALED(status) else proc.returncode,
            stdout=out.read(),
            stderr=err.read().decode(errors="replace"),
        )


def golden_entry(golden: dict, wl: Workload, bound: int) -> dict:
    try:
        return golden[wl.name][str(bound)]
    except KeyError:
        raise BenchmarkError(f"no golden output for {wl.name} at bound {bound}") from None


KILLED = "killed at the per-sample timeout"


def _mismatch(exit_code, digest: str, expected: dict) -> str | None:
    if exit_code is None:
        return KILLED
    if exit_code != expected["exit"]:
        return f"exit code {exit_code}, golden {expected['exit']}"
    if digest != expected["sha256"]:
        return "stdout digest differs from golden"
    return None


def cli_sample(wl: Workload, bound: int, expected: dict, scratch: Path, timeout: float):
    proc = spawn([sys.executable, "-m", "curvemotive", *wl.argv(bound)], scratch, timeout)
    return proc, _mismatch(proc.exit, hashlib.sha256(proc.stdout).hexdigest(), expected)


def _crash(proc: Process) -> str:
    """Why a benchmark helper process (probe or traced run) did not finish."""
    if proc.exit is None:
        return KILLED
    return f"exit code {proc.exit}: {proc.stderr.strip()[-300:]}"


def setup_sample(wl: Workload, scratch: Path, timeout: float):
    proc = spawn([sys.executable, "-c", SETUP_PROBE, wl.graph], scratch, timeout)
    if proc.exit != 0:
        return None, _crash(proc)
    return float(proc.stdout), None


def traced_sample(wl: Workload, bound: int, expected: dict, scratch: Path, timeout: float, run_id: str):
    out_path = scratch / f"{run_id}.json"
    argv = [sys.executable, str(HERE / "traced.py"), run_id, str(out_path), *wl.argv(bound)]
    proc = spawn(argv, scratch, timeout)
    if proc.exit != 0:
        return proc, None, _crash(proc)
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    out_path.unlink()
    return proc, payload, _mismatch(payload["exit"], payload["sha256"], expected)


def measure(
    names: list[str],
    seed: int,
    seconds: float,
    trace: bool,
    scratch: Path,
    golden: dict,
    small: bool = False,
    timeout: float = SAMPLE_TIMEOUT_S,
) -> dict[str, Stats]:
    """Run blocks of samples for about ``seconds`` (at least one block).

    No block starts that would, at the mean block length so far, end after
    the deadline.  A sample killed at the timeout ends the run, so a runaway
    workload cannot hold the benchmark for long.
    """
    workloads = [WORKLOADS[n] for n in names]
    bounds = {wl.name: wl.small_bound if small else wl.bound for wl in workloads}
    expected = {wl.name: golden_entry(golden, wl, bounds[wl.name]) for wl in workloads}
    stats = {wl.name: Stats() for wl in workloads}
    rng = random.Random(seed)
    start = time.perf_counter()
    block_no = 0
    while True:
        block = [("cli", wl) for wl in workloads]
        block += [("setup", wl) for wl in workloads for _ in range(SETUP_PROBES_PER_BLOCK)]
        if trace:
            block += [("traced", wl) for wl in workloads]
        rng.shuffle(block)
        killed = False
        for kind, wl in block:
            st = stats[wl.name]
            st.attempted += 1
            if kind == "cli":
                before = reference_loop()
                proc, error = cli_sample(wl, bounds[wl.name], expected[wl.name], scratch, timeout)
                proc.ref_s = (before + reference_loop()) / 2
                st.cli.append(proc)
            elif kind == "setup":
                before = reference_loop()
                value, error = setup_sample(wl, scratch, timeout)
                if value is not None:
                    st.setup.append((value, (before + reference_loop()) / 2))
            else:
                run_id = f"{wl.name}-seed{seed}-{block_no}"
                before = reference_loop()
                proc, payload, error = traced_sample(
                    wl, bounds[wl.name], expected[wl.name], scratch, timeout, run_id
                )
                proc.ref_s = (before + reference_loop()) / 2
                st.traced.append(proc)
                if payload is not None:
                    st.trace_runs.append(payload)
            if error:
                message = f"{wl.name}: {kind} sample failed: {error}"
                st.failures.append(message)
                print(f"FAIL {message}", file=sys.stderr)
                if error == KILLED:
                    killed = True
                    break
        block_no += 1
        elapsed = time.perf_counter() - start
        if killed or elapsed * (block_no + 1) / block_no > seconds:
            return stats


def _median(values):
    return statistics.median(values) if values else float("nan")


def _timed(procs: list[Process]) -> list[Process]:
    finished = [p for p in procs if p.exit is not None]
    return finished or procs


def _relative(procs: list[Process], attr: str) -> list[float]:
    return [getattr(p, attr) / p.ref_s for p in _timed(procs)]


def _setup_nominal(st: Stats) -> list[float]:
    return [seconds * REF_NOMINAL_S / ref for seconds, ref in st.setup]


def end_to_end(st: Stats) -> dict[str, tuple[float, str]]:
    """Medians over the run.  ``*_rel`` are in units of the reference loop's
    time, ``setup_s`` in seconds at its nominal speed."""
    return {
        "wall_rel": (_median(_relative(st.cli, "wall_s")), "ref"),
        "cpu_rel": (_median(_relative(st.cli, "cpu_s")), "ref"),
        "peak_rss_mb": (_median([p.rss_mb for p in _timed(st.cli)]), "MB"),
        "setup_s": (_median(_setup_nominal(st)), "s"),
    }


def per_layer(st: Stats) -> dict[str, tuple[float, str]]:
    counts = st.counts[0] if st.counts else {}
    layers = st.layers
    strata = counts.get("series.strata", 0)
    derived = {
        "series.cancel_ratio": counts.get("series.terms", 0) / strata if strata else 0.0,
        "trace.overhead_ratio": _median(_relative(st.traced, "wall_s"))
        / _median(_relative(st.cli, "wall_s")),
    }
    out = {}
    for name, (unit, source) in PER_LAYER.items():
        if source == "derived":
            value = derived[name]
        elif source[0] == "count":
            value = counts.get(source[1], 0)
        else:
            kind, span = source
            value = _median([t.get(span, {}).get(f"{kind}_s", 0.0) for t in layers])
        out[name] = (value, unit)
    return out


def check_counts(name: str, st: Stats) -> None:
    """The traced samples' counters must repeat exactly within the run."""
    if any(c != st.counts[0] for c in st.counts[1:]):
        message = f"{name}: per-layer counts differ between traced samples"
        st.failures.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def print_report(name: str, st: Stats) -> None:
    cli = _timed(st.cli)
    fail_share = len(st.failures) / st.attempted
    print(f"== {name}: {st.attempted} samples attempted, {len(st.failures)} failed")
    print(f"  {'metric':30s} {'median':>12s} unit  (min .. max, n)")
    rows = {
        "wall_rel": ("ref", _relative(cli, "wall_s")),
        "cpu_rel": ("ref", _relative(cli, "cpu_s")),
        "peak_rss_mb": ("MB", [p.rss_mb for p in cli]),
        "setup_s": ("s", _setup_nominal(st)),
        "setup_raw_s": ("s", [seconds for seconds, _ref in st.setup]),
        "wall_s": ("s", [p.wall_s for p in cli]),
        "cpu_s": ("s", [p.cpu_s for p in cli]),
        "ref_s": ("s", [p.ref_s for p in cli]),
    }
    for metric, (unit, values) in rows.items():
        spread = f"({min(values):.4g} .. {max(values):.4g}, n={len(values)})" if values else ""
        print(f"  {metric:30s} {_median(values):12.6g} {unit:5s} {spread}")
    print(f"  {'fail_share':30s} {fail_share:12.6g} share")
    layers = st.layers
    if not layers:
        return
    for metric, (value, unit) in per_layer(st).items():
        print(f"  {metric:30s} {value:12.6g} {unit}")
    print(f"  layer table (CPU seconds, median of {len(layers)} traced samples)")
    print(f"  {'span':28s} {'calls':>8s} {'self_s':>10s} {'total_s':>10s}")
    for span in sorted({k for t in layers for k in t}):
        rows = [t.get(span, {"calls": 0, "self_s": 0.0, "total_s": 0.0}) for t in layers]
        print(
            f"  {span:28s} {rows[0]['calls']:8d} {_median([r['self_s'] for r in rows]):10.4f}"
            f" {_median([r['total_s'] for r in rows]):10.4f}"
        )


def write_trace(out_dir: Path, name: str, seed: int, st: Stats) -> Path:
    path = out_dir / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps({"workload": name, "seed": seed, "runs": st.trace_runs}), encoding="utf-8")
    return path


def _metrics_json(metrics: dict[str, tuple[float, str]]) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that spawn() kills the running child.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(128 + signal.SIGTERM))

    try:
        if not (ROOT / "src" / "curvemotive" / "__init__.py").is_file():
            raise BenchmarkError(f"program sources not found under {ROOT / 'src'}")
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        compileall.compile_dir(ROOT / "src", quiet=1)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
            stats = measure(names, args.seed, args.seconds, bool(args.trace), Path(scratch), golden)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = {}
    for name, st in stats.items():
        if args.trace:
            check_counts(name, st)
            print(f"trace written to {write_trace(out_dir, name, args.seed, st).relative_to(ROOT)}")
        print_report(name, st)
        if args.workload == "all":
            chosen = {**end_to_end(st), **(per_layer(st) if args.trace else {})}
            metrics.update({f"{name}/{k}": v for k, v in chosen.items()})
        else:
            metrics.update(per_layer(st) if args.trace else end_to_end(st))
    if any(math.isnan(value) for value, _unit in metrics.values()):
        print("error: no sample completed, so there is nothing to report", file=sys.stderr)
        return 1
    failed = sum(len(st.failures) for st in stats.values())
    result = {
        "correct": failed == 0,
        "attempted": sum(st.attempted for st in stats.values()),
        "failed": failed,
        "metrics": _metrics_json(metrics),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
