"""The benchmark's own checks, at the workloads' tiny test bounds."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _golden():
    return json.loads(run.GOLDEN_PATH.read_text(encoding="utf-8"))


def _measure(tmp_path, names=tuple(WORKLOADS), golden=None, **kwargs):
    kwargs.setdefault("trace", True)
    return run.measure(
        list(names), seed=0, seconds=0, scratch=tmp_path, golden=golden or _golden(), small=True, **kwargs
    )


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    return [_measure(tmp_path_factory.mktemp("bench")) for _ in range(2)]


def test_every_workload_matches_its_digest(traced_runs):
    for stats in traced_runs:
        for name, st in stats.items():
            assert st.failures == [], name
            assert st.cli and st.traced and st.setup and st.layers, name


def test_metric_names(traced_runs):
    st = traced_runs[0]["pg-cusp2"]
    e2e, layers = run.end_to_end(st), run.per_layer(st)
    assert list(e2e) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(layers) == [m["name"] for m in BENCHMARK["per_layer"]]
    for name in [*e2e, *layers, *(w["name"] for w in BENCHMARK["workloads"])]:
        assert NAME.fullmatch(name), name
    assert set(w["name"] for w in BENCHMARK["workloads"]) == set(WORKLOADS)


def test_counts_repeat_exactly(traced_runs):
    first, second = traced_runs
    for name in WORKLOADS:
        counts = first[name].counts + second[name].counts
        assert counts[0]["series.strata"] > 0, name
        assert all(c == counts[0] for c in counts), name


def test_corrupted_digest_is_a_failure(tmp_path):
    golden = _golden()
    entry = golden["pg-cusp2"][str(WORKLOADS["pg-cusp2"].small_bound)]
    entry["sha256"] = "0" * 64
    st = _measure(tmp_path, ["pg-cusp2"], golden, trace=False)["pg-cusp2"]
    assert len(st.failures) / st.attempted > 0
    assert all(f.startswith("pg-cusp2: ") for f in st.failures)


def test_runaway_sample_is_killed(tmp_path):
    st = _measure(tmp_path, ["pg-h2"], trace=False, timeout=0.001)["pg-h2"]
    assert any("killed" in f for f in st.failures)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, *BENCHMARK["command"][1:], "--workload", "pg-cusp2", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
