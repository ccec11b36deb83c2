"""The CLI's output, pinned byte for byte by recorded digests.

``tests/data/cli_digests.json`` holds, for each command, the sha256 of its
standard output and standard error and its exit code.  The commands are
``compute --series pg|pdg|phatd|phatd-closed`` in text and JSON and
``check``, at bounds 6 and 9, on every graph in ``demos/graphs``, plus
``--specialize L=1,all=1`` on the totally rational ones and
``--strict-integral`` on the others.  A change that
means to alter this output records the digests again from the repository
root::

    PYTHONPATH=src python tests/test_cli_digests.py > tests/data/cli_digests.json

The script needs only the standard library, so it also runs under
interpreters without pytest; comparing its output with the committed file
checks an interpreter version.  A few entries also run as real
``python -m curvemotive`` processes, the path every user takes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

from curvemotive import build, cli

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "data" / "cli_digests.json"
# one compute per series, one in JSON, and a check; the chain2_h12 compute's
# stderr carries the non-integral warning
PROCESS_SAMPLE = [
    ["compute", "--series", "phatd-closed", "--input", "demos/graphs/chain2_h12.json", "--format", "text"],
    ["compute", "--series", "pg", "--bound", "6", "--input", "demos/graphs/cusp.json", "--format", "text"],
    ["compute", "--series", "pdg", "--bound", "6", "--input", "demos/graphs/satellite5.json", "--format", "json"],
    ["compute", "--series", "phatd", "--bound", "9", "--input", "demos/graphs/single.json", "--format", "text"],
    ["check", "--bound", "6", "--input", "demos/graphs/chain2_h12.json"],
]


def commands():
    for path in sorted((ROOT / "demos" / "graphs").glob("*.json")):
        graph = path.relative_to(ROOT).as_posix()
        integral = build(json.loads(path.read_text(encoding="utf-8"))).is_totally_rational
        for fmt in ("text", "json"):
            yield ["compute", "--series", "phatd-closed", "--input", graph, "--format", fmt]
        for bound in ("6", "9"):
            for series in ("pg", "pdg", "phatd"):
                for fmt in ("text", "json"):
                    argv = ["compute", "--series", series, "--bound", bound, "--input", graph, "--format", fmt]
                    yield argv
                    yield argv + (["--specialize", "L=1,all=1"] if integral else ["--strict-integral"])
            yield ["check", "--bound", bound, "--input", graph]


def run(argv) -> dict:
    """One in-process CLI run: exit code and digests of what it printed.

    A Python warning would reach a real process's standard error but not
    the captured one here, so any warning fails the run.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    return {
        "argv": argv,
        "exit": code,
        "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
    }


def test_cli_output_matches_recorded_digests(monkeypatch):
    monkeypatch.chdir(ROOT)
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert [item["argv"] for item in recorded] == list(commands())
    mismatched = [item["argv"] for item in recorded if run(item["argv"]) != item]
    assert not mismatched


def test_process_output_matches_recorded_digests():
    recorded = {tuple(item["argv"]): item for item in json.loads(DIGESTS.read_text(encoding="utf-8"))}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for argv in PROCESS_SAMPLE:
        proc = subprocess.run(
            [sys.executable, "-m", "curvemotive", *argv], cwd=ROOT, env=env, capture_output=True, timeout=60
        )
        assert {
            "argv": argv,
            "exit": proc.returncode,
            "stdout": hashlib.sha256(proc.stdout).hexdigest(),
            "stderr": hashlib.sha256(proc.stderr).hexdigest(),
        } == recorded[tuple(argv)]


if __name__ == "__main__":
    os.chdir(ROOT)
    json.dump([run(argv) for argv in commands()], sys.stdout, indent=1)
    print()
