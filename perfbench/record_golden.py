"""Record each workload's exit code and stdout digest into ``golden.json``.

Usage, from the checkout root: ``python3 perfbench/record_golden.py``.  Run it
only on a commit whose output is known to be right; every benchmark sample is
checked against what it records, at both the timed and the test bound.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from run import GOLDEN_PATH, HERE, SAMPLE_TIMEOUT_S, spawn
from workloads import WORKLOADS


def main() -> int:
    golden = {}
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        for wl in WORKLOADS.values():
            golden[wl.name] = {}
            for bound in (wl.bound, wl.small_bound):
                proc = spawn([sys.executable, "-m", "curvemotive", *wl.argv(bound)], Path(scratch), SAMPLE_TIMEOUT_S)
                if proc.exit is None:
                    print(f"{wl.name} at bound {bound} timed out", file=sys.stderr)
                    return 1
                golden[wl.name][str(bound)] = {
                    "exit": proc.exit,
                    "sha256": hashlib.sha256(proc.stdout).hexdigest(),
                    "bytes": len(proc.stdout),
                }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
