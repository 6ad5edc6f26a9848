"""Tiny self-test of the benchmark: every workload, a few jobs, both modes.

    python3 perfbench/selftest.py

Asserts that each run exits 0, checks out correct with no failed job
(error_rate 0), and reports exactly the metric names BENCHMARK.json lists.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", str(trace), "--max-jobs", "3"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, (cmd, proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in bench["end_to_end"]},
             1: {m["name"] for m in bench["per_layer"]}}
    for wl in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            res = run(wl, trace)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] is True, (wl, trace)
            assert res["attempted"] == 3 and res["failed"] == 0, (wl, trace, res)
            assert set(res["metrics"]) == names[trace], (
                wl, trace, set(res["metrics"]) ^ names[trace])
            print(f"ok  {wl:10s} trace={trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
