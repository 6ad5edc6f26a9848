#!/usr/bin/env python3
"""Paired before/after runs of the job-stream benchmark.

Usage:
    python scripts/bench_pairs.py --parent TREE --change TREE --workload W \
        [--seeds 1-10] --out BENCH_<n>.json [--reuse]

For each seed, runs `perfbench/run.py --workload W --seed S --seconds T
--trace 0`, with T the `run_seconds` of `BENCHMARK.json`, once in the parent
tree and once in the change tree, one process at a time, alternating which
tree goes first, and reads the result file that run.py leaves in the tree's
`perfbench/out/`.  `--reuse` skips the runs and
reads the result files already there.

The output file keeps every run (earlier runs of other workloads or seeds in
the same file are kept, and a rerun replaces its record) and, per workload and
end-to-end metric of `BENCHMARK.json`: each side's median and quartiles, and
the number of pairs (same seed) in which the change is strictly better.  Each
run also records its job coverage, the share of the timed phase that its jobs
cover: the sum of its `latencies_s` over the phase's wall time, which is
(attempted - failed) / jobs_per_s.  The summary gives each side's minimum per
workload, the margin to run.py's 0.98 floor (`MIN_COVERAGE`).  After
the pairs it runs, per side and one process at a time:
  - three `quatherm verify --suite all --timings`, keeping each check's median
    seconds under `verify_seconds`;
  - the tier-1 suite once (ROADMAP's command, `python -m pytest -q
    --continue-on-collection-errors`, with `-p no:cacheprovider` so that no
    `.pytest_cache` is left in the tree, and `--durations=20`), keeping its
    wall seconds, its passed, failed, skipped and error counts and its
    twenty slowest test phases under `tier1`.
`--reuse` keeps both from the file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
VERIFY_RUNS = 3


def parse_seeds(text: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def result_path(tree: Path, workload: str, seed: int) -> Path:
    return tree / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json"


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float) -> None:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")


def _env(tree: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(tree / "src")}


def verify_seconds(tree: Path) -> dict:
    """check id -> median seconds over VERIFY_RUNS `verify --suite all --timings`
    processes in tree.  The suite's red checks make it exit 1, so only its
    JSON output counts."""
    cmd = [sys.executable, "-m", "quatherm.cli", "verify", "--suite", "all", "--timings"]
    runs = []
    for _ in range(VERIFY_RUNS):
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env=_env(tree))
        if proc.returncode not in (0, 1):
            raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: "
                               f"{proc.stderr.strip()}")
        runs.append({c["check_id"]: c["seconds"] for c in json.loads(proc.stdout)["checks"]})
    return {check: statistics.median(r[check] for r in runs) for check in runs[0]}


def tier1(tree: Path) -> dict:
    """Wall seconds and outcome counts of one tier-1 run in tree, read from
    pytest's closing summary line ("2 failed, 447 passed, 18 skipped in ..."),
    and its `--durations` lines ("3.91s call     tests/...") as printed."""
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider", "--durations=20"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, env=_env(tree))
    seconds = time.perf_counter() - t0
    summary = (proc.stdout.strip().splitlines() or [""])[-1]
    found = re.findall(r"(\d+) (passed|failed|skipped|error)", summary)
    if proc.returncode not in (0, 1) or not found:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: "
                           f"{summary or proc.stderr.strip()}")
    counts = dict.fromkeys(("passed", "failed", "skipped", "error"), 0)
    for n, outcome in found:
        counts[outcome] += int(n)
    durations = [line for line in proc.stdout.splitlines()
                 if re.match(r"\d+\.\d+s (setup|call|teardown) ", line)]
    return {"seconds": seconds, **counts, "durations": durations}


def job_coverage(res: dict) -> float | None:
    """Sum of a run's job latencies over its timed phase, whose wall time
    run.py reports only as jobs_per_s = (attempted - failed) / wall; None
    when no job passed."""
    jobs_per_s = res["metrics"]["jobs_per_s"]["value"]
    if not jobs_per_s:
        return None
    return sum(res["latencies_s"]) * jobs_per_s / (res["attempted"] - res["failed"])


def read_run(tree: Path, workload: str, seed: int, side: str, position: int) -> dict:
    with open(result_path(tree, workload, seed)) as fh:
        res = json.load(fh)
    return {"workload": workload, "seed": seed, "side": side, "position": position,
            "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "coverage": job_coverage(res), "env": res["env"],
            "metrics": {k: m["value"] for k, m in res["metrics"].items()}}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: the pairs, each side's least job coverage, and per metric
    each side's quartiles and the pairs the change wins."""
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        by_seed = {}
        for r in runs:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [by_seed[s] for s in sorted(by_seed) if len(by_seed[s]) == 2]
        table = {}
        for spec in metrics:
            name, sign = spec["name"], (1 if spec["better"] == "higher" else -1)
            vals = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
            won = sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"]))
            table[name] = {"unit": spec["unit"], "better": spec["better"],
                           **{side: quartiles(vals[side]) for side in SIDES if pairs},
                           "change_won": won}
        coverage = {side: [p[side]["coverage"] for p in pairs
                           if p[side].get("coverage") is not None] for side in SIDES}
        out[workload] = {"pairs": len(pairs),
                         "all_correct": all(p[s]["correct"] and not p[s]["failed"]
                                            for p in pairs for s in SIDES),
                         "min_coverage": {side: min(c, default=None)
                                          for side, c in coverage.items()},
                         "metrics": table}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--reuse", action="store_true",
                    help="read the result files already in the trees instead of running")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    runs = report.get("runs", [])
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            if not args.reuse:
                run_benchmark(trees[side], args.workload, seed, seconds)
            rec = read_run(trees[side], args.workload, seed, side, position)
            runs = [r for r in runs if (r["workload"], r["seed"], r["side"])
                    != (args.workload, seed, side)] + [rec]
            m = rec["metrics"]
            print(f"{args.workload} seed {seed} {side}: jobs_per_s {m['jobs_per_s']:.4g}, "
                  f"coverage {rec['coverage']}, correct {rec['correct']}", flush=True)

    if args.reuse:
        verify, suite = report.get("verify_seconds", {}), report.get("tier1", {})
    else:
        verify = {side: verify_seconds(trees[side]) for side in SIDES}
        suite = {side: tier1(trees[side]) for side in SIDES}
    env = runs[-1]["env"]
    report = {
        "machine": {"cpu": env["cpu"], "nproc": env["nproc"], "python": env["python"],
                    "numpy": env["numpy"], "platform": platform.platform()},
        "command": f"perfbench/run.py --trace 0 --seconds {seconds:g}",
        "commits": {side: sorted({(r["env"]["git_commit"] or "none") + " src "
                                  + r["env"]["src_sha256"][:16]
                                  for r in runs if r["side"] == side}) for side in SIDES},
        "summary": summarize(runs, bench["end_to_end"]),
        "verify_seconds": verify,
        "tier1": suite,
        "runs": sorted(runs, key=lambda r: (r["workload"], r["seed"], r["position"])),
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for workload, s in report["summary"].items():
        print(f"{workload}: {s['pairs']} pairs, all correct {s['all_correct']}, least job "
              f"coverage {s['min_coverage']['parent']} -> {s['min_coverage']['change']}")
        for name, m in s["metrics"].items():
            if s["pairs"]:
                print(f"  {name:14s} {m['parent']['median']:.4g} -> {m['change']['median']:.4g}"
                      f"  change better in {m['change_won']}/{s['pairs']}")
    for check in verify.get("change", {}):
        print(f"verify {check}: {verify['parent'].get(check)} -> {verify['change'][check]} s")
    for side, t in suite.items():
        print(f"tier-1 {side}: {t['passed']} passed, {t['failed']} failed, "
              f"{t['skipped']} skipped, {t['error']} errors in {t['seconds']:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
