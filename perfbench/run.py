"""quatherm job-stream benchmark.

    python3 perfbench/run.py --workload symbolic|counting|light-mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. One client runs jobs in a closed loop in this
process: each job is one user request (a `quatherm` argv through
`quatherm.cli.main`, or one library call), timed from outside, and its exit
code and output are checked against `expected.json`. Jobs come in whole
rounds of a fixed mix (see `jobs.py`); rounds run until `--seconds` have
passed.

`--trace 0` reports the end-to-end metrics of that untraced run. `--trace 1`
runs the same timed phase, then runs the same jobs again with the library's
public functions wrapped (`tracing.py`), and reports the per-layer metrics.
The last line of stdout is the JSON result; the lines before it are a
readable report. Spans and the full result go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
SETUP_PROBES = 9
# A jobs-covered share of the timed phase below this means untimed work
# sits between jobs.
MIN_COVERAGE = 0.98
# Layers each workload must leave idle: (workload, metric prefixes).
IDLE = {
    "symbolic": ("counting.count_matrix_pair", "counting.count_column_pair",
                 "counting.count_generic", "counting.count_diagonal_convolved",
                 "counting.nrd_histogram", "spherical.delta_oracle"),
    "counting": ("laurent.symmetric_sum", "elemsym.to_elementary",
                 "elemsym.buchberger", "elemsym.ideal_member"),
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-jobs", type=int, default=None,
                    help="stop after this many jobs (self-test only)")
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    return ap.parse_args(argv)


def setup(workload: str, seed: int):
    """Import the library, draw the first round and load the expected table."""
    if not (ROOT / "src" / "quatherm").is_dir():
        raise ImportError(f"no quatherm sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy  # noqa: F401
    import quatherm.cli  # noqa: F401
    from quatherm import counting

    import jobs

    if counting.DEFAULT_BUDGET != jobs.OPS_BUDGET:
        raise RuntimeError("jobs.OPS_BUDGET no longer matches counting.DEFAULT_BUDGET")
    specs = jobs.load_workloads()
    if workload not in specs:
        raise SystemExit(f"unknown workload {workload!r}; choose from {sorted(specs)}")
    spec = specs[workload]
    rounds = jobs.generate(spec, seed, workload)
    first = next(rounds)
    expected = jobs.load_expected()
    return spec, first, rounds, expected


def time_setup(args) -> list[float]:
    """Wall time from interpreter start to the first job being ready, in fresh
    processes; the median of these is setup_s."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=60)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        out.append(elapsed)
    return out


# -- timed phase --------------------------------------------------------------------


def run_jobs(job_list, expected, tracer=None):
    """Run jobs in order; returns (latencies, failures, wall seconds)."""
    import jobs

    lat, failures = [], []
    t0 = time.perf_counter()
    for i, argv in enumerate(job_list, 1):
        if tracer is not None:
            tracer.job_id = i
            sid, start = tracer.begin()
        j0 = time.perf_counter()
        try:
            rc, out = jobs.run_job(argv)
            err = None
        except Exception as exc:  # a failing job is counted, not fatal
            rc, out, err = None, "", f"{type(exc).__name__}: {exc}"
        lat.append(time.perf_counter() - j0)
        if tracer is not None:
            tracer.end("bench.job", sid, start)
        want = expected.get(jobs.job_key(argv))
        if err is None:
            if want is None:
                err = "no expected output recorded"
            elif rc != want["rc"]:
                err = f"exit code {rc}, expected {want['rc']}"
            elif jobs.digest(out) != want["sha256"]:
                err = "output differs from the expected output"
        if err is not None:
            failures.append((jobs.job_key(argv), err))
    return lat, failures, time.perf_counter() - t0


def timed_phase(first, rounds, expected, seconds, max_jobs):
    """Whole rounds until `seconds` have passed (or the pool runs out)."""
    executed, lat, failures = [], [], []
    t0 = time.perf_counter()
    batch = first
    while batch is not None:
        if max_jobs is not None:
            batch = batch[:max_jobs - len(executed)]
        b_lat, b_fail, _ = run_jobs(batch, expected)
        executed += batch
        lat += b_lat
        failures += b_fail
        done = (time.perf_counter() - t0 >= seconds
                or (max_jobs is not None and len(executed) >= max_jobs))
        batch = None if done else next(rounds, None)
    return executed, lat, failures, time.perf_counter() - t0


def show(name, value, unit):
    print(f"  {name:48s} {value:14.6g} {unit}")


def percentile(values, pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# -- environment --------------------------------------------------------------------


def environment(seed: int) -> dict:
    import hashlib

    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit,
            "src_sha256": src.hexdigest(), "seed": seed}


# -- main ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec, first, rounds, expected = setup(args.workload, args.seed)
    except (ImportError, OSError) as exc:
        print(f"set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setup_samples = time_setup(args)
    executed, lat, failures, wall = timed_phase(first, rounds, expected, args.seconds,
                                                args.max_jobs)
    attempted = len(executed)
    ok = attempted - len(failures)
    tail_pct = spec["tail_percentile"]
    report = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "jobs_per_s": (ok / wall, "1/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_tail_s": (percentile(lat, tail_pct), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    coverage = sum(lat) / wall
    problems = [f"job failed: {key}: {err}" for key, err in failures]
    if coverage < MIN_COVERAGE:
        problems.append(f"jobs cover only {coverage:.4f} of the timed phase")

    beyond = sum(x > report["job_tail_s"][0] for x in lat)
    print(f"workload {args.workload}: {attempted} jobs in {wall:.2f} s, "
          f"{len(set(map(tuple, executed)))} distinct; job_tail_s is p{tail_pct}, "
          f"{beyond} jobs beyond it; setup_s is the median of {len(setup_samples)} probes")
    for name, (value, unit) in report.items():
        show(name, value, unit)
    show("error_rate", len(failures) / attempted, "ratio")

    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            _, t_fail, t_wall = run_jobs(executed, expected, tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        metrics[tracing.OVERHEAD] = t_wall / wall
        metrics[tracing.COVERAGE] = coverage
        problems += [f"traced job failed: {key}: {err}" for key, err in t_fail]
        for prefix in IDLE.get(args.workload, ()):
            if tracer.calls(prefix):
                problems.append(f"{prefix} predicted idle on {args.workload} "
                                f"but called {tracer.calls(prefix)} times")
        units = {name: unit for name, unit, _ in tracing.metric_specs()}
        result_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(span_file, [" ".join(a) for a in executed])
        print(f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}")
        for name, m in result_metrics.items():
            show(name, m["value"], m["unit"])
    else:
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in report.items()}

    for line in problems:
        print(f"CHECK FAILED: {line}")
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    result = {"correct": not problems, "attempted": attempted, "failed": len(failures),
              "metrics": result_metrics}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({**result, "env": env, "setup_samples_s": setup_samples,
                   "latencies_s": lat, "jobs": [" ".join(a) for a in executed],
                   "failures": failures}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
