"""Smoke tests: the scripts in scripts/ run in-process on small inputs."""

import ast
import importlib.util
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from quatherm.elemsym import to_elementary
from quatherm.spherical import psi_explicit

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *args):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_density_scan(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "density_scan.py", "--max-weight", "0")
    lines = out.splitlines()
    assert lines[0].split()[0] == "label"
    assert "l1:4/3 l2:4/3 True" in lines[1]            # (0,)
    assert "l1:32/27 l2:32/27 True" in lines[2]        # (0, 0)
    assert len(lines) == 3


def test_spherical_table(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "spherical_table.py")
    assert out.count("alpha = ") == 3
    assert out.count("elementary form = ") == 3
    size3 = run_script(monkeypatch, capsys, "spherical_table.py", "--n", "3", "--alpha", "2,1,1")
    # each printed form is the elementary rewrite of Psi
    got = [line.split(" = ", 1)[1] for text in (out, size3) for line in text.splitlines()
           if line.startswith("  elementary form = ")]
    assert got == [str(to_elementary(psi_explicit(alpha, len(alpha))))
                   for alpha in [(0, 0), (2, 0), (1, 1), (2, 1, 1)]]


def _canned_result(tree, seed, jobs_per_s, commit, coverage=0.99):
    # 100 jobs of equal latency that cover `coverage` of the timed phase
    metrics = {"setup_s": 0.25, "jobs_per_s": jobs_per_s, "job_p50_s": 1 / jobs_per_s,
               "job_tail_s": 2 / jobs_per_s, "peak_rss_mib": 38.0}
    out = tree / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"result-symbolic-seed{seed}-trace0.json").write_text(json.dumps({
        "correct": True, "attempted": 100, "failed": 0,
        "latencies_s": [coverage / jobs_per_s] * 100,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
        "env": {"cpu": "test cpu", "nproc": 2, "python": "3", "numpy": "2",
                "git_commit": commit, "src_sha256": "0" * 64, "seed": seed}}))


def test_bench_pairs_reads_canned_results(monkeypatch, capsys, tmp_path):
    # --reuse reads the result files in place: no benchmark process starts
    parent, change = tmp_path / "parent", tmp_path / "change"
    coverages = [(0.99, 0.985), (0.995, 0.975), (0.98, 0.99)]
    for seed, (before, after) in enumerate([(10, 20), (11, 19), (12, 9)], start=1):
        _canned_result(parent, seed, before, "aaa", coverages[seed - 1][0])
        _canned_result(change, seed, after, "bbb", coverages[seed - 1][1])
    out_file = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exit_info:
        run_script(monkeypatch, capsys, "bench_pairs.py", "--parent", str(parent),
                   "--change", str(change), "--workload", "symbolic", "--seeds", "1-3",
                   "--reuse", "--out", str(out_file))
    assert exit_info.value.code == 0
    report = json.loads(out_file.read_text())
    assert report["machine"]["cpu"] == "test cpu"
    assert report["commits"]["parent"][0].startswith("aaa")
    assert [r["position"] for r in report["runs"] if r["side"] == "parent"] == [0, 1, 0]
    summary = report["summary"]["symbolic"]
    assert summary["pairs"] == 3 and summary["all_correct"]
    # each run's job coverage, read back from its latencies and jobs_per_s,
    # and each side's least
    got = {(r["side"], r["seed"]): r["coverage"] for r in report["runs"]}
    want = {(side, seed): c[i] for seed, c in enumerate(coverages, start=1)
            for i, side in enumerate(("parent", "change"))}
    assert got == pytest.approx(want)
    assert summary["min_coverage"] == pytest.approx({"parent": 0.98, "change": 0.975})
    jps = summary["metrics"]["jobs_per_s"]
    assert jps["parent"] == {"median": 11, "q1": 10.5, "q3": 11.5}
    assert jps["change"]["median"] == 19 and jps["change_won"] == 2
    assert summary["metrics"]["job_p50_s"]["change_won"] == 2      # lower is better
    assert summary["metrics"]["setup_s"]["change_won"] == 0        # ties do not count
    assert report["verify_seconds"] == {} and report["tier1"] == {}  # nothing ran


def test_bench_pairs_verify_seconds(monkeypatch):
    # one real `verify --suite all --timings` run, replayed with its seconds
    # times 3, 1 and 2: the script keeps each check's median, twice the real
    bench_pairs = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    real = subprocess.run([sys.executable, "-m", "quatherm.cli", "verify", "--suite", "all",
                           "--timings"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")})
    assert real.returncode in (0, 1), real.stderr
    scales = [3, 1, 2]

    def replay(cmd, **kwargs):
        data = json.loads(real.stdout)
        scale = scales.pop(0)
        for check in data["checks"]:
            check["seconds"] *= scale
        return subprocess.CompletedProcess(cmd, real.returncode, json.dumps(data), "")

    monkeypatch.setattr(subprocess, "run", replay)
    seconds = bench_pairs["verify_seconds"](SCRIPTS.parent)
    assert bench_pairs["VERIFY_RUNS"] == 3 and scales == []
    assert {"plancherel.pairing", "plancherel.inversion", "density.oracle.p3.l1.1-1"} <= set(seconds)
    assert seconds == {c["check_id"]: 2 * c["seconds"]
                       for c in json.loads(real.stdout)["checks"]}
    assert all(isinstance(v, float) and v >= 0 for v in seconds.values())


def test_bench_pairs_tier1(monkeypatch):
    # a replayed pytest run: the counts come from its closing summary line
    bench_pairs = runpy.run_path(str(SCRIPTS / "bench_pairs.py"))
    seen = []
    slowest = ["3.91s call     tests/test_density.py::test_count_reps_matches_generic",
               "0.12s setup    tests/test_cli.py::test_verify[json]"]

    def replay(cmd, **kwargs):
        seen.append((cmd, kwargs))
        out = ("..F.s\n[100%]\n" + "=" * 10 + " slowest 20 durations " + "=" * 10 + "\n"
               + "".join(line + "\n" for line in slowest)
               + "2 failed, 447 passed, 18 skipped, 1 error in 35.28s\n")
        return subprocess.CompletedProcess(cmd, 1, out, "")

    monkeypatch.setattr(subprocess, "run", replay)
    got = bench_pairs["tier1"](SCRIPTS.parent)
    seconds = got.pop("seconds")
    assert got == {"passed": 447, "failed": 2, "skipped": 18, "error": 1, "durations": slowest}
    assert isinstance(seconds, float) and seconds >= 0
    (cmd, kwargs), = seen
    assert cmd[1:] == ["-m", "pytest", "-q", "--continue-on-collection-errors",
                       "-p", "no:cacheprovider", "--durations=20"]
    assert kwargs["cwd"] == SCRIPTS.parent
    assert kwargs["env"]["PYTHONPATH"] == str(SCRIPTS.parent / "src")

    def crashed(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 2, "", "ImportError: no module")

    monkeypatch.setattr(subprocess, "run", crashed)
    with pytest.raises(RuntimeError, match="exited 2"):
        bench_pairs["tier1"](SCRIPTS.parent)


def test_tracer_binds_every_target():
    # perfbench/tracing.py names library functions by string; a deletion or
    # rename in the library must fail here rather than break a traced run
    path = SCRIPTS.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def bindings():
        return {(name, attr): id(val) for name, mod in sys.modules.items()
                if name == "quatherm" or name.startswith("quatherm.")
                for attr, val in list(vars(mod).items()) + [
                    (f"{cls}.{meth}", fn) for cls, obj in vars(mod).items()
                    if isinstance(obj, type) for meth, fn in vars(obj).items()]}

    import quatherm.cli  # noqa: F401
    before = bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        prefixes = {prefix for _, _, prefix, _, _ in tracing._TARGETS}
        assert set(tracer.agg) == prefixes
        from quatherm import laurent, spherical
        assert spherical.symmetric_sum is laurent.symmetric_sum
        assert hasattr(laurent.symmetric_sum, "__wrapped__")
    finally:
        tracer.uninstall()
    assert bindings() == before


def _perfbench_module(name):
    path = SCRIPTS.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _identifiers(node):
    """Every name, attribute and imported name a syntax tree uses."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]


def test_no_unreferenced_public_names():
    # A public module-level function or class of src/quatherm must be named in
    # src/quatherm outside its own definition, be in quatherm.__all__, be bound
    # by perfbench/tracing.py, or be imported by a script; code that only its
    # own test calls belongs in tests/
    import quatherm

    referenced = set(quatherm.__all__)
    referenced |= {attr.partition(".")[0] for _, attr, *_ in _perfbench_module("tracing")._TARGETS}
    for path in SCRIPTS.glob("*.py"):
        tree = ast.parse(path.read_text())
        imports = [alias for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   and (node.module or "").split(".")[0] == "quatherm" for alias in node.names]
        bound = {alias.asname or alias.name for alias in imports}
        referenced |= {alias.name for alias in imports}
        referenced |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                       and isinstance(node.value, ast.Name) and node.value.id in bound}
    defined, uses = [], []
    for path in sorted(Path(quatherm.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((path.stem, node))
            uses.append((node, set(_identifiers(node))))
    unreferenced = [f"{module}.{node.name}" for module, node in defined
                    if node.name not in referenced
                    and not any(node.name in names for other, names in uses if other is not node)]
    assert unreferenced == []


def _mismatched_jobs(jobs, argvs):
    """Keys of the jobs, run in process, whose exit code or output digest
    differs from the benchmark's expected table."""
    expected = jobs.load_expected()
    bad = []
    for argv in argvs:
        rc, out = jobs.run_job(argv)
        want = expected[jobs.job_key(argv)]
        if (rc, jobs.digest(out)) != (want["rc"], want["sha256"]):
            bad.append(jobs.job_key(argv))
    return bad


def test_plancherel_jobs_match_expected_outputs():
    # every guarded `light-mix` plancherel and plancherel-u job, and
    # `verify --suite symbolic`
    jobs = _perfbench_module("jobs")
    pools = {c["name"]: c["pool"] for c in jobs.load_workloads()["light-mix"]["classes"]}
    argvs = [argv for name in ("plancherel", "plancherel-u") for argv in pools[name]
             if jobs.guard_ok(argv)]
    argvs += [argv for argv in pools["verify"] if argv[-1] == "symbolic"]
    assert len(argvs) == 162 and _mismatched_jobs(jobs, argvs) == []


def test_ideal_jobs_match_expected_outputs():
    # every guarded `symbolic` job of the ideal classes: Psi through the
    # alternant sum, the Schur terms and Buchberger
    jobs = _perfbench_module("jobs")
    argvs = [argv for c in jobs.load_workloads()["symbolic"]["classes"]
             if c["name"].startswith("ideal") for argv in c["pool"] if jobs.guard_ok(argv)]
    assert len(argvs) == 96 and _mismatched_jobs(jobs, argvs) == []


def test_counting_jobs_match_expected_outputs():
    # every guarded `counting` job, every `light-mix` convolve-shallow job and
    # `verify --suite counting`: the 1x1, size-2 and direct counts
    jobs = _perfbench_module("jobs")
    workloads = jobs.load_workloads()
    pools = {c["name"]: c["pool"] for c in workloads["light-mix"]["classes"]}
    argvs = [argv for c in workloads["counting"]["classes"] for argv in c["pool"]
             if jobs.guard_ok(argv)]
    argvs += pools["convolve-shallow"]
    argvs += [argv for argv in pools["verify"] if argv[-1] == "counting"]
    assert len(argvs) == 309 and _mismatched_jobs(jobs, argvs) == []
