"""Job pools, the safety guard, the seeded generator and job execution.

A job is one user request. It is either a `quatherm` argv, run through
`quatherm.cli.main` with stdout captured, or a library call written as
`["lib", <function>, <args>...]` for work the CLI cannot reach. The job key is
the argv joined by single spaces; the expected-output table is keyed by it.

The workloads, their job classes, pools and per-round counts live in
`workloads.json` next to this file. A run is a sequence of whole rounds; each
round draws `per_round` jobs from every class and shuffles them, so the mix
of a run does not depend on the seed: only the draw and the order do.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS_FILE = HERE / "workloads.json"
EXPECTED_FILE = HERE / "expected.json"

# Mirrors counting.DEFAULT_BUDGET; run.py checks the two agree at start-up.
OPS_BUDGET = 2**36
# Largest single numpy array a job may allocate. The level-4 convolution at
# p=3 (43M int64 cells, 344 MB per array, ~1 GiB peak) is the largest kept.
MAX_ARRAY_BYTES = 512 * 2**20
# count_generic allocates chunks of this many int64 indices.
GENERIC_CHUNK = 1 << 20
# cli.cmd_density adds the level below a single requested level when the
# enumeration space p^(4*below*m*n) stays under this.
LEVEL_BELOW_LIMIT = 1 << 24


def job_key(argv) -> str:
    return " ".join(argv)


def load_workloads() -> dict:
    with open(WORKLOADS_FILE) as fh:
        return json.load(fh)


def load_expected() -> dict:
    with open(EXPECTED_FILE) as fh:
        return json.load(fh)


# -- safety guard -----------------------------------------------------------------


def _label(text: str) -> tuple:
    return tuple(int(x) for x in text.split(","))


def _density_args(argv) -> dict:
    opts = {"--p": "3", "--ell": "1,2", "--beta": None, "--method": "enumerate"}
    it = iter(argv[1:])
    for tok in it:
        if tok != "--primitive":
            opts[tok] = next(it)
    alpha = _label(opts["--alpha"])
    beta = _label(opts["--beta"]) if opts["--beta"] else alpha
    levels = [int(x) for x in opts["--ell"].split(",")]
    p = int(opts["--p"])
    n, m = len(beta), len(alpha)
    if len(levels) == 1 and levels[0] > 1:
        below = levels[0] - 1
        if p ** (4 * below * m * n) <= LEVEL_BELOW_LIMIT:
            levels = [below, levels[0]]
    return {"p": p, "levels": levels, "alpha": alpha, "beta": beta,
            "method": opts["--method"]}


def _is_diagonal(alpha, p: int, ell: int) -> bool:
    """Whether the Gram representative of alpha is diagonal mod p^ell.

    Odd values give off-diagonal blocks p^e * Pi, which vanish once e >= ell.
    """
    return all(v % 2 == 0 or (v - 1) // 2 >= ell for v in alpha)


def estimate(argv) -> tuple[int, int]:
    """(operations, largest numpy array in bytes) of one job, from its inputs.

    Mirrors the dispatch in density.count_reps and the kernels' own budget
    formulas; jobs that allocate no arrays report 0 bytes.
    """
    if argv[0] == "lib" and argv[1] == "delta_oracle":
        p, ell = int(argv[3]), int(argv[4])
        pl = p**ell
        return (pl // p) ** 2 * pl**2, 0
    if argv[0] != "density":
        return 0, 0
    d = _density_args(argv)
    if d["method"] == "closed":
        return 0, 0
    p, alpha, beta = d["p"], d["alpha"], d["beta"]
    m, n = len(alpha), len(beta)
    ops = nbytes = 0
    for ell in d["levels"]:
        pl = p**ell
        if d["method"] == "convolve" or (n == 1 and _is_diagonal(alpha, p, ell)):
            o, b = pl**4 * m, pl**4 * 8
        elif n == 1 and m == 2:
            o, b = pl**8 * 16, pl**4 * 8
        elif n == 2 and m == 2 and pl**8 <= (1 << 21):
            o, b = pl**16 * 8, pl**8 * 8
        else:
            o, b = pl ** (4 * m * n) * 4 * m * n * max(m, 1), GENERIC_CHUNK * 8
        ops += o
        nbytes = max(nbytes, b)
    return ops, nbytes


def guard_ok(argv) -> bool:
    ops, nbytes = estimate(argv)
    return ops <= OPS_BUDGET and nbytes <= MAX_ARRAY_BYTES


# -- generator --------------------------------------------------------------------


def generate(spec: dict, seed: int, workload: str):
    """Yield rounds, each a shuffled list of argvs.

    Every class contributes `per_round` jobs per round, drawn from its guarded
    pool without repeats inside the round. In a `distinct` workload no key
    repeats within the whole run either, and the rounds stop when the
    smallest pool runs out.
    """
    rng = random.Random(f"{workload}:{seed}")
    classes = [(cls["per_round"], [argv for argv in cls["pool"] if guard_ok(argv)])
               for cls in spec["classes"]]
    if spec["distinct"]:
        for _, pool in classes:
            rng.shuffle(pool)
        n_rounds = min(len(pool) // k for k, pool in classes)
        draws = (lambda r, k, pool: pool[r * k:(r + 1) * k])
    else:
        n_rounds = None
        draws = (lambda r, k, pool: rng.sample(pool, k))
    r = 0
    while n_rounds is None or r < n_rounds:
        batch = [argv for k, pool in classes for argv in draws(r, k, pool)]
        rng.shuffle(batch)
        yield batch
        r += 1


# -- execution --------------------------------------------------------------------


def run_job(argv) -> tuple[int, str]:
    """Run one job in-process; returns (exit code, captured output)."""
    from quatherm import cli, spherical

    if argv[0] == "lib":
        if argv[1] != "delta_oracle":
            raise ValueError(f"unknown library job {argv[1]!r}")
        result = spherical.delta_oracle(_label(argv[2]), int(argv[3]), int(argv[4]))
        return 0, repr(result)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, buf.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
