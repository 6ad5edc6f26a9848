"""Build the job pools (`workloads.json`) and the expected-output table
(`expected.json`) from the library at the current commit.

    python3 perfbench/tables.py pools      # rewrite workloads.json
    python3 perfbench/tables.py expected   # record the pool jobs expected.json lacks

`expected` records each job's exit code and the SHA-256 of its exact output,
and asserts the independent checks that exist for it: stable self-densities
equal the closed formula, ideal verdicts are members, the Plancherel and
inversion flags are true, `verify` reports no failure, delta-oracle
distributions equal the closed valuation weights, and two level-1 size-2
self-counts equal the `count_generic` reference. Building it takes minutes.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import jobs  # noqa: E402

WHY = {
    "symbolic": "orbit-sum and Q(q) layers (laurent, ratfunc, elemsym) at n=3,4; "
                "ideal jobs redo the shared generator Psi work; counting never runs",
    "counting": "counting kernels (matrix-pair, column-pair, generic, convolution) and "
                "the delta oracle; each key once per run, nothing shared, laurent idle",
    "light-mix": "many short requests: per-request CLI/JSON cost, small Q(q) "
                 "canonicalisations, plancherel and bivar, and the only verify jobs",
}


def orbit_labels(n: int, lo: int, hi: int):
    from quatherm.density import is_orbit_label

    return [lab for lab in itertools.product(range(hi, lo - 1, -1), repeat=n)
            if all(lab[i] >= lab[i + 1] for i in range(n - 1)) and is_orbit_label(lab)]


def _s(label) -> str:
    return ",".join(map(str, label))


def _dens(*args, primitive=False):
    argv = ["density", *args]
    return argv + ["--primitive"] if primitive else argv


L4_TAIL = [(0, 0, -1, -1), (1, 1, 0, 0), (2, 0, -1, -1), (2, 1, 1, 0), (2, 2, 1, 1),
           (3, 3, -1, -1), (3, 3, 0, 0), (3, 3, 1, 1), (3, 3, 2, 0), (3, 3, 2, 2),
           (4, 0, -1, -1), (4, 1, 1, 0), (4, 2, 1, 1), (4, 3, 3, 0), (4, 4, -1, -1),
           (4, 4, 1, 1), (4, 4, 3, 3)]


def symbolic_classes():
    l3, l4 = orbit_labels(3, -1, 6), orbit_labels(4, -1, 4)
    from quatherm import verify

    qs = (2, 3, 5, 7)
    multi_q = [c for k in (2, 3) for c in itertools.combinations(qs, k)]

    def sph(labels, whats):
        return [["spherical", "--alpha", _s(a), "--what", w] for a in labels for w in whats]

    def ideal(n, labels, q_specs):
        return [["ideal", "--n", str(n), "--alpha", _s(a), "--q-spec", _s(q)]
                for a in labels for q in q_specs]

    # Classes are split by cost so that each round has the same cost profile:
    # the median falls among the one-q size-3 ideal jobs on labels whose jobs
    # cost alike (0.13-0.145 s), the tail among size-4 psi / main-term jobs on
    # labels whose jobs cost 0.9-1.4 s (other size-4 labels take 0.8-2.1 s).
    return [
        {"name": "hl-n3", "per_round": 2, "pool": sph(l3, ("hl:GL", "hl:A", "hl:H"))},
        {"name": "psi-n3", "per_round": 1, "pool": sph(l3, ("psi",))},
        {"name": "main-term-n3", "per_round": 1, "pool": sph(l3, ("main-term",))},
        {"name": "ideal-n3-one-q", "per_round": 10,
         "pool": ideal(3, [(0, 0, 0), (2, 0, 0), (2, 2, 0)], [(q,) for q in qs])},
        {"name": "ideal-n3", "per_round": 2,
         "pool": ideal(3, verify.IDEAL_LABELS[3], multi_q)
                 + ideal(3, [(0, -1, -1), (1, 1, 0), (2, 1, 1)], [(q,) for q in qs])},
        {"name": "hl-n4", "per_round": 2, "pool": sph(l4, ("hl:GL", "hl:A", "hl:H"))},
        {"name": "psi-n4", "per_round": 4, "pool": sph(L4_TAIL, ("psi",))},
        {"name": "main-term-n4", "per_round": 3, "pool": sph(L4_TAIL, ("main-term",))},
        # One q per size-4 job (each further q adds ~2.5 s), and the three
        # labels whose jobs cost alike (4.3-5.2 s); the other two take 3.0-4.2 s.
        {"name": "ideal-n4", "per_round": 1,
         "pool": ideal(4, [(0, 0, 0, 0), (2, 0, 0, 0), (2, 2, 0, 0)], [(q,) for q in qs])},
    ]


def counting_classes():
    prim = (False, True)
    # --eps2 5 picks another nonresidue at p=3: a distinct request with the
    # same count (model independence), which widens the no-repeat pools.
    models = ([], ["--eps2", "5"])
    conv = []
    for p, ell in ((3, 1), (3, 2), (3, 3), (3, 5), (5, 1), (5, 2), (5, 3), (7, 1), (7, 3)):
        for alpha in ((0,), (2,), (0, 0), (2, 0), (2, 2), (0, 0, 0), (2, 0, 0)):
            for beta in ((0,), (2,)):
                for pr in prim:
                    conv.append(_dens("--method", "convolve", "--p", str(p), "--ell", str(ell),
                                      "--beta", _s(beta), "--alpha", _s(alpha), primitive=pr))
    return [
        {"name": "matrix-pair-block", "per_round": 1,
         "pool": [_dens("--ell", "1", "--alpha", _s(a), primitive=pr)
                  for a in ((1, 1), (3, 3), (2, 2), (4, 2)) for pr in prim]},
        {"name": "delta-l3", "per_round": 1,
         "pool": [["lib", "delta_oracle", _s(a), "3", "3"]
                  for a in ((0, 0), (2, 0), (1, 1), (2, 2), (3, 3), (4, 2))]},
        {"name": "matrix-pair-unit", "per_round": 1,
         "pool": [_dens("--ell", "1", "--alpha", "0,0", *eps, primitive=pr)
                  for pr in prim for eps in models]},
        {"name": "convolve-deep", "per_round": 1,
         "pool": [_dens("--method", "convolve", "--p", "3", "--ell", "4", "--beta", _s(b),
                        "--alpha", _s(a)) for a in ((0, 0), (2, 0), (2, 2), (4, 0))
                  for b in ((0,), (2,))]},
        {"name": "matrix-pair-diag", "per_round": 4,
         "pool": [_dens("--ell", "1", "--alpha", _s(a), *eps, primitive=pr)
                  for a in ((2, 0), (4, 0), (6, 0)) for pr in prim for eps in models]},
        {"name": "column-pair", "per_round": 6,
         "pool": [_dens("--ell", "2", "--beta", _s(b), "--alpha", _s(a), *eps, primitive=pr)
                  for a in ((1, 1), (3, 3)) for b in ((0,), (2,)) for pr in prim
                  for eps in models]},
        {"name": "generic", "per_round": 10,
         "pool": [_dens("--ell", "1", "--beta", _s(b), "--alpha", _s(a), *eps, primitive=pr)
                  for a in ((1, 1, 0), (2, 1, 1), (4, 1, 1)) for b in ((0,), (2,))
                  for pr in prim for eps in models]},
        {"name": "delta-l2", "per_round": 2,
         "pool": [["lib", "delta_oracle", _s(a), "3", "2"]
                  for a in ((0, 0), (2, 0), (1, 1), (2, 2), (3, 3), (4, 2))]},
        {"name": "convolve", "per_round": 8, "pool": conv},
    ]


def light_classes():
    pl_labels = ((0, 0), (2, 0), (2, 2), (1, 1), (3, 3), (4, 0), (4, 2))
    sph2 = orbit_labels(2, 0, 6)
    closed = [lab for n in range(1, 7) for lab in orbit_labels(n, 0, 4)]
    conv = [_dens("--method", "convolve", "--ell", str(ell), "--beta", _s(b), "--alpha", _s(a),
                  primitive=pr)
            for ell in (1, 2) for a in ((0,), (2,), (0, 0), (2, 0), (2, 2), (4, 0), (2, 0, 0))
            for b in ((0,), (2,)) for pr in (False, True)]
    return [
        {"name": "plancherel", "per_round": 6,
         "pool": [["plancherel", "--alpha", _s(a), "--beta", _s(b)] + extra
                  for a in pl_labels for b in pl_labels
                  for extra in ([], ["--q", "3"], ["--q", "5"])]
                 + [["plancherel", "--alpha", _s(a)] for a in pl_labels]},
        {"name": "plancherel-u", "per_round": 1,
         "pool": [["plancherel", "--alpha", _s(a), "--symbolic-u"] for a in pl_labels]},
        {"name": "spherical-n2", "per_round": 6,
         "pool": [["spherical", "--n", "2", "--alpha", _s(a), "--what", w]
                  for a in sph2 for w in ("psi", "omega", "delta")]},
        {"name": "closed", "per_round": 6,
         "pool": [["density", "--method", "closed", "--alpha", _s(a)] for a in closed]},
        {"name": "convolve-shallow", "per_round": 6, "pool": conv},
        {"name": "verify", "per_round": 2,
         "pool": [["verify", "--suite", "symbolic"], ["verify", "--suite", "counting"]]},
    ]


def build_pools():
    spec = {
        "symbolic": {"why": WHY["symbolic"], "distinct": False, "tail_percentile": 80,
                     "classes": symbolic_classes()},
        "counting": {"why": WHY["counting"], "distinct": True, "tail_percentile": 70,
                     "classes": counting_classes()},
        "light-mix": {"why": WHY["light-mix"], "distinct": False, "tail_percentile": 95,
                      "classes": light_classes()},
    }
    # one job per line: the pools are long and each argv is short
    text = json.dumps(spec, indent=1)
    text = re.sub(r"\[\n\s+(\"[^\n]*\",?\n\s+)*\"[^\n]*\"\n\s+\]",
                  lambda m: json.dumps(json.loads(m.group(0))), text)
    with open(jobs.WORKLOADS_FILE, "w") as fh:
        fh.write(text + "\n")


# -- independent checks ------------------------------------------------------------


def _require(ok, *what):
    if not ok:
        raise RuntimeError(f"independent check failed: {what}")


def _check_density(argv, out):
    from quatherm import density
    from quatherm.ratfunc import format_fraction

    d = jobs._density_args(argv)
    payload = json.loads(out)
    if d["method"] != "closed" and d["alpha"] == d["beta"] and payload["stable"] \
            and "--primitive" not in argv:
        closed = format_fraction(density.density_self_closed(d["alpha"]).eval_at(d["p"]))
        _require(payload["normalized"] == closed, argv, payload["normalized"], closed)


def _check_generic(argv, out):
    """Cross-check a level-1 size-2 self-count against direct enumeration."""
    from quatherm import counting, density
    from quatherm.quatring import RingParams

    d = jobs._density_args(argv)
    gram = density.build_gram(d["alpha"], RingParams(d["p"], 1))
    ref = counting.count_generic(gram, gram, primitive="--primitive" in argv)
    _require(json.loads(out)["count"] == ref, argv, ref)


GENERIC_CROSS_CHECKED = {
    "density --ell 1 --alpha 2,0",
    "density --ell 1 --alpha 1,1",
}


def check_output(argv, rc, out):
    _require(rc == 0, argv, rc)
    if argv[0] == "lib":
        from quatherm import spherical

        alpha, p, ell = jobs._label(argv[2]), int(argv[3]), int(argv[4])
        w, tail, v2 = spherical.delta_series_weights(alpha, vmax=ell)
        closed = ({v: c.eval_at(p) for v, c in w.items()}, tail.eval_at(p), v2)
        _require(out == repr(closed), argv, out, closed)
    elif argv[0] == "density":
        _check_density(argv, out)
        if jobs.job_key(argv) in GENERIC_CROSS_CHECKED:
            _check_generic(argv, out)
    elif argv[0] == "ideal":
        _require(all(v["member"] for v in json.loads(out)["verdicts"]), argv)
    elif argv[0] == "plancherel":
        payload = json.loads(out)
        _require(payload["plancherel_ok"] and payload["inversion_ok"], argv)
        _require(all(c["ok"] for c in payload.get("symbolic_u_checks", [])), argv)
    elif argv[0] == "verify":
        _require(json.loads(out)["failures"] == 0, argv)


def build_expected():
    """Record every guarded pool job, running and checking those the table
    lacks; entries for jobs no longer in any pool are dropped.

    Delete expected.json first to rebuild the whole table.
    """
    spec = jobs.load_workloads()
    old = jobs.load_expected() if jobs.EXPECTED_FILE.exists() else {}
    table = {}
    for wl in spec.values():
        for cls in wl["classes"]:
            for argv in cls["pool"]:
                key = jobs.job_key(argv)
                if not jobs.guard_ok(argv):
                    continue
                if key in old:
                    table[key] = old[key]
                    continue
                t0 = time.perf_counter()
                rc, out = jobs.run_job(argv)
                check_output(argv, rc, out)
                table[key] = {"rc": rc, "sha256": jobs.digest(out)}
                print(f"{time.perf_counter() - t0:8.3f}s  {key}", flush=True)
    with open(jobs.EXPECTED_FILE, "w") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what == "pools":
        build_pools()
    elif what == "expected":
        build_expected()
    else:
        sys.exit("usage: tables.py pools|expected")
