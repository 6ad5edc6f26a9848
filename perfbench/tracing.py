"""Span tracing of the library's public functions, from outside `src/`.

`Tracer.install()` replaces each traced function at every binding the
`quatherm` modules hold: the module attribute and each `from`-import alias
(for example `spherical.symmetric_sum` and `spherical.count_reps`), or the
class attribute for methods. `uninstall()` puts the originals back.

Spans (id, parent id, job id, name, start, end) are kept in memory and
written out by `write()`. A span's self time is its duration minus the
durations of its direct children; spans are properly nested because the
benchmark runs one job at a time on one thread. The three hottest
constructors and operators are counted, not spanned, to keep the overhead
and the span list small.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time

# (module, qualified attribute, metric prefix, kind, extra stats)
# kind "span" records spans; kind "count" only counts calls.
_TARGETS = [
    ("cli", "main", "cli.main", "span", ("self_s",)),
    ("verify", "run_suite", "verify.run_suite", "span", ("self_s",)),
    ("density", "count_reps", "density.count_reps", "span", ("self_s",)),
    ("density", "build_gram", "density.build_gram", "span", ()),
    ("density", "density_self_closed", "density.density_self_closed", "span", ()),
    ("counting", "count_matrix_pair", "counting.count_matrix_pair", "span",
     ("points", "points_per_s")),
    ("counting", "count_column_pair", "counting.count_column_pair", "span",
     ("points", "points_per_s")),
    ("counting", "count_generic", "counting.count_generic", "span",
     ("points", "points_per_s")),
    ("counting", "count_diagonal_convolved", "counting.count_diagonal_convolved", "span", ()),
    ("counting", "nrd_histogram", "counting.nrd_histogram", "span", ("bytes",)),
    ("spherical", "delta_oracle", "spherical.delta_oracle", "span", ("points", "points_per_s")),
    ("quatring", "QuatElem.__mul__", "quatring.QuatElem.mul", "count", ()),
    ("quatring", "QuatMatrix.__matmul__", "quatring.QuatMatrix.matmul", "count", ()),
    ("spherical", "psi_explicit", "spherical.psi_explicit", "span", ()),
    ("spherical", "main_term", "spherical.main_term", "span", ()),
    ("spherical", "psi_prefactor", "spherical.psi_prefactor", "span", ()),
    ("spherical", "hl_variant", "spherical.hl_variant", "span", ()),
    ("spherical", "size2_closed", "spherical.size2_closed", "span", ()),
    ("laurent", "symmetric_sum", "laurent.symmetric_sum", "span", ("self_s",)),
    ("laurent", "LaurentPoly.divide_exact_binomial",
     "laurent.LaurentPoly.divide_exact_binomial", "span", ()),
    ("ratfunc", "poly_gcd", "ratfunc.poly_gcd", "span", ()),
    ("ratfunc", "QPoly.divmod", "ratfunc.QPoly.divmod", "span", ()),
    ("ratfunc", "RatFuncQ.__init__", "ratfunc.RatFuncQ.new", "count", ()),
    ("elemsym", "to_elementary", "elemsym.to_elementary", "span", ()),
    ("elemsym", "buchberger", "elemsym.buchberger", "span", ()),
    ("elemsym", "ideal_member", "elemsym.ideal_member", "span", ()),
    ("plancherel", "y_integral", "plancherel.y_integral", "span", ()),
    ("plancherel", "y_inner", "plancherel.y_inner", "span", ()),
    ("plancherel", "h_poly", "plancherel.h_poly", "span", ()),
    ("plancherel", "transform_pairing", "plancherel.transform_pairing", "span", ()),
    ("plancherel", "plancherel_check", "plancherel.plancherel_check", "span", ()),
    ("plancherel", "inversion_check", "plancherel.inversion_check", "span", ()),
]

INFEASIBLE = "counting.infeasible"
OVERHEAD = "bench.trace_overhead"
COVERAGE = "bench.job_coverage"


def _stats(kind, extra):
    return ("calls",) if kind == "count" else ("calls", "s") + extra


_UNITS = {"calls": ("count", "lower"), "s": ("s", "lower"), "self_s": ("s", "lower"),
          "points": ("count", "higher"), "points_per_s": ("1/s", "higher"),
          "bytes": ("bytes", "lower")}


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for _, _, prefix, kind, extra in _TARGETS:
        for stat in _stats(kind, extra):
            unit, better = _UNITS[stat]
            out.append((f"{prefix}.{stat}", unit, better))
    out += [(INFEASIBLE, "count", "lower"), (OVERHEAD, "ratio", "lower"),
            (COVERAGE, "ratio", "higher")]
    return out


# -- work counts computed from the inputs ----------------------------------------


def _space(n, a):
    """p^(4*ell*m*n): the matrices u a kernel's enumeration covers."""
    pm = a.params
    return pm.p ** (4 * pm.ell * a.rows * n)


def _points(prefix, bound):
    args = bound.arguments
    if prefix == "counting.count_column_pair":
        return _space(1, args["a"])
    if prefix == "spherical.delta_oracle":
        pl = args["p"] ** args["ell"]
        return (pl // args["p"]) ** 2 * pl**2
    return _space(args["b"].rows, args["a"])


def _histogram_bytes(bound):
    args = bound.arguments
    pm = args["params"]
    n_ab = pm.p ** (pm.ell - 1) if args.get("in_radical") else pm.modulus
    return n_ab**2 * pm.modulus**2 * 8


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent id, job id, name, start ns, end ns)
        self.stack = [[0, 0]]    # [span id, child ns]; id 0 is the root
        self.next_id = 1
        self.job_id = 0
        self.agg = {}            # prefix -> {stat: value}
        self.infeasible = 0
        self._seen_exc = set()
        self._patched = []

    # -- spans ------------------------------------------------------------------

    def begin(self):
        sid = self.next_id
        self.next_id += 1
        self.stack.append([sid, 0])
        return sid, time.perf_counter_ns()

    def end(self, name, sid, start):
        stop = time.perf_counter_ns()
        frame = self.stack.pop()
        parent = self.stack[-1]
        dur = stop - start
        parent[1] += dur
        self.spans.append((sid, parent[0], self.job_id, name, start, stop))
        return dur, dur - frame[1]

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, f, prefix, extra):
        from quatherm.counting import InfeasibleSizeError

        agg = self.agg.setdefault(prefix, {"calls": 0, "s": 0, "self_s": 0,
                                           "points": 0, "bytes": 0})
        sig = inspect.signature(f) if {"points", "bytes"} & set(extra) else None

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if "points" in extra:
                    agg["points"] += _points(prefix, bound)
                else:
                    agg["bytes"] += _histogram_bytes(bound)
            sid, start = self.begin()
            try:
                return f(*args, **kwargs)
            except InfeasibleSizeError as exc:
                if exc not in self._seen_exc:
                    self._seen_exc.add(exc)
                    self.infeasible += 1
                raise
            finally:
                dur, own = self.end(prefix, sid, start)
                agg["calls"] += 1
                agg["s"] += dur
                agg["self_s"] += own

        return wrapper

    def _count_wrapper(self, f, prefix):
        agg = self.agg.setdefault(prefix, {"calls": 0})

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            agg["calls"] += 1
            return f(*args, **kwargs)

        return wrapper

    def install(self):
        import quatherm.cli  # noqa: F401  (loads every module that binds a target)

        mods = {name: mod for name, mod in sys.modules.items()
                if name == "quatherm" or name.startswith("quatherm.")}
        for modname, attr, prefix, kind, extra in _TARGETS:
            owner = mods[f"quatherm.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(owner, cls_name)
                orig = owner.__dict__[meth]
                self._patch(owner, meth, self._wrap(orig, prefix, kind, extra))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, prefix, kind, extra)
            for mod in mods.values():
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, name, wrapped)

    def _wrap(self, f, prefix, kind, extra):
        if kind == "count":
            return self._count_wrapper(f, prefix)
        return self._span_wrapper(f, prefix, extra)

    def _patch(self, owner, name, new):
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def uninstall(self):
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched.clear()

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for _, _, prefix, kind, extra in _TARGETS:
            agg = self.agg.get(prefix, {})
            for stat in _stats(kind, extra):
                if stat in ("s", "self_s"):
                    val = agg.get(stat, 0) / 1e9
                elif stat == "points_per_s":
                    secs = agg.get("s", 0) / 1e9
                    val = agg.get("points", 0) / secs if secs else 0.0
                else:
                    val = agg.get(stat, 0)
                out[f"{prefix}.{stat}"] = val
        out[INFEASIBLE] = self.infeasible
        return out

    def calls(self, prefix: str) -> int:
        return self.agg.get(prefix, {}).get("calls", 0)

    def write(self, path, job_keys):
        """Spans as gzipped CSV; job ids index `job_keys` (1-based)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for jid, key in enumerate(job_keys, 1):
                fh.write(f"# job {jid} {key}\n")
            fh.write("span,parent,job,name,start_ns,end_ns\n")
            for rec in self.spans:
                fh.write(",".join(map(str, rec)) + "\n")
