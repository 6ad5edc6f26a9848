"""Command-line front end.

Subcommands: density, spherical, ideal, plancherel, verify.  All numeric
output is serialized exactly (integer or num/den strings), never as floats.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import counting, density, elemsym, plancherel, spherical, verify
from .laurent import map_distinct
from .quatring import RingParams
from .ratfunc import format_fraction


def _parse_ints(text: str, option: str) -> tuple:
    """A comma list of integers; a ValueError that names the option otherwise."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{option} takes comma-separated integers, got {text!r}") from None


def _emit(payload, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _emit_text(payload)
    return 0


def _emit_text(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _emit_text(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            _emit_text(v, indent)
            if isinstance(v, dict):
                print()
    else:
        print(f"{pad}{payload}")


# -- density -----------------------------------------------------------------------


def cmd_density(args) -> int:
    alpha = _parse_ints(args.alpha, "--alpha")
    beta = _parse_ints(args.beta, "--beta") if args.beta else alpha
    levels = list(_parse_ints(args.ell, "--ell"))
    p = args.p
    n, m = len(beta), len(alpha)
    if len(levels) == 1 and levels[0] > 1:
        # add the level below for the stability flag when it is cheap
        below = levels[0] - 1
        exponent = 4 * below * m * n
        if exponent <= 24 and p**exponent <= 1 << 24:
            levels = [below, levels[0]]

    if args.method == "closed":
        if args.primitive:
            raise ValueError("no closed primitive density: drop --primitive, or count it "
                             "with --method enumerate")
        if beta != alpha:
            raise ValueError("closed formula available for the self-density only")
        RingParams(p, 1)   # p must be an odd prime, as for the counts
        val = density.density_self_closed(alpha)
        num, den = val.as_coeff_arrays()
        payload = {
            "alpha": list(alpha),
            "closed": {"num": num, "den": den, "display": str(val)},
            "value_at_p": format_fraction(val.eval_at(p)),
            "p": p,
        }
        return _emit(payload, args.format)

    if args.method == "convolve" and len(beta) != 1:
        # count_reps convolves every 1x1 source (Gram targets are block-diagonal)
        raise ValueError("convolution path needs a 1x1 source form")
    results, stable = density.density_levels(beta, alpha, p, levels, args.primitive,
                                             args.eps2, args.budget)
    entries = [{"level": r.level, "count": r.count,
                "normalized": format_fraction(r.normalized)} for r in results]
    payload = {
        "p": p,
        "alpha": list(alpha),
        "beta": list(beta),
        "primitive": args.primitive,
        "levels": entries,
        "count": entries[-1]["count"],
        "normalized": entries[-1]["normalized"],
        "stable": stable,
    }
    return _emit(payload, args.format)


# -- spherical ---------------------------------------------------------------------


def _terms_payload(poly) -> dict:
    text = map_distinct(poly.terms, str)
    return {",".join(map(str, e)): text[e] for e in sorted(text, reverse=True)}


def cmd_spherical(args) -> int:
    alpha = _parse_ints(args.alpha, "--alpha")
    n = len(alpha) if args.n is None else args.n
    what = args.what
    if what == "psi":
        payload = {"what": "psi", "alpha": list(alpha), "n": n,
                   "terms": _terms_payload(spherical.psi_explicit(alpha, n))}
    elif what == "main-term":
        payload = {"what": "main-term", "alpha": list(alpha), "n": n,
                   "terms": _terms_payload(spherical.main_term(alpha, n))}
    elif what == "omega":
        if n != 2:
            raise ValueError("the closed fraction form is implemented for size 2")
        num, g2 = spherical.size2_closed(alpha)
        payload = {"what": "omega", "alpha": list(alpha), "n": 2,
                   "numerator": _terms_payload(num),
                   "denominator": _terms_payload(g2)}
    elif what == "delta":
        dc = spherical.delta_closed(alpha, n)
        payload = {
            "what": "delta", "alpha": list(alpha), "n": n,
            "scalar": str(dc.scalar),
            "monomial": list(dc.monomial),
            "denominator_pairs": [list(p) for p in dc.den_pairs],
        }
    elif what.startswith("hl:"):
        kind = what.split(":", 1)[1]
        payload = {"what": what, "lambda": list(alpha), "n": n,
                   "terms": _terms_payload(spherical.hl_variant(kind, alpha, n))}
    else:
        raise ValueError(f"unknown --what {what!r}")
    return _emit(payload, args.format)


# -- ideal --------------------------------------------------------------------------


def cmd_ideal(args) -> int:
    n = args.n
    q_specs = list(_parse_ints(args.q_spec, "--q-spec"))
    labels = ([_parse_ints(x, "--alpha") for x in args.alpha.split(";")]
              if args.alpha else verify.IDEAL_LABELS[n])
    verdicts = [{"alpha": list(alpha), "q": q0, "member": member}
                for q0, _, members in verify.ideal_verdicts(n, labels, q_specs)
                for alpha, member in members]
    payload = {
        "n": n,
        "note": "membership verified at rational specializations of q",
        "generators": [str(g) for g in elemsym.schwartz_image_generators(n)],
        "verdicts": verdicts,
    }
    return _emit(payload, args.format)


# -- plancherel ----------------------------------------------------------------------


def cmd_plancherel(args) -> int:
    alpha = _parse_ints(args.alpha, "--alpha")
    beta = _parse_ints(args.beta, "--beta") if args.beta else alpha
    if args.q is not None and args.q < 2:
        raise ValueError(f"--q is the residue field size, an integer >= 2; got {args.q}")
    pairing = plancherel.transform_pairing(alpha, beta)
    payload = {
        "alpha": list(alpha),
        "beta": list(beta),
        "pairing": str(pairing),
        "orbit_volume_alpha": str(plancherel.orbit_volume(alpha)),
        "plancherel_ok": plancherel.plancherel_check(alpha, beta, pairing),
        "inversion_ok": plancherel.inversion_check(alpha, beta, pairing),
    }
    if args.q is not None:
        payload["pairing_at_q"] = format_fraction(pairing.eval_at(args.q))
    if args.symbolic_u:
        pairs = [(l, m) for l in range(1, 5) for m in range(l, 5)]
        checks = [{"check": f"<H{key[1]},H{key[2]}>" if key[0] == "inner" else key[0],
                   "ok": ok}
                  for key, ok in verify.orthogonality_suite(pairs)]
        payload["symbolic_u_checks"] = checks
    return _emit(payload, args.format)


# -- verify --------------------------------------------------------------------------


def cmd_verify(args) -> int:
    results = verify.run_suite(args.suite, budget=args.budget)
    records = []
    for r in results:
        rec = {
            "check_id": r.check_id,
            "name": r.name,
            "status": r.status,
            "expected": r.expected,
            "actual": r.actual,
        }
        if r.note:
            rec["note"] = r.note
        if args.timings:
            rec["seconds"] = round(r.seconds, 3)
        records.append(rec)
    n_fail = sum(1 for r in results if r.status == "fail")
    if args.format == "json":
        print(json.dumps({"suite": args.suite, "failures": n_fail,
                          "checks": records}, indent=2, sort_keys=True))
    else:
        for rec in records:
            mark = "PASS" if rec["status"] == "pass" else rec["status"].upper()
            line = f"[{mark}] {rec['check_id']}: {rec['name']}"
            if args.timings:
                line += f" ({rec['seconds']}s)"
            print(line)
            if rec["status"] == "fail":
                print(f"       expected: {rec['expected']}")
                print(f"       actual:   {rec['actual']}")
            if rec.get("note"):
                print(f"       note: {rec['note']}")
        print(f"{len(records) - n_fail}/{len(records)} checks passed")
    return 1 if n_fail else 0


# -- argument parsing ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quatherm",
        description="exact local densities and spherical functions of "
                    "p-adic quaternion hermitian forms",
    )
    ap.add_argument("--format", choices=("json", "text"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("density", help="finite-level counts and closed densities")
    d.add_argument("--p", type=int, default=3)
    d.add_argument("--ell", default="1,2", help="comma list of levels")
    d.add_argument("--alpha", required=True, help="target form label, e.g. 2,0")
    d.add_argument("--beta", default=None, help="represented form label (default alpha)")
    d.add_argument("--primitive", action="store_true")
    d.add_argument("--method", choices=("enumerate", "convolve", "closed"),
                   default="enumerate")
    d.add_argument("--eps2", type=int, default=0)
    d.add_argument("--budget", type=int, default=counting.DEFAULT_BUDGET)
    d.set_defaults(func=cmd_density)

    s = sub.add_parser("spherical", help="explicit spherical values")
    s.add_argument("--n", type=int, default=None)
    s.add_argument("--alpha", required=True)
    s.add_argument("--what", default="psi",
                   help="psi | omega | main-term | delta | hl:GL | hl:A | hl:H")
    s.set_defaults(func=cmd_spherical)

    i = sub.add_parser("ideal", help="transform-image ideal membership")
    i.add_argument("--n", type=int, choices=(3, 4), required=True)
    i.add_argument("--q-spec", dest="q_spec", default="2,3,5")
    i.add_argument("--alpha", default=None,
                   help="semicolon-separated labels, e.g. '2,0,0;1,1,0'")
    i.set_defaults(func=cmd_ideal)

    pl = sub.add_parser("plancherel", help="size-2 pairing and inversion")
    pl.add_argument("--alpha", required=True)
    pl.add_argument("--beta", default=None)
    pl.add_argument("--q", type=int, default=None)
    pl.add_argument("--symbolic-u", dest="symbolic_u", action="store_true")
    pl.set_defaults(func=cmd_plancherel)

    v = sub.add_parser("verify", help="run the verification suite")
    v.add_argument("--suite", choices=verify.TIERS + ("all",), default="symbolic")
    v.add_argument("--budget", type=int, default=counting.DEFAULT_BUDGET)
    v.add_argument("--timings", action="store_true")
    v.set_defaults(func=cmd_verify)
    return ap


_LABEL_FLAGS = {"--alpha", "--beta"}


def _glue_negative_labels(argv):
    """Join '--alpha -1,-1' into '--alpha=-1,-1' so argparse accepts it."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in _LABEL_FLAGS:
            try:
                nxt = next(it)
            except StopIteration:
                out.append(tok)
                break
            if nxt.startswith("-") and len(nxt) > 1 and nxt[1].isdigit():
                out.append(f"{tok}={nxt}")
            else:
                out.extend((tok, nxt))
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_glue_negative_labels(list(argv)))
    try:
        return args.func(args)
    except (ValueError, counting.InfeasibleSizeError) as exc:
        # invalid labels or parameters (InvalidPartition is a ValueError) and
        # requests over the operation budget
        print(f"quatherm: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
