import hashlib
import json
import time
import tracemalloc

import pytest

from quatherm.cli import main
from quatherm.density import density_self_closed
from quatherm.ratfunc import format_fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_density_example(capsys):
    code, data = run_json(capsys, "density", "--p", "3", "--ell", "2",
                          "--alpha", "0", "--beta", "0")
    assert code == 0
    assert data["normalized"] == "4/3"
    assert data["stable"] is True
    assert data["count"] == 972


def test_density_closed_method(capsys):
    code, data = run_json(capsys, "density", "--method", "closed",
                          "--alpha", "1,1", "--p", "3")
    assert code == 0
    assert data["value_at_p"] == "80"


def test_density_convolve_method(capsys):
    code, data = run_json(capsys, "density", "--method", "convolve",
                          "--p", "3", "--ell", "1,2", "--alpha", "0")
    assert code == 0
    assert data["normalized"] == "4/3" and data["stable"] is True


def test_exactness_contract(capsys):
    # 32/27 serialized exactly, never as a float
    code, out = run_cli(capsys, "density", "--p", "3", "--ell", "1",
                        "--alpha", "0,0")
    assert code == 0
    assert "32/27" in out
    assert "1.18" not in out


def test_spherical_psi_constant(capsys):
    code, data = run_json(capsys, "spherical", "--n", "2",
                          "--alpha", "-1,-1", "--what", "psi")
    assert code == 0
    assert data["terms"] == {"0,0": "-1 + q"}


# SHA-256 of the JSON output at n = 5, where no benchmark job reaches; recorded
# from the engine that permuted the collected terms and divided by the Vandermonde
SIZE5_DIGESTS = {
    ("0,0,0,0,0", "psi"): "58410f39b66a7d6446d2c3142f20544a606714e790287e1be2ee994cdce1244c",
    ("0,0,0,0,0", "main-term"): "a2f625565c757a1559a6a919f5ee95e5fe1885cf8a6a216643c12209a480a7c6",
    ("3,3,1,1,0", "psi"): "28a80a47fafcb1b0de50adf4e909522c3b0a46af3f91918c99c2d65896025223",
    ("3,3,1,1,0", "main-term"): "9d172de16bdbe820c8c00b86d5e5a5fb7ee713bf9b7039bdebd88f3246c6464a",
}


@pytest.mark.parametrize("alpha,what", sorted(SIZE5_DIGESTS))
def test_spherical_size5_digests(capsys, alpha, what):
    code, out = run_cli(capsys, "spherical", "--alpha", alpha, "--what", what)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SIZE5_DIGESTS[alpha, what]


# recorded from the engine that expanded the whole numerator (14 s there)
SIZE6_ZERO_DIGEST = "5c672a705270349dcd7b4f03bcc3f771218e34cd0d01a8c08bcaa7f203b3737c"


def test_spherical_size6_zero_label(capsys):
    from quatherm.spherical import psi_explicit

    code, out = run_cli(capsys, "spherical", "--alpha", "0,0,0,0,0,0", "--what", "psi")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SIZE6_ZERO_DIGEST
    assert psi_explicit((0,) * 6, 6).is_symmetric()


def test_spherical_whats(capsys):
    code, data = run_json(capsys, "spherical", "--alpha", "2,0", "--what", "delta")
    assert code == 0
    assert data["scalar"] == "(1)/(q)" and data["monomial"] == [0, 1]
    code, data = run_json(capsys, "spherical", "--alpha", "0,0", "--what", "omega")
    assert code == 0
    assert set(data) >= {"numerator", "denominator"}
    code, data = run_json(capsys, "spherical", "--n", "2", "--alpha", "0,0",
                          "--what", "hl:GL")
    assert code == 0
    assert data["terms"] == {"0,0": "(1 + q)/(q)"}


def test_ideal_quick(capsys):
    code, data = run_json(capsys, "ideal", "--n", "3", "--q-spec", "3",
                          "--alpha", "2,0,0;1,1,0")
    assert code == 0
    assert all(v["member"] for v in data["verdicts"])
    assert len(data["verdicts"]) == 2


def test_plancherel_subcommand(capsys):
    code, data = run_json(capsys, "plancherel", "--alpha", "1,1", "--q", "3")
    assert code == 0
    assert data["plancherel_ok"] and data["inversion_ok"]
    assert data["pairing_at_q"] == "2/5"
    code, data = run_json(capsys, "plancherel", "--alpha", "0,0", "--beta", "2,0")
    assert code == 0
    assert data["pairing"] == "0"


# SHA-256 of plancherel outputs, recorded from the pairing computed over RatFuncQ
PLANCHEREL_DIGESTS = {
    ("plancherel", "--alpha", "1,1", "--q", "3"):
        "2d3da3f986534b9c490f63c2ea499e1031be429e837dccfe8c0ca2fd38156279",
    ("plancherel", "--alpha", "4,2", "--q", "5"):
        "ed3e834e394472f92548cab2e5bbc20f2b5f87bf04c848d5a36ac31346c67f96",
    ("plancherel", "--alpha", "2,0", "--beta", "1,1", "--q", "3"):
        "54a3279ef59f8f48b4607ac331deac1806f0b1d93fede64a4990a7eb003f710d",
    ("plancherel", "--alpha", "6,2", "--beta", "6,2"):
        "f25266f43e4c7bbf6fc3a63f76b4d3981a59ea44dcbd0b4f3b5ba7293603b44f",
    ("plancherel", "--alpha", "5,5", "--q", "7"):
        "10aa6cd6f86b4f08f99fd4b4ba271d0c7fa1e7c7b877a19c687dde185e7719d9",
    ("plancherel", "--alpha", "3,3", "--symbolic-u"):
        "2aa77196f5f999c69e4e0fcadabba029993e0aa16e7d39f4c16eb29174d26e3a",
    ("--format", "text", "plancherel", "--alpha", "8,0", "--q", "2", "--symbolic-u"):
        "230d4bfb3c013f736d948cac4e095648c5ebb8a25f3e196021d1020516ee38a5",
}


@pytest.mark.parametrize("argv", sorted(PLANCHEREL_DIGESTS))
def test_plancherel_digests(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PLANCHEREL_DIGESTS[argv]


def test_verify_symbolic_green_and_deterministic(capsys):
    code1, out1 = run_cli(capsys, "verify", "--suite", "symbolic")
    code2, out2 = run_cli(capsys, "verify", "--suite", "symbolic")
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["failures"] == 0
    assert all(c["status"] == "pass" for c in data["checks"])
    assert all("seconds" not in c for c in data["checks"])
    # every record carries its check identifier and exact value strings
    assert all(c["check_id"] and "expected" in c and "actual" in c
               for c in data["checks"])


def test_verify_text_format(capsys):
    code, out = run_cli(capsys, "--format", "text", "verify", "--suite", "symbolic")
    assert code == 0
    assert "[PASS]" in out and "checks passed" in out


def test_density_eps2_flag(capsys):
    code, a = run_json(capsys, "density", "--p", "5", "--ell", "1", "--alpha", "0")
    code2, b = run_json(capsys, "density", "--p", "5", "--ell", "1", "--alpha", "0",
                        "--eps2", "3")
    assert code == 0 and code2 == 0
    assert a["count"] == b["count"]


def test_usage_error():
    with pytest.raises(SystemExit):
        main(["spherical"])   # missing --alpha


def run_error(capsys, *argv):
    """Run a failing command: exit code 2 and one line on stderr, nothing on stdout."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("quatherm: error: ")
    assert captured.err.count("\n") == 1
    return captured.err


def test_invalid_label_error(capsys):
    err = run_error(capsys, "density", "--alpha", "2,1")
    assert "(2, 1) is not a valid orbit label" in err


def test_odd_label_error(capsys):
    err = run_error(capsys, "spherical", "--alpha", "1")
    assert "(1,) is not a valid orbit label" in err


@pytest.mark.parametrize("q_spec", ["0", "1", "3,1"])
def test_ideal_rejects_q_below_two(capsys, q_spec):
    # q = 0 is a pole of the prefactor; at q = 1 the odd-label images vanish
    err = run_error(capsys, "ideal", "--n", "3", "--q-spec", q_spec, "--alpha", "2,0,0;1,1,0")
    assert "q specializations must be integers >= 2" in err


@pytest.mark.parametrize("q", ["0", "1", "-1"])
def test_plancherel_rejects_q_below_two(capsys, q):
    # q is the size of the residue field; --q 0 used to be dropped silently
    err = run_error(capsys, "plancherel", "--alpha", "2,0", "--q", q)
    assert "--q is the residue field size, an integer >= 2" in err


@pytest.mark.parametrize("method", ["closed", "enumerate"])
@pytest.mark.parametrize("p", ["0", "1", "-3", "4"])
def test_density_rejects_p_not_an_odd_prime(capsys, method, p):
    # the closed formula used to die on a pole at p = 0 and to evaluate at the rest
    err = run_error(capsys, "density", "--method", method, "--alpha", "0,0", f"--p={p}")
    assert f"p must be an odd prime, got {p}" in err


def test_spherical_unknown_what_error(capsys):
    err = run_error(capsys, "spherical", "--alpha", "0,0", "--what", "foo")
    assert err == "quatherm: error: unknown --what 'foo'\n"


def test_empty_level_list_names_the_option(capsys):
    err = run_error(capsys, "density", "--ell", ",", "--alpha", "0")
    assert err == "quatherm: error: --ell takes comma-separated integers, got ','\n"


def test_empty_label_names_the_option(capsys):
    err = run_error(capsys, "spherical", "--alpha", "")
    assert err == "quatherm: error: --alpha takes comma-separated integers, got ''\n"


def test_spherical_n_zero_is_an_arity_error(capsys):
    # --n 0 used to be read as "no --n", that is n = len(alpha)
    err = run_error(capsys, "spherical", "--n", "0", "--alpha", "0,0")
    assert "arity mismatch" in err


def test_convolve_nondiagonal_error(capsys):
    # the alternating target H is one convolution block, so --method convolve
    # runs and prints what enumerate prints
    outputs = [run_cli(capsys, "density", "--method", method, "--alpha", "1,1",
                       "--beta", "0", "--ell", "1") for method in ("convolve", "enumerate")]
    assert outputs[0][0] == 0 and outputs[0] == outputs[1]


def test_budget_flag_reaches_kernel(capsys):
    err = run_error(capsys, "density", "--ell", "1", "--alpha", "2,0", "--budget", "1000")
    assert "(budget 1.000e+03 ops" in err


def test_alternating_deep_level(capsys):
    # level 6 at p=3 (3^48 columns); 80/27 is the closed primitive density
    # q(1 - q^-4) of the zero form at q=3
    code, data = run_json(capsys, "density", "--ell", "6", "--beta", "2", "--alpha", "1,1",
                          "--primitive")
    assert code == 0
    assert data["count"] == 324204412241518101360 and data["normalized"] == "80/27"


def test_over_budget_error(capsys):
    # level 564 is the first the size-2 count refuses at p=3: its count could
    # pass Python's 4300-digit int-to-str limit
    err = run_error(capsys, "density", "--ell", "564", "--alpha", "2,0")
    assert "count_matrix_pair needs" in err and "budget" in err
    assert err.rstrip().endswith("the highest feasible level at p=3 is 563")


def test_density_size2_default_levels(capsys):
    # the default levels 1,2: level 2 is the first where (2,0) is stable, 16/3
    code, data = run_json(capsys, "density", "--alpha", "2,0")
    assert code == 0
    assert [(e["level"], e["normalized"]) for e in data["levels"]] == [(1, "4"), (2, "16/3")]
    assert data["normalized"] == "16/3" and data["stable"] is False


def test_verify_has_no_prime_option():
    with pytest.raises(SystemExit):
        main(["verify", "--p", "3"])


def test_over_budget_error_past_float_range(capsys):
    # 3^1600 matrices: the estimate no longer fits a float
    err = run_error(capsys, "density", "--ell", "1", "--alpha", ",".join(["0"] * 20))
    assert "count_generic needs ~10^767.9 ops" in err


def test_convolve_deep_level(capsys):
    # level 6 at p=3, from four 1-D square histograms; 4/3 is the closed
    # density w_1(-1/q) at q=3
    code, data = run_json(capsys, "density", "--method", "convolve", "--p", "3",
                          "--ell", "6", "--alpha", "0", "--beta", "0")
    assert code == 0
    assert data["count"] == 516560652 and data["normalized"] == "4/3"


def test_convolve_memory_limit_error(capsys):
    # level 2254 at p=3 is the first the 1x1 count refuses: its count may pass
    # 4300 digits, Python's int-to-str limit; refused before computing
    tracemalloc.start()
    try:
        err = run_error(capsys, "density", "--method", "convolve", "--p", "3",
                        "--ell", "2254", "--alpha", "0", "--beta", "0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "count_diagonal_convolved" in err and "highest feasible level at p=3 is 2253" in err
    assert peak < 16 * 2**20


def test_convolve_deep_levels_any_p(capsys):
    # the valuation algebra has no level ceiling: 4/3 = w_1(-1/q) at q = 3, and
    # 10200/10201 = 1 - q^-2, the density of <1> in the identity form of size 2,
    # at q = 101
    for argv, value in ((("--method", "convolve", "--p", "3", "--ell", "8,9", "--alpha", "0"),
                         "4/3"),
                        (("--p", "101", "--ell", "5,6", "--alpha", "0,0"), "10200/10201")):
        code, data = run_json(capsys, "density", *argv, "--beta", "0")
        assert code == 0
        assert data["stable"] is True and data["normalized"] == value


def test_unprintable_count_refused_before_computing(capsys):
    # <1> in (0,0,0) at level 1000 has a count of about 5,250 digits
    err = run_error(capsys, "density", "--p", "3", "--alpha", "0,0,0", "--beta", "0",
                    "--ell", "1000")
    assert "for a count of up to 5726 digits" in err and "4300 digits" in err
    assert err.rstrip().endswith("the highest feasible level at p=3 is 751")


def test_huge_level_refused_cheaply(capsys):
    # the level-below test and RingParams.modulus stay off p^1000000-sized
    # work: one p**ell, then the guard refuses
    start = time.process_time()
    err = run_error(capsys, "density", "--p", "3", "--alpha", "0", "--ell", "1000000")
    assert time.process_time() - start < 0.3
    assert err.rstrip().endswith("the highest feasible level at p=3 is 2253")


def test_alternating_deep_levels_any_p(capsys):
    # the p^e H size-2 count has no level ceiling of its own: (3,3) at p=11 and
    # (1,1) at p=101 are stable from level 3 and 2, at the closed values
    for argv, alpha in ((("--p", "11", "--ell", "3,4", "--alpha", "3,3"), (3, 3)),
                        (("--p", "101", "--ell", "2,3", "--alpha", "1,1"), (1, 1))):
        start = time.process_time()
        code, data = run_json(capsys, "density", *argv)
        assert time.process_time() - start < 0.1
        assert code == 0 and data["stable"] is True
        assert data["normalized"] == format_fraction(
            density_self_closed(alpha).eval_at(data["p"]))


def test_alternating_highest_printable_level(capsys):
    # a size-2 count is below p^(16*ell): level 563 is the last at p=3 whose
    # count fits Python's 4300-digit int-to-str limit, and it runs
    code, data = run_json(capsys, "density", "--p", "3", "--ell", "563", "--alpha", "1,1")
    assert code == 0 and data["normalized"] == "80"
    err = run_error(capsys, "density", "--p", "3", "--ell", "564", "--alpha", "1,1")
    assert "count_matrix_pair needs" in err and "for a count of up to 4306 digits" in err
    assert err.rstrip().endswith("the highest feasible level at p=3 is 563")


def test_diagonal_deep_levels_any_p(capsys):
    # the size-2 count in a diagonal target has no level ceiling of its own:
    # (2,0) at p=5 and (4,4) at p=7 are stable from level 2 and 3
    for argv, normalized in ((("--p", "5", "--ell", "2,3", "--alpha", "2,0"), "36/5"),
                             (("--p", "7", "--ell", "3,4", "--alpha", "4,4"), "15495785088")):
        start = time.process_time()
        code, data = run_json(capsys, "density", *argv)
        assert time.process_time() - start < 1
        assert code == 0 and data["stable"] is True and data["normalized"] == normalized
        assert normalized == format_fraction(
            density_self_closed(tuple(data["alpha"])).eval_at(data["p"]))


def test_diagonal_highest_printable_level(capsys):
    # level 563, the last the guard admits at p=3, runs: the chain is a loop
    code, data = run_json(capsys, "density", "--p", "3", "--ell", "563", "--alpha", "2,0")
    assert code == 0 and data["normalized"] == "16/3"


def test_closed_primitive_refused(capsys):
    # the closed formula is the plain self-density; --primitive used to be ignored
    err = run_error(capsys, "density", "--method", "closed", "--primitive", "--alpha", "0,0")
    assert err == ("quatherm: error: no closed primitive density: drop --primitive, "
                   "or count it with --method enumerate\n")


def test_ideal_and_symbolic_u_reuse_verify_checks(capsys):
    code, data = run_json(capsys, "ideal", "--n", "3", "--q-spec", "2,3",
                          "--alpha", "2,0,0;0,0,0")
    assert code == 0
    assert [(v["alpha"], v["q"]) for v in data["verdicts"]] == [
        ([2, 0, 0], 2), ([0, 0, 0], 2), ([2, 0, 0], 3), ([0, 0, 0], 3)]
    assert all(v["member"] for v in data["verdicts"])
    code, data = run_json(capsys, "plancherel", "--alpha", "2,0", "--symbolic-u")
    assert code == 0
    names = [c["check"] for c in data["symbolic_u_checks"]]
    assert names == [f"<H{l},H{m}>" for l in range(1, 5) for m in range(l, 5)] + [
        "weight-mass"]
    assert all(c["ok"] is True for c in data["symbolic_u_checks"])
