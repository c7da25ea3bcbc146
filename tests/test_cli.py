import argparse
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from bicheb import cli, elliptic, multipartite
from bicheb.bipartite import QuarticCoeffs, conditions
from bicheb.cli import main
from bicheb.elliptic import divisors_from_two

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decide_yes_exit_zero(capsys):
    code, out, _ = run(capsys, "decide", "--n", "3", "--p=-2,-3,2,2")
    assert code == 0
    assert "decided: yes" in out and "x^3 - 3*x^2 + 3" in out


def test_decide_no_exit_three(capsys):
    code, out, _ = run(capsys, "decide", "--n", "2", "--p", "0,-3,1,1")
    assert code == 3
    assert "aux=1" in out


def test_decide_json_schema(capsys):
    code, out, _ = run(capsys, "decide", "--n", "2", "--p", "0,-5,0,4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "decided-yes"
    assert payload["s"] == 2 and payload["m2"] == "9/4"


def test_decide_malformed_exit_one(capsys):
    code, _, err = run(capsys, "decide", "--n", "3", "--p", "1,2,3")
    assert code == 1
    assert "c1,c2,c3,c4" in err


def test_decide_decimal_rationalization(capsys):
    code, out, _ = run(capsys, "decide", "--n", "2", "--p", "0,-2,0,0.01", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["m2"] == "99/100"


def test_byte_identical_reruns(capsys):
    args = ("integrate", "--n", "3", "--p=-2,-3,2,2", "--format", "text")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_integrate_latex(capsys):
    code, out, _ = run(
        capsys, "integrate", "--n", "2", "--p", "0,-2,0,2", "--format", "latex"
    )
    assert code == 0
    assert r"\operatorname{arcsinh}" in out


def test_verify_subcommand(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--n", "3", "--p=-2,-3,2,2",
        "--interval=-0.95,-0.75", "--tol", "1e-8",
    )
    assert code == 0
    assert "max error" in out


def test_verify_next_to_a_root(capsys):
    # 1 is a root of p, 1e-12 left of the interval: an extrapolating rule
    # (QUADPACK's QAGS) mistakes it for an endpoint singularity and
    # reports an error of 8.2e-7 on a correct closed form
    code, out, _ = run(
        capsys,
        "verify", "--n", "3", "--p=-2,-3,2,2", "--interval", "1.000000000001,1.9",
    )
    assert code == 0
    assert float(out.split("max error ")[1].split()[0]) <= 1e-9


def test_verify_bad_interval(capsys):
    code, _, err = run(
        capsys,
        "verify", "--n", "3", "--p=-2,-3,2,2",
        "--interval", "0.0,0.5", "--tol", "1e-8",
    )
    assert code == 1
    assert "interval not valid" in err


def test_verify_interval_takes_rationals(capsys):
    argv = ("verify", "--n", "3", "--p=-2,-3,2,2", "--tol", "1e-8")
    code, out, _ = run(capsys, *argv, "--interval=11/10,19/10")
    assert code == 0
    assert (code, out) == run(capsys, *argv, "--interval=1.1,1.9")[:2]


def test_verify_on_a_refusal_prints_the_refusal(capsys):
    code, out, err = run(capsys, "verify", "--n", "2", "--p=0,-3,1,1", "--interval=1.1,1.9")
    assert (code, err) == (3, "")
    assert out == elliptic.render_refusal(elliptic.decide(2, QuarticCoeffs.of(0, -3, 1, 1))) + "\n"
    assert out.startswith("no elementary form of degree n=2")


def test_verify_emit_samples(tmp_path, capsys):
    target = tmp_path / "samples.csv"
    code, out, _ = run(
        capsys,
        "verify", "--n", "3", "--p=-2,-3,2,2", "--interval=-0.95,-0.75",
        "--emit-samples", str(target),
    )
    assert code == 0 and "max error" in out
    header, *rows = target.read_text().splitlines()
    assert header == "x,integrand,antiderivative"
    # the samples span the checked interval
    xs = [float(r.split(",")[0]) for r in rows]
    assert len(rows) == 201 and (xs[0], xs[-1]) == (-0.95, -0.75)
    for row in rows:
        x, f, _ = map(float, row.split(","))
        assert f == pytest.approx(x / math.sqrt(-(x**4 - 2 * x**3 - 3 * x**2 + 2 * x + 2)))  # p < 0


@pytest.mark.parametrize(
    "command, span",
    [("integrate", "the middle third of the widest piece within [-8, 8]"), ("verify", "--interval")],
)
def test_emit_samples_help_names_the_span(capsys, command, span):
    code, out, _ = run(capsys, command, "--help")
    want = f"--emit-samples CSV write x, integrand and antiderivative at 201 points across {span} to CSV"
    assert code == 0 and want in " ".join(out.split())


def test_fk_text_and_eval(capsys):
    code, out, _ = run(capsys, "fk", "--s", "3")
    assert code == 0
    assert "F_1 = (9/16)*c1^2 + (3/4)*c2" in out
    code, out, _ = run(capsys, "fk", "--s", "3", "--eval=-2,-3,2,2")
    assert code == 0
    assert out.splitlines() == ["F_0 = 3", "F_1 = 0", "F_2 = -3", "F_3 = 1"]


def test_fk_eval_rationalize_takes_the_exact_float(capsys):
    code, out, _ = run(capsys, "fk", "--s", "3", "--eval", "0.1,-3,2,2", "--rationalize")
    assert code == 0
    cond = conditions(3, QuarticCoeffs.of(F(0.1), -3, 2, 2))
    values = [cond.a[0], cond.f1, *cond.a[2:]]
    assert out.splitlines() == [f"F_{k} = {v}" for k, v in enumerate(values)]
    assert out.startswith("F_0 = 32425917317067571/36028797018963968\n")
    assert run(capsys, "fk", "--s", "3", "--eval", "0.1,-3,2,2")[1].startswith("F_0 = 9/10\n")


def test_fk_json(capsys):
    code, out, _ = run(capsys, "fk", "--s", "2", "--json")
    payload = json.loads(out)
    entry = {item["k"]: item for item in payload}
    assert entry[0]["terms"] == [{"parts": [2], "coeff": "1/2"}]
    assert entry[1]["terms"] == [{"parts": [1], "coeff": "1"}]


def test_fk_s_is_bounded_before_any_table_is_built(monkeypatch, capsys):
    def unbuilt(s):
        raise AssertionError(f"fk_table({s}) was built")

    monkeypatch.setattr(cli, "fk_table", unbuilt)
    for argv in (("--s", str(cli.FK_MAX_S + 1)), ("--s", "0"),
                 ("--s", str(cli.FK_MAX_S + 1), "--eval=1,2,3,4", "--json")):
        code, out, err = run(capsys, "fk", *argv)
        assert code == 1 and out == ""
        assert err == f"error: fk --s must be between 1 and {cli.FK_MAX_S}, got {argv[1]}\n"


def test_complete_s_is_bounded_before_any_table_is_built(monkeypatch, capsys):
    class Reached(Exception):
        pass

    def unbuilt(s, target, fixed):
        raise Reached(s)

    monkeypatch.setattr(elliptic, "f1_polynomial", unbuilt)
    # the c1 class takes the largest even divisor, c2 the largest s = 3 mod 4
    for argv, s, degree in (
        (("--n", "80", "--fix", "c2=-5,c3=0,c4=4", "--solve", "c1"), 80, "79 in c1"),
        (("--n", "63", "--fix", "c1=0,c3=0,c4=4", "--solve", "c2", "--json"), 63, "31 in c2"),
        (("--n", "124", "--fix", "c2=-5,c3=0,c4=4", "--solve", "c1", "--force-s", "62"), 62,
         "61 in c1"),
    ):
        code, out, err = run(capsys, "complete", *argv)
        assert code == 1 and out == ""
        assert err == (f"error: complete solves F_1 = 0 at s={s}, of degree up to {degree}; "
                       f"the divisor s must be at most {cli.FK_MAX_S}\n")
    with pytest.raises(Reached):
        elliptic.complete_coefficient(cli.FK_MAX_S, {2: F(-5), 3: F(0), 4: F(4)}, 1)


def test_n_is_bounded_before_the_scan_and_before_the_composition(monkeypatch, capsys):
    def unreached(*args):
        raise AssertionError("work started")

    scan, compose = cli.SCAN_MAX_N, cli.COMPOSE_MAX_N
    p = "--p=0,-3,0,-5"  # meets the conditions at s = 2
    monkeypatch.setattr(elliptic, "divisors_from_two", unreached)
    for argv in (("decide", "--n", str(scan + 1), p),
                 ("integrate", "--n", str(scan + 1), p),
                 ("verify", "--n", str(scan + 1), p, "--interval", "1,2"),
                 ("complete", "--n", str(scan + 2), "--fix", "c2=-5,c3=0,c4=4", "--solve", "c1")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"error: n must be at most {scan}, the bound of the divisor scan, got {argv[2]}\n"
    monkeypatch.undo()
    monkeypatch.setattr(elliptic, "build_solution", unreached)
    monkeypatch.setattr(elliptic, "compose_outer", unreached)
    n = str(compose + 2)
    for argv in (("decide", "--n", n, p), ("integrate", "--n", n, p, "--json")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == (f"error: s=2 meets the conditions, but n must be at most {compose}, "
                       f"the bound of the closed form, got {n}\n")
    # a refusal stays cheap below the scan bound
    code, out, err = run(capsys, "decide", "--n", "2520", "--p=-3/2,2,1/2,-3", "--json")
    assert (code, err) == (3, "") and json.loads(out)["status"] == "decided-no"


def test_construct_and_perturb_s_are_bounded_before_any_work(monkeypatch, capsys):
    def unreached(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "solve_c1", unreached)
    monkeypatch.setattr(cli, "continuation", unreached)
    s = str(cli.FK_MAX_S + 1)
    for argv in (("construct", "--s", s, "--c2=-5", "--c3", "0", "--c4", "4"),
                 ("perturb", "--s", s, "--c2=-2", "--target-c3", "0", "--target-c4", "0",
                  "--branch", "1", "--json")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: {argv[0]} --s must be at most {cli.FK_MAX_S}, got {s}\n"


def test_complete_with_f1_identically_zero_is_an_error(capsys):
    # at s = 4 F_1 has odd weight 3, so with c1 = c3 = c4 = 0 no monomial survives
    code, out, err = run(capsys, "complete", "--n", "4", "--force-s", "4",
                         "--fix", "c1=0,c3=0,c4=0", "--solve", "c2")
    assert (code, out, err) == (
        1, "", "error: F_1 vanishes identically in c2 at s = 4 for c1 = 0, c3 = 0, c4 = 0\n"
    )


def test_large_n_refusal_prints_exact_values(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "decide", "--n", "840", "--p=-3/2,2,1/2,-3", "--json")
    assert (code, err) == (3, "")
    assert sys.get_int_max_str_digits() == limit
    c = QuarticCoeffs.of(F(-3, 2), 2, F(1, 2), -3)
    want = [(s, cond.f1, cond.aux, cond.d)
            for s in divisors_from_two(840) for cond in [conditions(s, c)]]
    # d's numerator has more digits than the limit, and is printed in full
    assert max(abs(d.numerator).bit_length() for *_, d in want) > limit * math.log2(10)
    sys.set_int_max_str_digits(0)
    try:
        got = [(dv["s"], F(dv["F1"]), F(dv["aux"]), F(dv["d"]))
               for dv in json.loads(out)["divisors"]]
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == want
    code, out, err = run(capsys, "decide", "--n", "840", "--p=-3/2,2,1/2,-3")
    assert code == 3 and err == "" and out.count("\n  s=") == len(want)
    assert sys.get_int_max_str_digits() == limit
    # inputs still parse under the default limit
    code, out, err = run(capsys, "decide", "--n", "2", f"--p={'1' * (limit + 1)},0,0,1")
    assert (code, out) == (1, "")
    assert err == (f"error: '{'1' * 20}...' has a run of {limit + 1} digits; "
                   f"numbers are limited to {limit} digits\n")
    assert sys.get_int_max_str_digits() == limit


B = "1/" + "7" * 80


@pytest.mark.parametrize("argv, exit_code", [
    (("fk", "--s", "60", f"--eval={B},-3,{B},2"), 0),
    (("multi", "--s", "100", "--p-coeffs", f"1,{B},-5,0,4", "--q-coeffs", "1,0"), 3),
], ids=["fk", "multi"])
def test_values_print_past_the_digit_limit(capsys, argv, exit_code):
    limit = sys.get_int_max_str_digits()
    for fmt in ((), ("--json",)):
        code, out, err = run(capsys, *argv, *fmt)
        assert (code, err) == (exit_code, "")
        assert max(map(len, re.findall(r"\d+", out))) > limit
        assert sys.get_int_max_str_digits() == limit
    json.loads(out)


def test_digit_limit_is_restored_after_an_error(monkeypatch, capsys):
    limit = sys.get_int_max_str_digits()
    seen = []

    def failing(n, c):
        seen.append(sys.get_int_max_str_digits())
        raise ValueError("no decision")

    monkeypatch.setattr(cli, "decide", failing)
    assert run(capsys, "decide", "--n", "2", "--p", "0,-3,1,1") == (1, "", "error: no decision\n")
    assert seen == [0] and sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("n, p", [("3", "--p=-2,-3,2,2"), ("6", "--p=0,-3,1,1")])
def test_integrate_json_is_decide_json(capsys, n, p):
    decided = run(capsys, "decide", "--n", n, p, "--json")
    assert run(capsys, "integrate", "--n", n, p, "--json") == decided
    assert decided[0] in (0, 3) and json.loads(decided[1])["n"] == int(n)


@pytest.mark.parametrize("argv", [
    ("verify", "--n", "3", "--p=-2,-3,2,2", "--interval=-0.95,-0.75", "--json"),
    ("integrate", "--n", "3", "--p=-2,-3,2,2", "--format", "json"),
])
def test_dropped_json_flags_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and "usage:" in err


def test_complete_keeps_a_root_whose_closed_form_is_above_the_bound(capsys):
    code, out, err = run(capsys, "complete", "--n", "242", "--fix", "c2=-3,c3=0,c4=-5",
                         "--solve", "c1", "--force-s", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == (f"  c1 = 0: s=2 meets the conditions, but n must be at most "
                                   f"{cli.COMPOSE_MAX_N}, the bound of the closed form, got 242")


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    run(capsys, "decide", "--n", "2", "--p", "0,-3,1,1")  # builds it, if nothing did yet
    built.clear()
    for argv in (("decide", "--n", "2", "--p", "0,-3,1,1"), ("fk", "--s", "2"), ("--help",)):
        run(capsys, *argv)
    assert built == []


# a usage error first, then valid argv, more usage errors and --help
SEQUENCE = [
    ("decide", "--n", "2"),
    ("decide", "--n", "2", "--p", "0,-3,1,1"),
    ("nosuch",),
    ("decide", "--n", "x", "--p", "0,-3,1,1"),
    ("decide", "--n", "3", "--p=-2,-3,2,2", "--json"),
    ("fk", "--s", "3", "--bogus"),
    ("fk", "--s", "3"),
    ("--help",),
    ("--help",),
    ("complete", "--help"),
    ("complete", "--help"),
    ("decide", "--n", "2", "--p", "0,-3,1,1", "--json"),
]


def test_one_parser_answers_like_fresh_ones(capsys):
    shared = [run(capsys, *argv) for argv in SEQUENCE]
    fresh = []
    for argv in SEQUENCE:
        cli.build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [1, 3, 1, 1, 0, 1, 0, 0, 0, 0, 0, 3]
    assert shared[7] == shared[8] and shared[7][1].startswith("usage: bicheb")
    assert shared[9] == shared[10] and f"at most {cli.FK_MAX_S}" in shared[9][1]


def test_construct(capsys):
    code, out, _ = run(capsys, "construct", "--s", "3", "--c2=-3", "--c3", "2", "--c4", "2")
    assert code == 0
    assert "u = x^3 - 3*x^2 + 3" in out and "skipped" in out


def test_complete(capsys):
    code, out, _ = run(
        capsys, "complete", "--n", "3", "--fix", "c1=-2,c3=2,c4=2", "--solve", "c2"
    )
    assert code == 0
    assert "c2 = -3: decided-yes" in out


def test_multi_roots_input(capsys):
    code, out, _ = run(
        capsys, "multi", "--s", "2", "--p-roots", "1,-1,2,-2", "--q-roots", "0", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["solvable"] is True
    assert payload["constants"] == {"c": "0", "m2": "9/4"}


def test_multi_coeff_input(capsys):
    code, out, _ = run(
        capsys, "multi", "--s", "2", "--p-coeffs", "1,0,-3,1,1", "--q-coeffs", "1,0"
    )
    assert code == 3
    assert "solvable: False" in out


@pytest.mark.parametrize(
    "argv, runs",
    [
        (("--s", "4", "--p-roots", "1,-1,2,-3", "--q-roots", "1/2"), 1),
        (("--s", "4", "--p-roots", "1,-1,2,-3", "--q-roots", "0"), 2),
        (("--s", "2", "--p-roots", "1,-1,2,-2", "--q-roots", "0"), 1),
    ],
    ids=["1/2-1", "0-2", "0-1"],
)
def test_multi_runs_the_recurrence_again_only_when_the_pin_changed_it(
    monkeypatch, capsys, argv, runs
):
    # q(0) = 0 pins a_1 = 0; the pinned run differs from the unpinned one
    # only when the j = 1 step wanted a nonzero a_1
    calls = []
    general = multipartite.coefficients_general

    def counted(*args, **kwargs):
        calls.append(args)
        return general(*args, **kwargs)

    monkeypatch.setattr(multipartite, "coefficients_general", counted)
    code, out, _ = run(capsys, "multi", *argv)
    assert code in (0, 3) and "condition residuals" in out
    assert len(calls) == runs


def test_multi_s_is_bounded_before_any_work(monkeypatch, capsys):
    def unrun(*args):
        raise AssertionError("coefficients_general was called")

    monkeypatch.setattr(multipartite, "coefficients_general", unrun)
    for s in (cli.MULTI_MAX_S + 1, 100000):
        code, out, err = run(
            capsys, "multi", "--s", str(s), "--p-coeffs", "1,0,0,0,-1", "--q-coeffs", "1,0"
        )
        assert code == 1 and out == ""
        assert err == f"error: multi --s must be at most {cli.MULTI_MAX_S}, got {s}\n"
    code, out, _ = run(capsys, "multi", "--help")
    assert code == 0 and f"at most {cli.MULTI_MAX_S}" in out


def test_python_m_bicheb_runs_main(capsys):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "bicheb", "fk", "--s", "3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    code, out, _ = run(capsys, "fk", "--s", "3")
    assert proc.returncode == code == 0
    assert proc.stdout == out and out.startswith("F_0 = ")


def test_perturb(capsys):
    code, out, _ = run(
        capsys,
        "perturb", "--s", "3", "--c2=-3", "--target-c3", "2",
        "--target-c4", "2", "--branch", "1", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["reached"] is True
    assert payload["c1_exact"] == "-2"
    assert payload["solution"]["residual_zero"] is True


@pytest.mark.parametrize("c2", ["-2", "-3"])
def test_perturb_exits_three_when_the_path_stops(capsys, c2):
    code, out, err = run(
        capsys,
        "perturb", "--s", "4", f"--c2={c2}", "--target-c3=-8", "--target-c4=-8",
        "--branch", "1", "--json",
    )
    assert (code, err) == (3, "")
    payload = json.loads(out)
    assert (payload["reached"], payload["c1_exact"], payload["f1_exact_zero"]) == (False, None, False)


def test_emit_samples(tmp_path, capsys):
    target = tmp_path / "samples.csv"
    code, _, _ = run(
        capsys,
        "integrate", "--n", "2", "--p", "0,-2,0,2", "--emit-samples", str(target),
    )
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "x,integrand,antiderivative"
    assert len(lines) > 100


BAD_INPUTS = [
    (("complete", "--n", "4", "--fix", "c=1,c3=0,c4=0", "--solve", "c1"), "c1..c4"),
    (("complete", "--n", "4", "--fix", "c23=1,c3=0,c4=0", "--solve", "c1"), "c1..c4"),
    (("complete", "--n", "4", "--fix", "c2=-2,c3=0,c4=0", "--solve", "c"), "c1..c4"),
    (("complete", "--n", "4", "--fix", "c2=-2,c3=0,c4=0", "--solve", "c12"), "c1..c4"),
    (("complete", "--n", "4", "--fix", "c2=-2,c3=0,c4=0", "--solve", "c1", "--force-s", "0"),
     "forced s must be a divisor"),
    (("complete", "--n", "4", "--fix", "c2=-2,c3=0,c4=0,c2=5", "--solve", "c1"),
     "--fix names c2 twice"),
    (("complete", "--n", "0", "--fix", "c2=-2,c3=0,c4=0", "--solve", "c1"),
     "n must be positive"),
    (("complete", "--n", "-4", "--fix", "c2=-2,c3=0,c4=0", "--solve", "c1"),
     "n must be positive"),
    (("multi", "--s", "2", "--p-roots", "1,-1,2,-2", "--q-roots", "0",
      "--p-coeffs", "1,0,-6,0,9,0,-1"), "--p-roots/--q-roots or --p-coeffs/--q-coeffs"),
    # a zero leading coefficient used to be dropped, reading p as degree 4
    (("multi", "--s", "2", "--p-coeffs", "0,1,0,-5,0,4", "--q-coeffs", "1,0"),
     "--p-coeffs must start with the leading coefficient 1 of a monic polynomial, got 0"),
    (("multi", "--s", "2", "--p-coeffs", "1,0,-5,0,4", "--q-coeffs", "0,1,0"),
     "--q-coeffs must start with the leading coefficient 1 of a monic polynomial, got 0"),
    (("multi", "--s", "2", "--p-coeffs", "2,0,-5,0,4", "--q-coeffs", "1,0"),
     "--p-coeffs must start with the leading coefficient 1 of a monic polynomial, got 2"),
    (("verify", "--n", "3", "--p=-2,-3,2,2", "--interval=1"), "--interval expects a,b"),
    (("construct", "--s", "1", "--c2=-3", "--c3", "2", "--c4", "2"), "at least 2"),
    (("integrate", "--n", "3", "--p=-2,-3,2,2", "--emit-samples", "/nonexistent/x.csv"),
     "No such file or directory"),
    # WORKED under x -> 16x: no piece meets [-8, 8], so there is no default span
    (("integrate", "--n", "3", "--p=-32,-768,8192,131072", "--emit-samples", "s.csv"),
     "--emit-samples: no piece of the form is wider than 1e-6 inside [-8, 8]"),
    (("decide", "--n", "3", "--p=1e400,0,0,0", "--rationalize"), "not a finite number"),
    (("decide", "--n", "3", "--p=1/0,0,0,0"), "'1/0' has a zero denominator"),
    (("construct", "--s", "2", "--c2=-3/0", "--c3", "0", "--c4", "1"),
     "'-3/0' has a zero denominator"),
    (("verify", "--n", "2", "--p=0,-2,0,1", "--interval=0.99,0.999999"),
     "exceeds tolerance 1e-08"),
    (("verify", "--n", "3", "--p=-2,-3,2,2", "--interval=-0.95,-0.75", "--tol", "0"),
     "--tol must be a positive finite number"),
    (("verify", "--n", "3", "--p=-2,-3,2,2", "--interval=-0.95,-0.75", "--tol=-1e-8"),
     "--tol must be a positive finite number"),
    (("verify", "--n", "3", "--p=-2,-3,2,2", "--interval=-0.95,-0.75", "--tol", "nan"),
     "--tol must be a positive finite number"),
    (("verify", "--n", "3", "--p=-2,-3,2,2", "--interval=nan,1.1"),
     "--interval endpoints must be finite rationals"),
    (("verify", "--n", "3", "--p=-2,-3,2,2", "--interval=1.1,inf"),
     "--interval endpoints must be finite rationals"),
    (("verify", "--n", "3", "--p=-2,-3,2,2", "--interval=1.1,1e400"),
     "--interval endpoints must be finite rationals"),
    (("decide", "--n", "3", "--p=a,0,0,0"),
     "'a' is not a rational number (a/b, integer or decimal)"),
    # Fraction would build 10^4301 first; the bound is checked on short texts too
    (("decide", "--n", "3", "--p=1e4301,0,0,0"),
     "'1e4301' has a decimal exponent past 4300; exponents are limited to 4300"),
    (("decide", "--n", "3", "--p=1e-4301,0,0,0"),
     "'1e-4301' has a decimal exponent past 4300; exponents are limited to 4300"),
    (("verify", "--n", "2", "--p=0,-2,0,2", "--interval=1e-4301,1"),
     "'1e-4301' has a decimal exponent past 4300; exponents are limited to 4300"),
    (("construct", "--s", "2", "--c2=abc", "--c3", "0", "--c4", "1"),
     "'abc' is not a rational number (a/b, integer or decimal)"),
    (("complete", "--n", "4", "--fix", "c2=x,c3=0,c4=0", "--solve", "c1"),
     "'x' is not a rational number (a/b, integer or decimal)"),
]


@pytest.mark.parametrize("argv, message", BAD_INPUTS, ids=[" ".join(a) for a, _ in BAD_INPUTS])
def test_bad_input_fails_fast(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
