"""Command line surface: exact output, exit codes, rejected flags.

The cases run in-process through cli.main; three run `python -m elemhyp`
as a child process, for the entry point, an exit-1 and an exit-2 case.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import pathlib
import subprocess
import sys

import pytest

from elemhyp import (
    GmkzParams, HeunFamilyParams, HypergeomParams, Monomial, NonFinite,
    NotConverged, cli, combo_eval, fnj_combo, gmkz_moment_abel, heun_ode_residual,
    hyp2f1_closed, hyp2f1_series, mkz, mkz_moment,
)

CMD = [sys.executable, "-m", "elemhyp"]


def readme_examples():
    """(command, stdout) for each README `elemhyp ...` line whose next line
    is a `# {...}` comment: the output the README shows for it."""
    lines = (pathlib.Path(__file__).parents[1] / "README.md").read_text().splitlines()
    return [(cmd, out[2:] + "\n") for cmd, out in zip(lines, lines[1:])
            if cmd.startswith("elemhyp ") and out.startswith("# {")]


def run(*args):
    """cli.main(args) in-process: its return code (argparse's exit code
    where it rejects the command line), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_process(*args):
    return subprocess.run(CMD + list(args), capture_output=True, text=True)


def test_pinned_closed_form_output():
    r = run("hyp2f1", "--m", "1", "--n", "2", "--p", "3", "--x", "0.5",
            "--method", "closed")
    assert r.returncode == 0
    assert r.stdout == '{"value": 1.5451774444795625}\n'


def test_pinned_moment_output():
    r = run("moment", "--operator", "gmkz", "--n", "2", "--rop", "3",
            "--alpha", "2", "--beta", "1", "--r", "1", "--x", "0.5")
    assert r.returncode == 0
    assert r.stdout == '{"value": 0.625}\n'


def test_pinned_heun_output():
    r = run("heun", "--m", "2", "--n", "-1", "--p", "4", "--x", "0.6")
    assert r.returncode == 0
    assert r.stdout == ('{"value": 0.7, "termination": 1, '
                        '"normalization": 1.0, "terms_used": 1, '
                        '"converged": true}\n')


def test_readme_has_examples_with_output():
    assert len(readme_examples()) >= 4


def test_runs_are_bit_reproducible():
    # a fresh process, through the module entry point, and a warm one agree
    args = ("verify", "--suite", "heun")
    child = run_process(*args)
    assert child.returncode == 0
    assert child.stdout == run(*args).stdout


@pytest.mark.parametrize("argv", [
    ("heun", "--m", "2", "--n", "-1", "--p", "4", "--x", "0.6", "--rel-tol", "1e-3"),
    ("heun", "--m", "2", "--n", "-1", "--p", "4", "--x", "0.6", "--max-terms", "20"),
    ("verify", "--suite", "heun", "--rel-tol", "1e-3"),
    ("hyp2f1", "--m", "6", "--n", "18.5", "--p", "24", "--x", "0.5", "--rel-tol", "1e-6"),
    ("hyp2f1", "--m", "6", "--n", "18.5", "--p", "24", "--x", "0.5", "--max-terms", "20"),
    ("moment", "--operator", "mkz", "--n", "3", "--r", "2", "--x", "0.5",
     "--route", "series", "--rel-tol", "1e-3"),
    ("fnj", "--n", "2", "--j", "2", "--x", "0.5", "--max-terms", "20"),
])
def test_commands_without_a_tolerance_reject_the_flags(argv):
    r = run(*argv)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "unrecognized arguments" in r.stderr


def test_hyp2f1_trivial_argument():
    r = run("hyp2f1", "--m", "1", "--n", "2", "--p", "2", "--x", "0")
    assert r.returncode == 0
    assert r.stdout == '{"value": 1.0}\n'


def test_hyp2f1_compare_route():
    r = run("hyp2f1", "--m", "2", "--n", "-2.5", "--p", "5", "--x", "0.4",
            "--compare")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert set(doc) == {"value", "series", "rel_err"}
    assert doc["rel_err"] < 1e-10


@pytest.mark.parametrize("argv", [
    # the sum passes float range: {"value": Infinity} was printed, exit 0
    ("--m", "8", "--n", "1000", "--p", "301", "--x", "0.8381881194660705",
     "--method", "series"),
    # the series stops at its term cap: it was printed beside the value,
    # its rel_err 1.4e-8 blaming the correct one, exit 0
    ("--m", "1", "--n", "0.5", "--p", "3", "--x", "0.999999", "--compare"),
], ids=["series-past-float-range", "compare-at-the-term-cap"])
def test_hyp2f1_series_not_converged_exits_1(argv):
    r = run("hyp2f1", *argv)
    assert (r.returncode, r.stdout, r.stderr) == (1, "", "error: series did not converge\n")


def test_hyp2f1_parameter_error_exits_2():
    r = run("hyp2f1", "--m", "3", "--n", "2", "--p", "2", "--x", "0.5")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "error:" in r.stderr


@pytest.mark.parametrize("argv", [
    ("hyp2f1", "--m", "1", "--n", "nan", "--p", "3", "--x", "0.5"),
    ("heun", "--m", "1", "--n", "nan", "--p", "3", "--x", "0.2"),
    ("moment", "--operator", "gmkz", "--n", "3", "--r", "1", "--x", "0.5",
     "--alpha", "inf"),
])
def test_non_finite_parameter_exits_2(argv):
    r = run(*argv)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: ")


def test_hyp2f1_auto_fallback_sums_to_full_precision():
    # the closed form is rejected here, and the series fallback sums to
    # 1e-17 (a 1e-6 tolerance gave 20.924269313215092)
    r = run("hyp2f1", "--m", "6", "--n", "18.5", "--p", "24",
            "--x", "0.5033840330246482")
    assert r.returncode == 0
    assert r.stdout == '{"value": 20.924279990680514}\n'


@pytest.mark.parametrize("m,n,p,x", [
    ("1", "3", "6", "0.5"), ("3", "1", "7", "0.4"), ("1", "2", "7", "0.3"),
    ("1", "2", "12", "0.8"), ("2", "2.5", "6", "0.6"),
], ids=["1m", "swap-1m", "12", "12-high-x", "general"])
def test_hyp2f1_closed_prints_the_library_value(m, n, p, x):
    r = run("hyp2f1", "--m", m, "--n", n, "--p", p, "--x", x, "--method", "closed")
    assert r.returncode == 0
    value = hyp2f1_closed(HypergeomParams(int(m), float(n), int(p)), float(x))
    assert r.stdout == json.dumps({"value": value}) + "\n"


def test_series_routes_print_the_library_value():
    r = run("hyp2f1", "--m", "2", "--n", "-2.5", "--p", "5", "--x", "0.7",
            "--method", "series")
    assert r.returncode == 0
    value = hyp2f1_series(2.0, -2.5, 5.0, 0.7).value
    assert r.stdout == json.dumps({"value": value}) + "\n"
    for argv, params in (
            (("--operator", "mkz", "--n", "3", "--r", "4"), GmkzParams(3, 1, 0.0, 0.0)),
            (("--operator", "gmkz", "--n", "3", "--rop", "3", "--alpha", "2",
              "--beta", "1", "--r", "4"), GmkzParams(3, 3, 2.0, 1.0))):
        r = run("moment", *argv, "--x", "0.95", "--route", "series")
        assert r.returncode == 0
        value = mkz._gmkz_series(params, Monomial(4), 0.95).value
        assert r.stdout == json.dumps({"value": value}) + "\n"


def test_hyp2f1_closed_refuses_a_cancelled_value():
    # the closed form returns -3.3e22 here (true value ~1.0), with a rounding
    # bound far past the dispatcher's own acceptance test
    r = run_process("hyp2f1", "--m", "1", "--n", "2", "--p", "42", "--x", "0.05",
                    "--method", "closed")
    assert r.returncode == 1
    assert r.stdout == ""
    assert "closed form's rounding bound 1.05e+25 exceeds 1e-13 of its value" in r.stderr


@pytest.mark.parametrize("method,n,p", [
    # the value, 1.87e358, lies beyond float range
    ("closed", "60.5", "20"),
], ids=["closed"])
def test_hyp2f1_overflowing_closed_form_exits_1(method, n, p):
    r = run("hyp2f1", "--m", "1", "--n", n, "--p", p, "--x", "0.999999999",
            "--method", method)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == "error: closed form overflows float range\n"


def test_hyp2f1_closed_answers_where_its_scale_passes_dd_range():
    # the scale (1-x)**-33.6 ~ 1e302 is past the range a dd_mul takes; the
    # general form keeps it apart as 2**E g and answers (the value is 3.9e288)
    r = run("hyp2f1", "--m", "1", "--n", "52.6", "--p", "20", "--x", "0.999999999",
            "--method", "closed")
    assert r.returncode == 0
    assert r.stdout == json.dumps({"value": 3.940506602356998e+288}) + "\n"


def test_hyp2f1_auto_takes_euler_on_overflow():
    # large n next to x = 1: the near-1 route answers (mpmath value)
    r = run("hyp2f1", "--m", "1", "--n", "60.5", "--p", "70", "--x", "0.999999999")
    assert r.returncode == 0
    assert math.isclose(json.loads(r.stdout)["value"], 8.117646993341179, rel_tol=1e-14)


def test_hyp2f1_closed_rejects_the_origin():
    r = run("hyp2f1", "--m", "1", "--n", "2", "--p", "3", "--x", "0",
            "--method", "closed")
    assert r.returncode == 2


@pytest.mark.parametrize("method", ["auto", "closed", "series"])
def test_hyp2f1_nan_x_exits_2(method):
    # a nan x is out of the domain on every route; the series route raised
    # NonFinite and exited 1
    r = run("hyp2f1", "--m", "1", "--n", "2", "--p", "3", "--x", "nan",
            "--method", method)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: ")


def test_hyp2f1_series_cap_exits_1():
    # the tail bound |t_(k+1)| / (1 - x) is still ~1e-12 at the cap
    r = run("hyp2f1", "--m", "1", "--n", "2", "--p", "6", "--x", "0.999999",
            "--method", "series")
    assert r.returncode == 1
    assert "converge" in r.stderr


def test_hyp2f1_non_finite_series_term_exits_1():
    # the terms of 2F1(1, 900; 2; 0.99) pass float range before they fall
    r = run("hyp2f1", "--m", "1", "--n", "900", "--p", "2", "--x", "0.99",
            "--method", "series")
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == "error: non-finite term at index 336\n"


def test_bad_tolerance_flag_exits_2():
    r = run("hyp2f1", "--m", "1", "--n", "2", "--p", "3", "--x", "0.5",
            "--rel-tol", "-1")
    assert r.returncode == 2


def test_moment_order_zero():
    r = run("moment", "--operator", "mkz", "--n", "5", "--r", "0",
            "--x", "0.3")
    assert r.returncode == 0
    assert r.stdout == '{"value": 1.0}\n'


def test_moment_both_routes():
    r = run("moment", "--operator", "mkz", "--n", "1", "--r", "2",
            "--x", "0.5", "--route", "both")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert set(doc) == {"closed", "series", "rel_err"}
    assert doc["rel_err"] < 1e-10
    # the series side is summed to 1e-17, so next to x = 1 the error
    # printed is the closed form's, not the series' truncation (9.8e-13 at
    # a 1e-12 tolerance)
    r = run("moment", "--operator", "mkz", "--n", "3", "--r", "4",
            "--x", "0.95", "--route", "both")
    assert r.returncode == 0
    assert json.loads(r.stdout)["rel_err"] < 1e-14


def test_moment_both_routes_compare_the_closed_form_at_every_x():
    # below x = 0.9 mkz_moment and gmkz_moment_abel are the operator series,
    # so the closed side of --route both was that series and rel_err read
    # 0.0 by construction; it is the closed form at every x
    r = run("moment", "--operator", "mkz", "--n", "5", "--r", "3",
            "--x", "0.05", "--route", "both")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["closed"] == mkz._gmkz_closed(6, 5, 0.0, 3, 0.05)[0]
    assert doc["series"] == mkz_moment(5, 3, 0.05) != doc["closed"]
    assert 0.0 < doc["rel_err"] < 1e-15
    r = run("moment", "--operator", "gmkz", "--n", "3", "--rop", "3",
            "--alpha", "2", "--beta", "1", "--r", "4", "--x", "0.3",
            "--route", "both")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["closed"] == mkz._gmkz_closed(6, 5, 1.0, 4, 0.3)[0]
    assert doc["series"] == gmkz_moment_abel(3, 2, 1.0, 4, 0.3)
    # where the closed form's rounding bound rejects it, the command exits 1;
    # --route closed keeps gmkz_apply's value, the series there
    r = run("moment", "--operator", "mkz", "--n", "12", "--r", "10",
            "--x", "0.02", "--route", "both")
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == "error: closed form not certified at this point\n"
    r = run("moment", "--operator", "mkz", "--n", "12", "--r", "10", "--x", "0.02")
    assert r.stdout == json.dumps({"value": mkz_moment(12, 10, 0.02)}) + "\n"


def test_moment_both_routes_where_x_to_the_c_underflows():
    # x**5 underflows to 0 at x = 1e-200, so the closed form's x**(-c) is
    # out of float range: a typed error, where a traceback was printed
    r = run("moment", "--operator", "mkz", "--n", "5", "--r", "3",
            "--x", "1e-200", "--route", "both")
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == "error: closed form not certified at this point\n"


def test_moment_log_operator_supports_order_two_only():
    r = run("moment", "--operator", "ln", "--n", "2", "--r", "3", "--x", "0.5")
    assert r.returncode == 2
    r = run("moment", "--operator", "ln", "--n", "2", "--r", "2", "--x", "0.5",
            "--route", "both")
    assert r.returncode == 0
    assert json.loads(r.stdout)["rel_err"] < 1e-9


def test_moment_gmkz_closed_requires_a_known_shape():
    r = run("moment", "--operator", "gmkz", "--n", "2", "--r", "2",
            "--x", "0.4", "--alpha", "1.5", "--beta", "0", "--rop", "2")
    assert r.returncode == 2


def test_fnj_symbolic_document():
    r = run("fnj", "--n", "2", "--j", "2", "--emit-symbolic")
    assert r.returncode == 0
    assert r.stdout == ('{"n": 2, "j": 2, "terms": [{"basis": "pow_ratio", '
                        '"i": 1, "num": "1", "den": "2"}, {"basis": "log", '
                        '"num": "1", "den": "2"}]}\n')


def test_fnj_symbolic_document_at_a_high_order():
    r = run("fnj", "--n", "3", "--j", "1100", "--emit-symbolic")
    assert r.returncode == 0
    assert [t["k"] for t in json.loads(r.stdout)["terms"]] == [1097, 1098, 1099]


def test_fnj_symbolic_documents_are_pinned():
    r = run("fnj", "--n", "5", "--j", "4", "--emit-symbolic")
    assert r.returncode == 0
    assert r.stdout == (
        '{"n": 5, "j": 4, "terms": [{"basis": "pow_ratio", "i": 1, "num": "-11", '
        '"den": "120"}, {"basis": "pow_ratio", "i": 2, "num": "1", "den": "120"}, '
        '{"basis": "log", "num": "-7", "den": "24"}, {"basis": "polylog", "k": 2, '
        '"num": "-5", "den": "12"}, {"basis": "polylog", "k": 3, "num": "1", '
        '"den": "5"}]}\n')
    r = run("fnj", "--n", "4", "--j", "9", "--emit-symbolic")
    assert r.returncode == 0
    assert r.stdout == (
        '{"n": 4, "j": 9, "terms": [{"basis": "polylog", "k": 5, "num": "1", '
        '"den": "24"}, {"basis": "polylog", "k": 6, "num": "-1", "den": "4"}, '
        '{"basis": "polylog", "k": 7, "num": "11", "den": "24"}, {"basis": '
        '"polylog", "k": 8, "num": "-1", "den": "4"}]}\n')


def test_fnj_numeric_route():
    r = run("fnj", "--n", "2", "--j", "2", "--x", "0.5")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["n"] == 2 and doc["j"] == 2
    assert doc["rel_err"] < 1e-10


def test_fnj_underflowing_power_exits_1():
    r = run("fnj", "--n", "5", "--j", "3", "--x", "1e-100")
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("error: ")


def test_fnj_underflowing_power_of_one_minus_x_exits_1():
    r = run("fnj", "--n", "30", "--j", "2", "--x", "0.999999999999")
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == "error: combo evaluation: a power underflows float range\n"


def test_fnj_coefficient_past_float_range_exits_1():
    # f_{1060,2}'s combo has a coefficient past float range, and at n = 1000 a
    # sum whose rounding bound is nan: both were a bare OverflowError or a
    # message showing nan
    for n, j, x, why in ((1060, 2, "0.5", "a coefficient passes float range"),
                         (1060, 3, "0.1", "a coefficient passes float range"),
                         (1000, 2, "0.5", "the rounding bound is not finite")):
        with pytest.raises(NotConverged, match=f"^combo evaluation: {why}$"):
            combo_eval(fnj_combo(n, j), float(x))
        r = run("fnj", "--n", str(n), "--j", str(j), "--x", x)
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == f"error: combo evaluation: {why}\n"


def test_fnj_uncertified_combo_exits_1():
    # the combo cancels by ~1e139 at this x, and was 3.1e113 off
    r = run("fnj", "--n", "19", "--j", "8", "--x", "4.7e-8")
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("error: combo evaluation: rounding bound ")


def test_fnj_validation():
    # the library's domain, n >= 1 and j >= 2: f_{1,j} = Li_(j-1)(x) / x
    r = run("fnj", "--n", "1", "--j", "2", "--emit-symbolic")
    assert r.returncode == 0
    assert r.stdout == ('{"n": 1, "j": 2, "terms": [{"basis": "log", '
                        '"num": "-1", "den": "1"}]}\n')
    r = run("fnj", "--n", "1", "--j", "3", "--x", "0.5")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["combo"] == doc["series"] == 1.164481052930025  # 2 Li_2(1/2)
    for args, message in ((("--n", "0", "--j", "2"), "n must be >= 1"),
                          (("--n", "3", "--j", "1"), "j must be >= 2")):
        r = run("fnj", *args, "--emit-symbolic")
        assert (r.returncode, r.stderr) == (2, f"error: {message}\n")
    assert run("fnj", "--n", "3", "--j", "4").returncode == 2


def test_heun_unconverged_truncation_exits_1():
    r = run("heun", "--m", "1", "--n", "0.5", "--p", "3", "--x", "0.2",
            "--terms", "40")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["termination"] is None
    assert doc["converged"] is False
    assert doc["terms_used"] == 40


def test_heun_without_termination_has_no_normalization():
    args = ("heun", "--m", "1", "--n", "2", "--p", "3", "--x", "0.2")
    r = run(*args)
    assert r.returncode == 1
    assert json.loads(r.stdout)["normalization"] is None
    r = run(*args, "--normalized")
    assert r.returncode == 2
    assert r.stdout == ""


def test_heun_normalized_and_residual_routes():
    r = run("heun", "--m", "2", "--n", "-3", "--p", "5", "--x", "0.3",
            "--normalized", "--check-ode")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["termination"] == 2
    assert doc["ode_residual"] < 1e-12
    raw = run("heun", "--m", "2", "--n", "-3", "--p", "5", "--x", "0.3")
    assert json.loads(raw.stdout)["value"] == pytest.approx(
        doc["value"] * doc["normalization"], rel=1e-13)


def test_heun_residual_past_float_range_exits_1():
    # q of n = -3e300 passes float range, so two terms of the equation are
    # infinite: the residual was nan, printed as NaN, which is not JSON.  At
    # m = 5 the member terminates at r = 1.5e300, and its normalization,
    # which raised a bare ValueError, ends at the infinite c_1 first
    for m, p, why in ((4, 8, "the equation's terms leave float range"),
                      (5, 12, "non-finite term at index 1")):
        with pytest.raises(NonFinite, match="^the equation's terms leave float range$"):
            heun_ode_residual(HeunFamilyParams(m, -3e300, p), 5e-324, 1)
        r = run("heun", "--m", str(m), "--n=-3e300", "--p", str(p), "--x", "5e-324",
                "--terms", "1", "--check-ode")
        assert (r.returncode, r.stdout, r.stderr) == (1, "", f"error: {why}\n")


def test_verify_csv_report():
    r = run("verify", "--suite", "basis", "--format", "csv")
    assert r.returncode == 0
    rows = list(csv.reader(io.StringIO(r.stdout)))
    assert rows[0] == ["operation", "inputs", "result", "oracle", "rel_err",
                       "pass"]
    assert len(rows) > 100
    assert all(row[5] == "true" for row in rows[1:])
    for row in rows[1:]:
        json.loads(row[1])  # inputs column holds a JSON object
        float(row[2]), float(row[3]), float(row[4])


def test_verify_out_file_keeps_stdout_clean(tmp_path):
    out = tmp_path / "report.json"
    r = run("verify", "--suite", "mkz", "--out", str(out))
    assert r.returncode == 0
    assert r.stdout == ""
    doc = json.loads(out.read_text())
    assert doc["summary"]["passed"] == doc["summary"]["total"] > 0


def test_each_subcommand_has_its_pinned_flags():
    # an added or removed option is a deliberate edit of this list
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {name: sorted(flag for action in parser._actions
                          for flag in action.option_strings if flag not in ("-h", "--help"))
             for name, parser in sub.choices.items()}
    assert flags == {
        "hyp2f1": ["--compare", "--m", "--method", "--n", "--p", "--x"],
        "moment": ["--alpha", "--beta", "--n", "--operator", "--r", "--rop",
                   "--route", "--x"],
        "fnj": ["--emit-symbolic", "--j", "--n", "--x"],
        "heun": ["--check-ode", "--m", "--n", "--normalized", "--p", "--terms", "--x"],
        "verify": ["--format", "--out", "--suite"],
    }


def test_unknown_subcommand_exits_2():
    r = run_process("frobnicate")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "invalid choice: 'frobnicate'" in r.stderr
