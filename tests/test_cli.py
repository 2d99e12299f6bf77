"""Command line surface: exact output, exit codes, rejected flags."""

import csv
import io
import json
import math
import pathlib
import shlex
import subprocess
import sys

import pytest

from elemhyp import hyp2f1_closed_12, hyp2f1_closed_1m

CMD = [sys.executable, "-m", "elemhyp"]


def readme_examples():
    """(command, stdout) for each README `elemhyp ...` line whose next line
    is a `# {...}` comment: the output the README shows for it."""
    lines = (pathlib.Path(__file__).parents[1] / "README.md").read_text().splitlines()
    return [(cmd, out[2:] + "\n") for cmd, out in zip(lines, lines[1:])
            if cmd.startswith("elemhyp ") and out.startswith("# {")]


def run(*args):
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


@pytest.mark.parametrize("cmd,stdout", readme_examples(),
                         ids=[cmd for cmd, _ in readme_examples()])
def test_readme_example_output(cmd, stdout):
    r = run(*shlex.split(cmd)[1:])
    assert r.returncode == 0
    assert r.stdout == stdout


def test_readme_has_examples_with_output():
    assert len(readme_examples()) >= 4


def test_runs_are_bit_reproducible():
    args = ("verify", "--suite", "heun")
    assert run(*args).stdout == run(*args).stdout


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


def test_hyp2f1_variant_requires_closed_method():
    r = run("hyp2f1", "--m", "1", "--n", "2", "--p", "3", "--x", "0.5",
            "--variant", "1")
    assert r.returncode == 2


@pytest.mark.parametrize("m,n,p,variant,message", [
    ("1", "2", "3", "A", "1, 2 or 3"),
    ("1", "3", "6", "1", "A or B"),
    ("2", "2.5", "6", "A", "no variant"),
    ("2", "2.5", "6", "3", "no variant"),
    ("1", "2.5", "5", "B", "no variant"),
], ids=["12-A", "1m-1", "general-A", "general-3", "m1-B"])
def test_hyp2f1_variant_must_fit_the_shape(m, n, p, variant, message):
    r = run("hyp2f1", "--m", m, "--n", n, "--p", p, "--x", "0.5",
            "--method", "closed", "--variant", variant)
    assert r.returncode == 2
    assert message in r.stderr


@pytest.mark.parametrize("m,n,p,x,variant,closed", [
    ("1", "3", "6", "0.5", "B", lambda: hyp2f1_closed_1m(3, 2, 0.5, "B")),
    ("3", "1", "7", "0.4", "B", lambda: hyp2f1_closed_1m(3, 3, 0.4, "B")),
    ("1", "2", "7", "0.3", "2", lambda: hyp2f1_closed_12(5, 0.3, 2)),
    ("1", "2", "7", "0.3", "3", lambda: hyp2f1_closed_12(5, 0.3, 3)),
], ids=["1m-B", "swap-1m-B", "12-2", "12-3"])
def test_hyp2f1_closed_variant_prints_the_library_value(m, n, p, x, variant, closed):
    r = run("hyp2f1", "--m", m, "--n", n, "--p", p, "--x", x,
            "--method", "closed", "--variant", variant)
    assert r.returncode == 0
    assert r.stdout == json.dumps({"value": closed()}) + "\n"


def test_hyp2f1_closed_refuses_a_cancelled_value():
    # the closed form returns -3.3e22 here (true value ~1.0), with a rounding
    # bound far past the dispatcher's own acceptance test
    r = run("hyp2f1", "--m", "1", "--n", "2", "--p", "42", "--x", "0.05",
            "--method", "closed")
    assert r.returncode == 1
    assert r.stdout == ""
    assert "closed form's rounding bound 1.05e+25 exceeds 1e-13 of its value" in r.stderr


@pytest.mark.parametrize("method,n,p", [
    ("closed", "60.5", "70"),
    # dd products past ~1.3e300 turn the value nan short of an OverflowError
    ("closed", "34.8", "40"),
], ids=["closed", "closed-nan-band"])
def test_hyp2f1_overflowing_closed_form_exits_1(method, n, p):
    r = run("hyp2f1", "--m", "1", "--n", n, "--p", p, "--x", "0.999999999",
            "--method", method)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == "error: closed form overflows float range\n"


def test_hyp2f1_auto_takes_euler_on_overflow():
    # --method auto answers the point --method closed cannot (mpmath value)
    r = run("hyp2f1", "--m", "1", "--n", "60.5", "--p", "70", "--x", "0.999999999")
    assert r.returncode == 0
    assert math.isclose(json.loads(r.stdout)["value"], 8.117646993341179, rel_tol=1e-14)


def test_hyp2f1_closed_rejects_the_origin():
    r = run("hyp2f1", "--m", "1", "--n", "2", "--p", "3", "--x", "0",
            "--method", "closed")
    assert r.returncode == 2


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


def test_fnj_uncertified_combo_exits_1():
    # the combo cancels by ~1e139 at this x, and was 3.1e113 off
    r = run("fnj", "--n", "19", "--j", "8", "--x", "4.7e-8")
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("error: combo evaluation: rounding bound ")


def test_fnj_validation():
    assert run("fnj", "--n", "1", "--j", "2", "--emit-symbolic").returncode == 2
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
    assert doc["ode_residual"] < 1e-6
    raw = run("heun", "--m", "2", "--n", "-3", "--p", "5", "--x", "0.3")
    assert json.loads(raw.stdout)["value"] == pytest.approx(
        doc["value"] * doc["normalization"], rel=1e-13)


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


def test_unknown_subcommand_exits_2():
    assert run("frobnicate").returncode == 2
