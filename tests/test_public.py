"""The public surface: its names, and the README's account of each evaluator."""

import pathlib
import re

import elemhyp

README = pathlib.Path(__file__).parents[1] / "README.md"

# Public names that evaluate nothing: types, errors, the exact symbolic
# combos and the Heun family's parameter maps.
NOT_EVALUATORS = {
    "BasisFunction", "DomainError", "GmkzParams", "HeunFamilyParams", "HeunSpec",
    "HypergeomParams", "InvalidParams", "Monomial", "NonFinite", "NotConverged",
    "SeriesResult", "SymbolicCombo", "__version__", "combo_json_dict", "fnj_combo",
    "heun_params_from", "heun_termination",
}


def test_public_names_are_pinned():
    # a change to the public names is a deliberate edit of this list
    assert sorted(elemhyp.__all__) == [
        "BasisFunction", "DomainError", "GmkzParams", "HeunFamilyParams",
        "HeunSpec", "HypergeomParams", "InvalidParams", "Monomial", "NonFinite",
        "NotConverged", "SeriesResult", "SymbolicCombo", "__version__",
        "combo_eval", "combo_json_dict", "fnj_base", "fnj_combo", "fnj_series",
        "gen_binomial", "gmkz_apply", "gmkz_e1", "gmkz_moment_abel",
        "heun_coeff", "heun_eval", "heun_normalization", "heun_ode_residual",
        "heun_params_from", "heun_series_oracle", "heun_termination",
        "hyp2f1_closed", "hyp2f1_eval", "hyp2f1_series", "ln_moment_e2",
        "ln_moment_e2_direct", "mkz_moment", "mkz_moment_e2", "pochhammer",
        "polylog", "polylog_derivative_series", "sum_series",
    ]
    for name in elemhyp.__all__:
        getattr(elemhyp, name)


def test_readme_table_classifies_every_evaluator_once():
    section = README.read_text().split("### What each evaluator guarantees\n", 1)[1]
    rows = re.findall(r"^\| (`.+?`) \| (certified|judge|gap) \|", section, re.M)
    named = [name for cell, _ in rows for name in re.findall(r"`(\w+)`", cell)]
    assert sorted(named) == sorted(set(elemhyp.__all__) - NOT_EVALUATORS)
