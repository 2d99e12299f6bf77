"""The public surface: its names, and the README's account of each evaluator."""

import ast
import importlib
import importlib.util
import inspect
import os
import pathlib
import re
import subprocess
import sys

import elemhyp

ROOT = pathlib.Path(__file__).parents[1]
README = ROOT / "README.md"

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
        "combo_eval", "combo_json_dict", "fnj_combo", "fnj_series",
        "gmkz_apply", "gmkz_e1", "gmkz_moment_abel",
        "heun_coeff", "heun_eval", "heun_normalization", "heun_ode_residual",
        "heun_params_from", "heun_series_oracle", "heun_termination",
        "hyp2f1_closed", "hyp2f1_eval", "hyp2f1_series", "ln_moment_e2",
        "ln_moment_e2_direct", "mkz_moment", "mkz_moment_e2", "polylog",
        "polylog_derivative_series", "sum_series",
    ]
    for name in elemhyp.__all__:
        getattr(elemhyp, name)


# The parameters of every public callable but the error types, annotations
# left out: an added, removed or renamed parameter is a deliberate edit here.
SIGNATURES = {
    "BasisFunction": "(kind, index)",
    "GmkzParams": "(n, r, alpha, beta)",
    "HeunFamilyParams": "(m, n, p)",
    "HeunSpec": "(alpha, beta, gamma, delta, epsilon, a, q)",
    "HypergeomParams": "(m, n, p)",
    "Monomial": "(r)",
    "SeriesResult": "(value, terms_used, converged, trunc_err_est, abs_sum=0.0)",
    "SymbolicCombo": "(n, j, terms)",
    "combo_eval": "(c, x)",
    "combo_json_dict": "(c)",
    "fnj_combo": "(n, j)",
    "fnj_series": "(n, j, x)",
    "gmkz_apply": "(params, f, x)",
    "gmkz_e1": "(params, x)",
    "gmkz_moment_abel": "(n, alpha, beta, m, x)",
    "heun_coeff": "(fp, k)",
    "heun_eval": "(fp, x, K)",
    "heun_normalization": "(fp)",
    "heun_ode_residual": "(fp, x, K)",
    "heun_params_from": "(fp)",
    "heun_series_oracle": "(spec, x)",
    "heun_termination": "(fp)",
    "hyp2f1_closed": "(params, x)",
    "hyp2f1_eval": "(params, x)",
    "hyp2f1_series": "(a, b, c, x)",
    "ln_moment_e2": "(n, x)",
    "ln_moment_e2_direct": "(n, x)",
    "mkz_moment": "(n, r, x)",
    "mkz_moment_e2": "(n, x)",
    "polylog": "(k, x)",
    "polylog_derivative_series": "(j, d, x)",
    "sum_series": "(term_source, tail)",
}


def test_public_signatures_are_pinned():
    got = {}
    for name in elemhyp.__all__:
        obj = getattr(elemhyp, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, Exception):
            continue
        params = inspect.signature(obj).parameters.values()
        got[name] = f"({', '.join(str(p.replace(annotation=p.empty)) for p in params)})"
    assert got == SIGNATURES


def test_readme_table_classifies_every_evaluator_once():
    section = README.read_text().split("### What each evaluator guarantees\n", 1)[1]
    rows = re.findall(r"^\| (`.+?`) \| (certified|judge|gap) \|", section, re.M)
    named = [name for cell, _ in rows for name in re.findall(r"`(\w+)`", cell)]
    assert sorted(named) == sorted(set(elemhyp.__all__) - NOT_EVALUATORS)


def test_benchmark_tracer_boundaries_resolve():
    # the traced benchmark rebinds each (module, function) of BOUNDARIES;
    # one that names a deleted function breaks it, so it fails here first
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.BOUNDARIES
    missing = [(module, name) for module, name in tracer.BOUNDARIES
               if not callable(getattr(importlib.import_module(module), name, None))]
    assert missing == []
    # perfbench/worker.py reads the hit ratios of these two from their
    # lru_cache counters, and Tracer.cache_hit_ratio has none without them
    for module, name in (("elemhyp.polylog", "_polylog_dd"), ("elemhyp.basis", "fnj_combo")):
        assert (module, name) in tracer.BOUNDARIES
        assert hasattr(getattr(importlib.import_module(module), name), "cache_info"), name


def test_the_cli_does_not_import_typing():
    # every annotation is a string under `from __future__ import annotations`,
    # so nothing the CLI runs needs typing, which takes ~3 ms to import
    code = "import sys, elemhyp.cli; print('typing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


# perfbench/tracer.py's BOUNDARIES still wraps _dd.power_integral_dd, which
# nothing in the package calls; it stays until ROADMAP items 1 and 11 prune
# BOUNDARIES and delete it.  The set is compared whole, so the exception goes
# when the function does.
UNREFERENCED = {"_dd.power_integral_dd"}


def test_every_top_level_definition_is_public_or_referenced():
    # a function or class that is neither in __all__ nor named anywhere else
    # in the package is dead code; a call, an attribute, a default such as
    # the CLI's set_defaults(func=...) or an annotation counts as a
    # reference, an import does not, and neither does recursion
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "elemhyp").glob("*.py"))}
    refs = [(node.id if isinstance(node, ast.Name) else node.attr, node)
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    unreferenced = set()
    for module, tree in trees.items():
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            if top.name in elemhyp.__all__:
                continue
            inside = {id(node) for node in ast.walk(top)}
            if not any(name == top.name and id(node) not in inside for name, node in refs):
                unreferenced.add(f"{module}.{top.name}")
    assert unreferenced == UNREFERENCED


def test_each_dispatcher_judges_its_routes_once():
    # a private route returns (value, bound), or None where it cannot form
    # one; _dd.certified, the one test for keeping a value, is applied in a
    # dispatcher alone, once, so every bound is judged in one place
    sites = []
    for path in sorted((ROOT / "src" / "elemhyp").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            sites += [f"{path.stem}.{getattr(top, 'name', '<module>')}"
                      for node in ast.walk(top)
                      if "certified" in (getattr(node, "id", None), getattr(node, "attr", None))]
    assert sorted(sites) == ["basis.combo_eval", "hypergeom._routes",
                             "hypergeom.hyp2f1_closed", "mkz._closed_route"]
