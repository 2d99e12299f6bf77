"""Verification sweeps behind the CLI's verify subcommand.

Each suite runs a fixed grid of closed-form-vs-oracle comparisons and
returns Report entries; pass/fail is judged against one tolerance per suite.
Grids are pinned here, so identical invocations produce bit-identical
reports.
"""

from __future__ import annotations

import json
import math

from ._dd import (
    dd, dd_add, dd_div, dd_from_int, dd_from_ratio, dd_log, dd_mul,
    dd_npow, dd_sub, dd_to_float,
)
from .basis import combo_eval, fnj_combo, fnj_series, pow_ratio, poly, LOG_TERM
from .heun import (
    HeunFamilyParams, heun_eval, heun_normalization, heun_ode_residual,
    heun_params_from, heun_series_oracle, heun_termination,
)
from .hypergeom import (
    HypergeomParams, hyp2f1_closed_12, hyp2f1_closed_1m, hyp2f1_closed_general,
    hyp2f1_series,
)
from .mkz import (
    _APPLY_CLOSED_FROM, GmkzParams, Monomial, _gmkz_series, gmkz_apply, gmkz_e1,
    gmkz_moment_abel, mkz_moment, mkz_moment_e2, ln_moment_e2, ln_moment_e2_direct,
)
from .polylog import _polylog_dd

SUITE_NAMES = ("hypergeom", "mkz", "basis", "heun")

SUITE_TOLERANCES = {
    "hypergeom": 1e-8,
    "mkz": 1e-7,
    "basis": 1e-8,
    "heun": 1e-3,
}

_XGRID = [round(0.1 * i, 1) for i in range(1, 10)]
_NGRID = [-2.5, -1.0, 0.5, 1.0, 2.0, 3.75]

# mkz_moment and gmkz_moment_abel are gmkz_apply, whose series is the
# direct-summation oracle; from _APPLY_CLOSED_FROM up they take its closed
# form, so only there does a moment-vs-direct entry compare two routes.
_CLOSED_XGRID = (_APPLY_CLOSED_FROM, 0.95, 0.99)


def _rel_err(result: float, oracle: float) -> float:
    if oracle == 0.0:
        return abs(result - oracle)
    return abs(result - oracle) / abs(oracle)


def _entry(operation: str, inputs: dict, result: float, oracle: float,
           tol: float) -> dict:
    rel = _rel_err(result, oracle)
    return {
        "operation": operation,
        "inputs": inputs,
        "result": float(result),
        "oracle": float(oracle),
        "rel_err": rel,
        "pass": rel <= tol,
    }


def suite_hypergeom() -> list:
    tol = SUITE_TOLERANCES["hypergeom"]
    entries = []
    for m in range(1, 5):
        for p in range(m + 1, 9):
            for n in _NGRID:
                for x in _XGRID:
                    closed = hyp2f1_closed_general(HypergeomParams(m, n, p), x)
                    oracle = hyp2f1_series(float(m), n, float(p), x).value
                    entries.append(_entry(
                        "hyp2f1_closed_vs_series",
                        {"m": m, "n": n, "p": p, "x": x},
                        closed, oracle, tol))
    for m in range(1, 7):
        for l in range(0, 7):
            for x in (0.1, 0.5, 0.9):
                va = hyp2f1_closed_1m(m, l, x, "A")
                vb = hyp2f1_closed_1m(m, l, x, "B")
                entries.append(_entry(
                    "hyp2f1_log_variants_ab",
                    {"m": m, "l": l, "x": x},
                    va, vb, tol))
    for n in range(1, 13):
        for x in (0.1, 0.5, 0.9):
            v1 = hyp2f1_closed_12(n, x, 1)
            v2 = hyp2f1_closed_12(n, x, 2)
            v3 = hyp2f1_closed_12(n, x, 3)
            entries.append(_entry(
                "hyp2f1_12_variants_12",
                {"n": n, "x": x}, v1, v2, tol))
            entries.append(_entry(
                "hyp2f1_12_variants_13",
                {"n": n, "x": x}, v1, v3, tol))
    for n in range(1, 7):
        for x in (0.2, 0.7):
            via3 = hyp2f1_closed_1m(2, n - 1, x, "A")
            via4 = hyp2f1_closed_12(n, x, 1)
            entries.append(_entry(
                "hyp2f1_family_chain",
                {"n": n, "x": x}, via3, via4, tol))
    return entries


def _expected_basis_set(n: int, j: int):
    if j <= n:
        want = {pow_ratio(i) for i in range(1, n - j + 2)}
        want.add(LOG_TERM)
        want.update(poly(k) for k in range(2, j))
    elif j == n + 1:
        want = {LOG_TERM}
        want.update(poly(k) for k in range(2, n + 1))
    else:
        want = {poly(k) for k in range(j - n, j)}
    return want


def _fnj3_direct(n: int, x: float) -> float:
    """Direct transcription of the j = 3 kernel closed form, for cross-check."""
    omx = dd_sub(dd(1.0), dd(x))
    big_l = dd_log(omx)
    ompows = [dd(1.0)]
    for _ in range(max(n - 2, 0)):
        ompows.append(dd_mul(ompows[-1], omx))
    acc = dd(0.0)
    for i in range(1, n):
        inner = dd(0.0)
        for l in range(i - 1):
            w = i - l - 1
            pr = dd_div(dd_sub(dd(1.0), ompows[w]), ompows[w])
            inner = dd_add(inner, dd_div(pr, dd_from_int(w)))
        inner = dd_sub(inner, big_l)
        coef = dd_from_ratio(math.comb(n - 1, i) * (-1) ** i, i)
        acc = dd_add(acc, dd_mul(coef, inner))
    acc = dd_add(acc, _polylog_dd(2, x))
    pref = dd_from_ratio((-1) ** (n - 1), n)
    return dd_to_float(dd_mul(pref, dd_div(acc, dd_npow(dd(x), n))))


def suite_basis() -> list:
    tol = SUITE_TOLERANCES["basis"]
    entries = []
    for n in range(2, 9):
        for j in range(2, 13):
            combo = fnj_combo(n, j)
            entries.append(_entry(
                "combo_cardinality",
                {"n": n, "j": j},
                float(len(combo.terms)), float(n), tol))
            match = set(combo.terms) == _expected_basis_set(n, j)
            entries.append(_entry(
                "combo_basis_set",
                {"n": n, "j": j},
                1.0 if match else 0.0, 1.0, tol))
            for x in (0.1, 0.5, 0.9):
                got = combo_eval(combo, x)
                want = fnj_series(n, j, x).value
                entries.append(_entry(
                    "combo_vs_series",
                    {"n": n, "j": j, "x": x},
                    got, want, tol))
    for n in range(2, 9):
        for x in (0.25, 0.75):
            got = combo_eval(fnj_combo(n, 3), x)
            want = _fnj3_direct(n, x)
            entries.append(_entry(
                "combo_vs_direct_j3",
                {"n": n, "x": x},
                got, want, tol))
    return entries


def suite_mkz() -> list:
    tol = SUITE_TOLERANCES["mkz"]
    entries = []
    e0, e1, e2 = Monomial(0), Monomial(1), Monomial(2)
    for n in range(1, 11):
        classical = GmkzParams(n, 1, 0.0, 0.0)
        for x in _XGRID:
            closed = mkz_moment_e2(n, x)
            kernel = mkz_moment(n, 2, x)
            direct = _gmkz_series(classical, e2, x).value
            entries.append(_entry(
                "mkz_e2_closed_vs_kernel",
                {"n": n, "x": x}, closed, kernel, tol))
            entries.append(_entry(
                "mkz_e2_closed_vs_direct",
                {"n": n, "x": x}, closed, direct, tol))
            entries.append(_entry(
                "mkz_e0_unity",
                {"n": n, "x": x},
                gmkz_apply(classical, e0, x).value, 1.0, tol))
            entries.append(_entry(
                "mkz_e1_linearity",
                {"n": n, "x": x}, mkz_moment(n, 1, x), x, tol))
    for r in (3, 4, 5):
        for n in range(2, 9):
            classical = GmkzParams(n, 1, 0.0, 0.0)
            for x in _CLOSED_XGRID:
                closed = mkz_moment(n, r, x)
                direct = _gmkz_series(classical, Monomial(r), x).value
                entries.append(_entry(
                    "mkz_moment_vs_direct",
                    {"n": n, "r": r, "x": x}, closed, direct, tol))
    for n in range(1, 9):
        for x in (0.1, 0.4, 0.8):
            entries.append(_entry(
                "ln_e2_closed_vs_direct",
                {"n": n, "x": x},
                ln_moment_e2(n, x), ln_moment_e2_direct(n, x), tol))
    for alpha in range(5):
        for beta in (0.0, alpha / 2.0, float(alpha)):
            for n in (1, 3):
                params = GmkzParams(n, alpha + 1, float(alpha), beta)
                for x in (0.2, 0.6):
                    affine = beta / (n + alpha) + (1.0 - beta / (n + alpha)) * x
                    entries.append(_entry(
                        "gmkz_e1_affine",
                        {"n": n, "alpha": alpha, "beta": beta, "x": x},
                        gmkz_e1(params, x), affine, tol))
    for n, alpha, beta in ((2, 1, 0.0), (2, 2, 1.0), (3, 0, 0.0)):
        for m in range(5):
            for x in _CLOSED_XGRID[:2]:
                abel = gmkz_moment_abel(n, alpha, beta, m, x)
                direct = _gmkz_series(
                    GmkzParams(n, alpha + 1, float(alpha), beta),
                    Monomial(m), x).value
                entries.append(_entry(
                    "gmkz_abel_vs_direct",
                    {"n": n, "alpha": alpha, "beta": beta, "m": m, "x": x},
                    abel, direct, tol))
    return entries


# terminating family members, one per detected index r and branch
_TERMINATING_FPS = (
    (2, -1.0, 4),
    (2, -3.0, 5),
    (1, 5.0, 3),
    (2, 4.0, 4),
    (2, -5.0, 4),
    (1, -6.0, 3),
)

# of those, the ones whose gamma admits the power-series oracle
_ORACLE_FPS = ((2, -1.0, 4), (2, -3.0, 5), (2, -5.0, 4), (1, -6.0, 3))

_ALL_FPS = _TERMINATING_FPS + ((1, 2.0, 3), (2, 0.5, 4))


def suite_heun() -> list:
    tol = SUITE_TOLERANCES["heun"]
    entries = []
    for m, n, p in _ALL_FPS:
        fp = HeunFamilyParams(m, n, p)
        s = heun_params_from(fp)
        dev = max(
            abs(s.gamma + s.epsilon - p),
            abs(s.gamma + s.delta - 2.0),
            abs(s.q - (s.a * s.alpha * s.beta + s.a * (1.0 - s.delta) * s.epsilon)),
        )
        entries.append(_entry(
            "heun_parameter_identities",
            {"m": m, "n": n, "p": p}, dev, 0.0, tol))
    for m, n, p in _TERMINATING_FPS:
        fp = HeunFamilyParams(m, n, p)
        r = heun_termination(fp)
        for x in (0.2, 0.4):
            base = heun_eval(fp, x, r).value
            drift = heun_eval(fp, x, r + 7).value
            entries.append(_entry(
                "heun_truncation_drift",
                {"m": m, "n": n, "p": p, "x": x}, drift, base, tol))
        for x in (0.15, 0.3):
            entries.append(_entry(
                "heun_ode_residual",
                {"m": m, "n": n, "p": p, "x": x},
                heun_ode_residual(fp, x, 1e-3, r + 2), 0.0, tol))
        norm = heun_normalization(fp)
        entries.append(_entry(
            "heun_normalization_consistency",
            {"m": m, "n": n, "p": p},
            norm, heun_eval(fp, 0.0, r).value, tol))
    for m, n, p in _ORACLE_FPS:
        fp = HeunFamilyParams(m, n, p)
        r = heun_termination(fp)
        norm = heun_normalization(fp)
        spec = heun_params_from(fp)
        for x in (0.1, 0.3, 0.45):
            got = heun_eval(fp, x, r).value / norm
            want = heun_series_oracle(spec, x, 400)
            entries.append(_entry(
                "heun_vs_series_oracle",
                {"m": m, "n": n, "p": p, "x": x}, got, want, tol))
    return entries


_SUITE_FUNCS = {
    "hypergeom": suite_hypergeom,
    "mkz": suite_mkz,
    "basis": suite_basis,
    "heun": suite_heun,
}


def run_suites(names) -> dict:
    """Assemble the Report for the named suites, deterministically ordered."""
    entries = []
    for name in names:
        entries.extend(_SUITE_FUNCS[name]())
    entries.sort(key=lambda e: (e["operation"], json.dumps(e["inputs"], sort_keys=True)))
    passed = sum(1 for e in entries if e["pass"])
    max_rel = max((e["rel_err"] for e in entries), default=0.0)
    return {
        "entries": entries,
        "summary": {
            "total": len(entries),
            "passed": passed,
            "max_rel_err": max_rel,
        },
    }
