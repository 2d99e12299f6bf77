"""The contract of every public evaluator and every command, on seeded draws.

A call returns a finite float, or a SeriesResult whose value and
trunc_err_est are finite wherever it is converged, or raises one of the
four typed errors, whose message shows no nan or inf.  A command exits 0,
1 or 2 and prints nothing, or one line of strict JSON (no NaN, no
Infinity).  The draws mix edge values (both zeros, the smallest subnormal,
1e-300, the floats next to 1/2 and 1, +-1e308, nan, +-inf, numpy floats)
with uniform ones; every size (an order, offset p - m, index or term
count) is log-uniform, at most 60 here and at most 300 in the sweep.
numpy integers are not drawn: the package computes with them as given,
and polylog(np.int64(60), 0.625) returns nan, its int64 powers wrapped.
"""

import contextlib
import io
import json
import math
import random
import re
from typing import Callable, NamedTuple

import pytest

import elemhyp
from elemhyp import (
    DomainError, GmkzParams, HeunFamilyParams, HeunSpec, HypergeomParams,
    InvalidParams, Monomial, NonFinite, NotConverged, SeriesResult, cli, fnj_combo,
    heun_params_from,
)
from test_public import NOT_EVALUATORS

try:
    import numpy as np
except ImportError:  # the draws then take Python numbers only
    np = None

# numpy warns where a Python float passes float range or turns nan without
# a word; the contract is judged on what the call returns or raises
numpy_quiet = contextlib.nullcontext if np is None else lambda: np.errstate(all="ignore")

TYPED = (DomainError, InvalidParams, NonFinite, NotConverged)
NON_FINITE_WORD = re.compile(r"\b(nan|inf|infinity)\b", re.I)
EDGES = (0.0, -0.0, 5e-324, 1e-300, 1.0 - 2.0 ** -53, 0.5 - 2.0 ** -53,
         0.5 + 2.0 ** -53, 1e308, -1e308, math.nan, math.inf, -math.inf)


class Build(NamedTuple):
    """An argument made at call time, so that its checks are part of the
    call: make(*args)."""

    make: Callable
    args: tuple

    def __repr__(self):
        return f"{self.make.__name__}{self.args!r}"


class Const(NamedTuple):
    """A sum_series tail bound: value, whatever the term."""

    value: float

    def __call__(self, k, term):
        return self.value


def _cos(t):
    return math.cos(9.0 * t)


def _inf_past(t):
    return math.inf if t > 0.6 else t


def _nan_past(t):
    return math.nan if t > 0.8 else 1.0 - t


def _numpy(rng, v):
    """v, or one time in eight, for a float, its numpy scalar."""
    if np is None or isinstance(v, int) or rng.random() >= 0.125:
        return v
    return np.float64(v)


def _real(rng, lo, hi):
    """An edge value one time in three, else uniform on [lo, hi]."""
    v = rng.choice(EDGES) if rng.random() < 1 / 3 else rng.uniform(lo, hi)
    return _numpy(rng, v)


def _x(rng):
    """An argument: an edge, or uniform on [0, 1), or next to 1."""
    v = rng.choice((rng.choice(EDGES), rng.random(), rng.random(),
                    1.0 - 10.0 ** rng.uniform(-12.0, -1.0)))
    return _numpy(rng, v)


def _int(rng, lo, hi):
    """An integer on [lo, hi], log-uniform in its distance from lo, so that
    small sizes are drawn most; one time in twenty an edge float in its
    place."""
    if rng.random() < 0.05:
        return rng.choice(EDGES + (2.0,))
    return lo + int((hi - lo + 2) ** rng.random()) - 1


def _signed(rng, size):
    """An integer on [-size, size], its magnitude drawn by _int."""
    return rng.choice((1, -1)) * _int(rng, 0, size)


def _triple(rng, size):
    """(m, n, p) with m and p - m - 1 on the sizes, n integral half the
    time: a 2F1 triple or Heun member, or one that its checks reject."""
    m = _int(rng, 0, size)
    p = m + _int(rng, -1, size) if isinstance(m, int) else _int(rng, 0, size)
    return m, rng.choice((float(_signed(rng, size)), _real(rng, -size, size))), p


def _hyp_params(rng, size):
    return Build(HypergeomParams, _triple(rng, size))


def _heun_params(rng, size):
    return Build(HeunFamilyParams, _triple(rng, size))


def _gmkz_params(rng, size):
    alpha = rng.choice((float(rng.randint(0, size)), _real(rng, 0.0, size)))
    beta = rng.choice((0.0, _real(rng, 0.0, 2.0), alpha))
    return Build(GmkzParams, (_int(rng, 0, size), _signed(rng, size), alpha, beta))


def _heun_spec(rng, size):
    if rng.random() < 0.5:
        return Build(heun_params_from, (_heun_params(rng, size),))
    al, be, ga, de = (_real(rng, -size, size) for _ in range(4))
    ep = float(al) + float(be) + 1.0 - float(ga) - float(de)  # Fuchs' relation
    return Build(HeunSpec, (al, be, ga, de, ep,
                            rng.choice((0.5, _real(rng, -2.0, 2.0))), _real(rng, -size, size)))


# evaluator -> its arguments drawn at a size
DRAWS = {
    "combo_eval": lambda rng, size: (
        Build(fnj_combo, (_int(rng, 0, size), _int(rng, 1, size))), _x(rng)),
    "fnj_series": lambda rng, size: (_int(rng, 0, size), _int(rng, -1, size), _x(rng)),
    "gmkz_apply": lambda rng, size: (
        _gmkz_params(rng, size),
        rng.choice((Build(Monomial, (_int(rng, -1, size),)), _cos, _inf_past, _nan_past)),
        _x(rng)),
    "gmkz_e1": lambda rng, size: (_gmkz_params(rng, size), _x(rng)),
    "gmkz_moment_abel": lambda rng, size: (
        _int(rng, 0, size), _int(rng, -1, size), _real(rng, 0.0, size),
        _int(rng, -1, size), _x(rng)),
    "heun_coeff": lambda rng, size: (_heun_params(rng, size), _int(rng, -1, size)),
    "heun_eval": lambda rng, size: (_heun_params(rng, size), _x(rng), _int(rng, 0, size)),
    "heun_normalization": lambda rng, size: (_heun_params(rng, size),),
    "heun_ode_residual": lambda rng, size: (
        _heun_params(rng, size), _x(rng), _int(rng, 0, size)),
    "heun_series_oracle": lambda rng, size: (_heun_spec(rng, size), _x(rng)),
    "hyp2f1_closed": lambda rng, size: (_hyp_params(rng, size), _x(rng)),
    "hyp2f1_eval": lambda rng, size: (_hyp_params(rng, size), _x(rng)),
    "hyp2f1_series": lambda rng, size: (
        _real(rng, -size, size), _real(rng, -size, size), _real(rng, -size, size),
        rng.choice((_x(rng), -_x(rng)))),
    "ln_moment_e2": lambda rng, size: (_int(rng, 0, size), _x(rng)),
    "ln_moment_e2_direct": lambda rng, size: (_int(rng, 0, size), _x(rng)),
    "mkz_moment": lambda rng, size: (_int(rng, 0, size), _int(rng, -1, size), _x(rng)),
    "mkz_moment_e2": lambda rng, size: (_int(rng, 0, size), _x(rng)),
    "polylog": lambda rng, size: (_int(rng, 0, size), rng.choice((_x(rng), -_x(rng)))),
    "polylog_derivative_series": lambda rng, size: (
        _int(rng, -1, size), _int(rng, 0, size), _x(rng)),
    "sum_series": lambda rng, size: (
        Build(iter, ([_real(rng, -1.0, 1.0) for _ in range(rng.randint(0, 8))],)),
        Const(rng.choice((0.0, 1e-30, math.inf, math.nan)))),
}


def _built(arg):
    return arg.make(*map(_built, arg.args)) if isinstance(arg, Build) else arg


def _breach(name, args):
    """What elemhyp.<name>(*args) does against the contract, or None."""
    try:
        with numpy_quiet():
            got = getattr(elemhyp, name)(*map(_built, args))
    except TYPED as exc:
        return f"message {exc}" if NON_FINITE_WORD.search(str(exc)) else None
    except Exception as exc:  # noqa: BLE001 -- any other error breaks the contract
        return f"raised {type(exc).__name__}: {exc}"
    if isinstance(got, SeriesResult):
        ok = not got.converged or math.isfinite(got.value) and math.isfinite(got.trunc_err_est)
    else:
        ok = isinstance(got, float) and math.isfinite(got)
    return None if ok else f"returned {got!r}"


def _arg(v):
    return str(v) if isinstance(v, int) else repr(float(v))


def _argv(rng, size):
    """One command line, its numbers drawn as the evaluators' are."""
    command = rng.choice(("hyp2f1", "moment", "fnj", "heun") * 8 + ("verify",))
    if command == "verify":  # fixed sweeps, the costliest command: drawn least
        argv = ["--suite", rng.choice(("hypergeom", "mkz", "basis", "heun", "all"))]
    elif command == "hyp2f1":
        params = _hyp_params(rng, size).args
        argv = ["--m", params[0], "--n", params[1], "--p", params[2], "--x", _x(rng),
                "--method", rng.choice(("series", "closed", "auto"))]
        argv += ["--compare"] * rng.randint(0, 1)
    elif command == "moment":
        n, r, alpha, beta = _gmkz_params(rng, size).args
        argv = ["--operator", rng.choice(("mkz", "ln", "gmkz")), "--n", n, "--r",
                rng.choice((r, 2)), "--x", _x(rng), "--alpha", alpha, "--beta", beta,
                "--rop", rng.choice((_signed(rng, size),
                                      int(alpha) + 1 if math.isfinite(alpha) else 1)),
                "--route", rng.choice(("closed", "series", "both"))]
    elif command == "fnj":
        argv = ["--n", _int(rng, 0, size), "--j", _int(rng, -1, size)]
        argv += rng.choice((["--x", _x(rng)], ["--emit-symbolic"],
                            ["--x", _x(rng), "--emit-symbolic"]))
    else:
        params = _heun_params(rng, size).args
        argv = ["--m", params[0], "--n", params[1], "--p", params[2], "--x", _x(rng),
                "--terms", _int(rng, 0, size)]
        argv += ["--normalized"] * rng.randint(0, 1) + ["--check-ode"] * rng.randint(0, 1)
    return [command] + [a if isinstance(a, str) else _arg(a) for a in argv]


def _reject(constant):
    raise ValueError(f"{constant} is not JSON")


def _cli_breach(argv, want_code=None):
    """What cli.main(argv) does against the contract, or None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            with numpy_quiet():
                code = cli.main(argv)
        except SystemExit as exc:  # argparse: an int flag given a float
            return None if exc.code == 2 and not out.getvalue() else f"argparse {exc.code}"
        except Exception as exc:  # noqa: BLE001 -- any other error breaks the contract
            return f"raised {type(exc).__name__}: {exc}"
    text = out.getvalue()
    if code not in (0, 1, 2) or want_code is not None and code != want_code:
        return f"exit {code}"
    if NON_FINITE_WORD.search(err.getvalue()):
        return f"message {err.getvalue()!r}"
    if text:
        try:
            json.loads(text, parse_constant=_reject)
        except ValueError as exc:
            return f"stdout {text!r}: {exc}"
        if text.count("\n") != 1 or not text.endswith("\n"):
            return f"stdout {text!r} is not one line"
    return None


def _breaches(count, seed, size):
    rng = random.Random(seed)
    names = sorted(DRAWS)
    bad = []
    for _ in range(count):
        name = rng.choice(names)
        args = DRAWS[name](rng, size)
        why = _breach(name, args)
        if why:
            bad.append((name, args, why))
    for _ in range(count // 4):
        argv = _argv(rng, size)
        why = _cli_breach(argv)
        if why:
            bad.append(("cli", argv, why))
    return bad


def test_draws_reach_every_evaluator():
    assert set(DRAWS) == set(elemhyp.__all__) - NOT_EVALUATORS


def test_contract_holds_on_seeded_draws():
    assert _breaches(400, 4801, 60) == []


@pytest.mark.sweep
@pytest.mark.parametrize("seed", range(4802, 4806))
def test_contract_holds_on_a_large_sweep(seed):
    # 10000 draws in all, in four parts of about 30 s
    assert _breaches(2500, seed, 300) == []


@pytest.mark.parametrize("name,args", [
    # partial sums that pass float range were reported as converged
    ("hyp2f1_series", (8.0, 1000.0, 301.0, 0.8381881194660705)),
    ("fnj_series", (300, 0, 0.999999)),
    ("sum_series", (Build(iter, ([1e308, 1e308, 1.0],)), Const(0.0))),
    # a * gamma underflows to 0: a bare ZeroDivisionError
    ("heun_series_oracle", (Build(HeunSpec, (87.5, 217.0, 5e-324, 156.5, 149.0,
                                             0.4999999999999999, 0.0)), -0.0)),
    # the general form's bound is inf: "rounding bound inf exceeds 1e-13"
    ("hyp2f1_closed", (Build(HypergeomParams, (256, 97.4353539954356, 264)),
                       0.9992285495778546)),
    # c_27 passes float range: returned -inf
    ("heun_coeff", (Build(HeunFamilyParams, (4, -1e308, 35)), 27)),
    # gamma + epsilon is nan, so Fuchs' check passed: a bare OverflowError
    ("heun_series_oracle", (Build(HeunSpec, (0.0, 0.0, -math.inf, 0.0, math.inf,
                                             0.5, 0.0)), 0.1)),
    # "k must be an integer, got nan"
    ("heun_coeff", (Build(HeunFamilyParams, (1, 0.5, 3)), math.nan)),
], ids=["hyp2f1_series", "fnj_series", "sum_series", "heun_series_oracle", "hyp2f1_closed",
        "heun_coeff", "heun_series_oracle-fuchs", "require_ints"])
def test_contract_holds_on_its_reproducers(name, args):
    assert _breach(name, args) is None


@pytest.mark.parametrize("argv", [
    # printed {"value": Infinity} and exited 0
    ["hyp2f1", "--m", "8", "--n", "1000", "--p", "301",
     "--x", "0.8381881194660705", "--method", "series"],
    # printed a series cut at the term cap and its rel_err, and exited 0
    ["hyp2f1", "--m", "1", "--n", "0.5", "--p", "3", "--x", "0.999999", "--compare"],
], ids=["series-past-float-range", "compare-at-the-term-cap"])
def test_cli_exits_1_on_a_series_that_is_not_converged(argv):
    assert _cli_breach(argv, want_code=1) is None
