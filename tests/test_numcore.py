"""Shared kernel: integer checks, summation engine, the flat weight series
against its composed form, series oracles near 1."""

import math
import random
import sys
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elemhyp import (
    GmkzParams, HeunFamilyParams, HypergeomParams, InvalidParams, Monomial,
    NonFinite, NotConverged, fnj_combo, fnj_series, gmkz_apply, gmkz_moment_abel,
    heun_coeff, heun_eval, heun_ode_residual, hyp2f1_closed,
    hyp2f1_eval, hyp2f1_series, ln_moment_e2, ln_moment_e2_direct, mkz_moment,
    mkz_moment_e2, polylog, polylog_derivative_series, sum_series,
)
from elemhyp.mkz import _gmkz_series
from elemhyp.numcore import _MAX_TERMS, _weight_series


@pytest.mark.parametrize("call", [
    # unchecked, each returned a value or raised a bare TypeError at some x
    lambda: hyp2f1_eval(HypergeomParams(1, 2.0, 4.5), 0.2),
    lambda: hyp2f1_eval(HypergeomParams(1.5, 2.0, 4), 0.7),
    lambda: mkz_moment(3, 2.5, 0.5),
    lambda: mkz_moment(3, 2.5, 0.95),
    lambda: mkz_moment(3.0, 2, 0.5),
    lambda: polylog(2.5, 0.3),
    lambda: polylog(2.5, 0.7),
    lambda: polylog(2.0, 0.3),
    lambda: gmkz_moment_abel(2, 1.5, 0.5, 2, 0.5),
    lambda: gmkz_moment_abel(2, 1, 0.5, 2.0, 0.5),
    lambda: gmkz_moment_abel(2.0, 1, 0.5, 2, 0.5),
    lambda: HeunFamilyParams(1, 2.0, 3.0),
    lambda: GmkzParams(2, 1.0, 0.0, 0.0),
    lambda: GmkzParams(2.0, 1, 0.0, 0.0),
    lambda: Monomial(2.0),
    lambda: fnj_combo(2, 2) and fnj_combo(2, 2.0),  # past the memo of (2, 2)
    lambda: fnj_combo(2.5, 3),
    # one shape of each closed family: general at m = 1, (1, k; p), (1, 2; p)
    lambda: hyp2f1_closed(HypergeomParams(1, 2.5, 3.0), 0.5),
    lambda: hyp2f1_closed(HypergeomParams(1.0, 3.0, 6), 0.5),
    lambda: hyp2f1_closed(HypergeomParams(1, 2.0, 4.0), 0.5),
    lambda: fnj_series(2.5, 2, 0.3),
    lambda: fnj_series(2, 2.0, 0.3),
    lambda: polylog_derivative_series(2.0, 2, 0.3),
    lambda: polylog_derivative_series(2, 2.0, 0.3),
    lambda: ln_moment_e2_direct(2.5, 0.3),
    lambda: heun_eval(HeunFamilyParams(1, 2.0, 3), 0.3, 4.0),
    lambda: heun_coeff(HeunFamilyParams(1, 2.0, 3), 2.0),
    lambda: heun_ode_residual(HeunFamilyParams(1, 2.0, 3), 0.3, 4.0),
    # at 0 these returned 0.0; elsewhere they named an internal p
    lambda: mkz_moment_e2(2.5, 0.0),
    lambda: mkz_moment_e2(2.5, 0.3),
    lambda: ln_moment_e2(1.5, 0.0),
    lambda: ln_moment_e2(1.5, 0.3),
])
def test_integer_arguments_reject_non_integers(call):
    with pytest.raises(InvalidParams, match="must be an integer"):
        call()


def no_bound(k, term):
    return math.inf


def test_sum_series_geometric():
    # 1/2**k with its exact tail 1/2**k after term k: the sum stops at the
    # first k whose tail is within 1e-17 of the partial sum (2**-56 <=
    # 1e-17 * 2), reports that tail, and asks for it only at terms already
    # that small, each with its own index
    asked = []

    def tail(k, term):
        asked.append((k, term))
        return 0.5 ** k

    res = sum_series((0.5 ** k for k in range(10**9)), tail)
    assert res.converged
    assert res.terms_used == 57
    assert res.trunc_err_est == 0.5 ** 56 <= 1e-17 * res.value
    assert abs(res.value - 2.0) <= res.trunc_err_est + 1e-15
    assert asked and all(term == 0.5 ** k <= 1e-17 * 2.0 for k, term in asked)


def test_sum_series_exhausted_source_counts_as_exact():
    # also when its last term is the cap's: no term is left over
    for count in (2, _MAX_TERMS):
        res = sum_series(iter([1.0] + [1e-300] * (count - 1)), no_bound)
        assert res.converged
        assert res.terms_used == count
        assert res.value == 1.0
        assert res.trunc_err_est == 0.0


def test_sum_series_cap_reports_not_converged():
    # the harmonic series: no term gets small enough to ask for the tail
    res = sum_series((1.0 / (k + 1) for k in range(10**9)), lambda k, term: 1.0)
    assert not res.converged
    assert res.terms_used == _MAX_TERMS
    assert res.trunc_err_est == math.inf


def test_sum_series_unknown_tail_never_stops():
    # terms far below 1e-17 of the sum, but no bound on what follows: only
    # the cap ends the sum
    res = sum_series((0.5 ** k for k in range(10**9)), no_bound)
    assert not res.converged
    assert res.terms_used == _MAX_TERMS
    assert res.value == 2.0


def test_sum_series_survives_transient_zero_terms():
    # a zero term is small, but it stops nothing without a bound on the rest
    res = sum_series(iter([1.0, 0.0, 0.5, 0.0, 0.0, 0.0]), no_bound)
    assert res.converged
    assert res.value == 1.5


def test_sum_series_rejects_non_finite_terms():
    with pytest.raises(NonFinite):
        sum_series(iter([1.0, math.inf]), no_bound)
    with pytest.raises(NonFinite):
        sum_series(iter([math.nan]), no_bound)


def test_sum_series_past_float_range_is_not_converged():
    # the terms are finite, their sum is not: the stop test compared the
    # tail bound with tol * inf and took the sum as converged
    res = sum_series(iter([1e308, 1e308, 1.0]), lambda k, t: 0.0)
    assert (res.value, res.terms_used, res.converged, res.trunc_err_est) \
        == (math.inf, 2, False, math.inf)


def test_sum_series_compensation_recovers_the_exact_rounding():
    # naive left-to-right summation of ten 0.1 gives 0.9999999999999999
    res = sum_series(iter([0.1] * 10), no_bound)
    assert res.value == math.fsum([0.1] * 10) == 1.0


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=60))
@settings(max_examples=150)
def test_sum_series_tracks_fsum(xs):
    # no tail bound: the whole list is accumulated however it is ordered
    res = sum_series(iter(xs), no_bound)
    want = math.fsum(xs)
    assert res.converged and res.terms_used == len(xs)
    assert abs(res.value - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("oracle,args,want", [
    (lambda *a: hyp2f1_series(*a).value, (10.0, -2 - 2**-40, 1.5, 0.99),
     "16.5360925308878780761791111059"),
    (lambda *a: fnj_series(*a).value, (3, 4, 0.999),
     "0.735122859134734935303872232511"),
    (ln_moment_e2_direct, (5, 0.999), "0.998001499001494137945032883997"),
], ids=["hyp2f1_series", "fnj_series", "ln_moment_e2_direct"])
def test_series_oracles_near_one_meet_rel_tol(oracle, args, want):
    # the small-term stop left these 1.2e-10, 9.4e-10 and 1.2e-9 off; the
    # tail bound stops within 1e-17, so what is left is float rounding (up
    # to 1.2e-14).  want: 30-digit direct sums of 8e4 terms
    got = oracle(*args)
    assert abs(got - float(want)) <= 2e-14 * abs(float(want))


# The composed form of numcore._weight_series: a generator of the weighted
# terms and sum_series with the rho tail bound.  The flat loop must
# reproduce it bit for bit.
def _composed_weight_series(N, x, w0, g, G):
    if w0 < sys.float_info.min:
        raise NotConverged("series weights underflow float range")
    w = w0

    def terms():
        nonlocal w
        for k in count():
            term = w * g(k)
            w *= (N + k) / (k + 1.0) * x
            yield term

    def tail(k, term):
        rho = x * (N + k + 1) / (k + 2.0)
        if w == 0.0 or (w < sys.float_info.min and x >= 0.5 and rho < 1.0
                        and w * ((N + k + 1) / (k + 2.0) * x) == w):
            return 0.0  # underflowed, or stuck at a subnormal
        return G(k) * w / (1.0 - rho) if rho < 1.0 else math.inf

    res = sum_series(terms(), tail)
    if not res.converged:
        raise NotConverged("series did not converge")
    return res


def _composed_gmkz_series(params, f, x):
    n, r, a, b = params.n, params.r, params.alpha, params.beta
    if isinstance(f, Monomial):
        m = f.r
        g, G = (lambda k: ((k + b) / (n + k + a)) ** m), (lambda k: 1.0)
    else:
        largest = 0.0

        def g(k):
            nonlocal largest
            fk = f((k + b) / (n + k + a))
            largest = max(largest, abs(fk))
            return fk

        G = lambda k: largest or math.inf
    return _composed_weight_series(n + r, x, (1.0 - x) ** (n + r), g, G)


def _composed_fnj_series(n, j, x):
    return _composed_weight_series(n + 1, x, 1.0, lambda k: float(n + k) ** -j,
                                   lambda k: float(n + k + 1) ** -j)


def _composed_ln_moment_e2_direct(n, x):
    return _composed_weight_series(
        n + 1, x, (1.0 - x) ** (n + 1),
        lambda k: k * (k + 1.0) / ((n + k) * (n + k + 1.0)), lambda k: 1.0).value


def _zero(t):
    return 0.0


# f for the operator series: sign changes, zero at every node, and an inf
# or nan past some node
_GENERAL_F = (
    lambda t: math.cos(9.0 * t),
    lambda t: t - 0.5,
    lambda t: (-1.0) ** round(40.0 * t) * t,
    _zero,
    lambda t: math.inf if t > 0.6 else t,
    lambda t: math.nan if t > 0.8 else 1.0 - t,
)


def _outcome(f, *args):
    """repr of f's result, which shows every field and tells every float
    bit and numpy scalars apart, or the type and message of its error."""
    try:
        return repr(f(*args))
    except (NonFinite, NotConverged) as exc:
        return type(exc).__name__, str(exc)


def _weight_series_points(count, seed):
    """(flat, composed, args) over the operator series (a Monomial with
    integer and real alpha and beta, r < 0 with n + r >= 1, and general f),
    fnj_series and ln_moment_e2_direct; x from 0 and subnormal-small up to
    0.98, and n large enough that (1-x)**N or a kernel weight leaves float
    range."""
    rng = random.Random(seed)
    for _ in range(count):
        x = rng.choice((rng.uniform(0.0, 0.9), rng.uniform(0.0, 0.9),
                        10.0 ** rng.uniform(-320.0, -1.0), 0.0, rng.uniform(0.9, 0.98)))
        n = rng.choice((rng.randint(1, 40), rng.randint(1, 40), rng.randint(100, 1200)))
        if x > 0.9:
            n = rng.randint(1, 12)  # ~(N+50)/(1-x) terms
        kind = rng.randrange(4)
        if kind < 2:
            r = rng.randint(1 - n, 12)
            alpha = rng.choice((float(rng.randint(0, 12)), rng.uniform(0.0, 12.0),
                                rng.randint(0, 12)))
            beta = rng.choice((0.0, float(rng.randint(0, int(alpha))),
                               rng.uniform(0.0, alpha)))
            f = Monomial(rng.randint(0, 8)) if kind == 0 else rng.choice(_GENERAL_F)
            yield _gmkz_series, _composed_gmkz_series, (GmkzParams(n, r, alpha, beta), f, x)
        elif kind == 2:
            yield fnj_series, _composed_fnj_series, (n, rng.randint(0, 8), x)
        elif x > 0.0:
            yield ln_moment_e2_direct, _composed_ln_moment_e2_direct, (n, x)


def _weight_series_mismatches(count, seed):
    return [(flat.__name__, args) for flat, composed, args in _weight_series_points(count, seed)
            if _outcome(flat, *args) != _outcome(composed, *args)]


def test_flat_weight_series_matches_the_composed_form():
    assert _weight_series_mismatches(600, 3901) == []


@pytest.mark.sweep
def test_flat_weight_series_matches_the_composed_form_on_a_large_sweep():
    assert _weight_series_mismatches(20000, 3902) == []


@pytest.mark.parametrize("args,want", [
    # (1-x)**N below the smallest normal float
    ((GmkzParams(600, 0, 0.0, 0.0), Monomial(4), 0.8),
     ("NotConverged", "series weights underflow float range")),
    # the weights underflow to 0 after two terms: the tail bound is 0.0
    ((GmkzParams(3, 1, 0.0, 0.0), Monomial(2), 1e-300), 0.0),
    # f is 0 at every node: no bound until the weights underflow to 0
    ((GmkzParams(3, 1, 0.5, 0.5), _zero, 0.3), 0.0),
    # the term cap
    ((GmkzParams(1, 0, 0.5, 0.0), Monomial(1), 1.0 - 1e-6),
     ("NotConverged", "series did not converge")),
    # an inf and a nan node value, at the index of its term
    ((GmkzParams(2, 1, 0.0, 0.0), lambda t: math.inf if t > 0.5 else t, 0.7),
     ("NonFinite", "non-finite term at index 3")),
    ((GmkzParams(2, 1, 1.5, 0.5), lambda t: math.nan if t > 0.5 else t, 0.7),
     ("NonFinite", "non-finite term at index 3")),
], ids=["w0-subnormal", "weights-underflow", "f-zero", "cap", "inf", "nan"])
def test_flat_weight_series_matches_the_composed_form_at_its_edges(args, want):
    got = _outcome(_gmkz_series, *args)
    assert got == _outcome(_composed_gmkz_series, *args)
    if isinstance(want, tuple):
        assert got == want
    else:
        res = _gmkz_series(*args)
        assert res.converged and res.trunc_err_est == want


@pytest.mark.parametrize("x", [0.5, 0.7, 0.95])
def test_operator_series_of_zero_is_zero_past_one_half(x):
    # from x = 1/2 up the weights stop at a subnormal, which counts as
    # underflowed: the tail bound is then 0.0
    res = _gmkz_series(GmkzParams(3, 1, 0.5, 0.5), _zero, x)
    assert res.converged and res.value == 0.0 and res.trunc_err_est == 0.0
    assert _outcome(_gmkz_series, GmkzParams(3, 1, 0.5, 0.5), _zero, x) \
        == _outcome(_composed_gmkz_series, GmkzParams(3, 1, 0.5, 0.5), _zero, x)


def test_operator_series_of_zero_at_0_999_stops_at_the_term_cap():
    # the weights are still ~6e-42, far from subnormal, after 1e5 terms:
    # with no bound on f there is no tail bound before the cap
    with pytest.raises(NotConverged, match="series did not converge"):
        _gmkz_series(GmkzParams(3, 1, 0.5, 0.5), _zero, 0.999)


def test_flat_weight_series_matches_the_composed_form_for_the_kernels():
    # a kernel weight C(n+k, k) x**k past float range; a w0 below it
    assert _outcome(fnj_series, 1000, 0, 0.9) == _outcome(_composed_fnj_series, 1000, 0, 0.9) \
        == ("NonFinite", "non-finite term at index 333")
    tiny = (5, 0.5, 1e-310, lambda k: 1.0, lambda k: 1.0)
    assert _outcome(_weight_series, *tiny) == _outcome(_composed_weight_series, *tiny) \
        == ("NotConverged", "series weights underflow float range")


def test_flat_weight_series_past_float_range_raises():
    # sum_k C(300+k, k) x**k = (1-x)**-301: the partial sum passes float
    # range while every term is finite; it was returned as converged
    assert _outcome(fnj_series, 300, 0, 0.999999) \
        == _outcome(_composed_fnj_series, 300, 0, 0.999999) \
        == ("NotConverged", "series did not converge")


def test_weight_series_sums_are_python_floats_for_numpy_parameters():
    # sum_series made every term a float; the flat loop converts x and w0
    # once and every value of a callable, so no numpy scalar reaches a sum
    np = pytest.importorskip("numpy")
    x = np.float64(0.4)
    assert type(mkz_moment(5, 3, x)) is float
    assert mkz_moment(5, 3, x) == mkz_moment(5, 3, 0.4)
    params = GmkzParams(3, 2, 1.5, 0.5)
    results = [(gmkz_apply(params, f, x), gmkz_apply(params, f, 0.4))
               for f in (Monomial(3), lambda t: np.cos(np.float64(7.0) * t))]
    results.append((fnj_series(3, 2, x), fnj_series(3, 2, 0.4)))
    for got, want in results:
        assert all(type(v) is float for v in (got.value, got.trunc_err_est, got.abs_sum))
        assert got == want
