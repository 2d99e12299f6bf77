"""Shared kernel: integer checks, factorial helpers, summation engine."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elemhyp import (
    GmkzParams, HeunFamilyParams, HypergeomParams, InvalidParams, Monomial,
    NonFinite, fnj_base, fnj_combo, fnj_series, gen_binomial, gmkz_moment_abel,
    heun_coeff, heun_eval, heun_params_from, heun_series_oracle,
    hyp2f1_closed_12, hyp2f1_closed_1m, hyp2f1_closed_m1, hyp2f1_eval,
    hyp2f1_series, ln_moment_e2, ln_moment_e2_direct, mkz_moment,
    mkz_moment_e2, pochhammer, polylog, polylog_derivative_series, sum_series,
)
from elemhyp.numcore import _MAX_TERMS


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
    lambda: HeunFamilyParams(1, 2.0, 3.0),
    lambda: GmkzParams(2, 1.0, 0.0, 0.0),
    lambda: GmkzParams(2.0, 1, 0.0, 0.0),
    lambda: Monomial(2.0),
    lambda: fnj_combo(2, 2) and fnj_combo(2, 2.0),  # past the memo of (2, 2)
    lambda: fnj_combo(2.5, 3),
    lambda: hyp2f1_closed_m1(2.0, 3.0, 0.5),
    lambda: hyp2f1_closed_1m(1, 2.0, 0.5),
    lambda: hyp2f1_closed_12(2.0, 0.5),
    lambda: fnj_base(2.5, 0),
    lambda: fnj_series(2.5, 2, 0.3),
    lambda: polylog_derivative_series(2.0, 2, 0.3),
    lambda: ln_moment_e2_direct(2.5, 0.3),
    lambda: heun_eval(HeunFamilyParams(1, 2.0, 3), 0.3, 4.0),
    lambda: heun_coeff(HeunFamilyParams(1, 2.0, 3), 2.0),
    lambda: heun_series_oracle(heun_params_from(HeunFamilyParams(1, 2.0, 3)), 0.3, 40.0),
    lambda: pochhammer(1.5, 2.0),
    lambda: gen_binomial(1.5, 2.0),
    # at 0 these returned 0.0; elsewhere they named an internal p
    lambda: mkz_moment_e2(2.5, 0.0),
    lambda: mkz_moment_e2(2.5, 0.3),
    lambda: ln_moment_e2(1.5, 0.0),
    lambda: ln_moment_e2(1.5, 0.3),
])
def test_integer_arguments_reject_non_integers(call):
    with pytest.raises(InvalidParams, match="must be an integer"):
        call()


def test_pochhammer_values():
    assert pochhammer(3.0, 4) == 360.0
    assert pochhammer(-2.5, 2) == 3.75
    assert pochhammer(7.25, 0) == 1.0
    with pytest.raises(InvalidParams):
        pochhammer(1.0, -1)


@given(st.floats(min_value=-50, max_value=50), st.integers(min_value=0, max_value=20))
def test_pochhammer_recurrence(r, m):
    assert pochhammer(r, m + 1) == pochhammer(r, m) * (r + m)


def test_gen_binomial_values():
    assert gen_binomial(5.0, 2) == 10.0
    assert gen_binomial(-1.5, 3) == -2.1875
    assert gen_binomial(3.0, 5) == 0.0  # integer upper index below the order
    with pytest.raises(InvalidParams):
        gen_binomial(1.0, -2)


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
