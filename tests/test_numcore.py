"""Shared kernel: policies, factorial helpers, summation engine, power integral."""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elemhyp import (
    DEFAULT_POLICY, DomainError, EvalPolicy, InvalidParams, NonFinite,
    NotConverged, gen_binomial, pochhammer, power_integral, sum_series,
)


@pytest.mark.parametrize("kwargs", [
    {"rel_tol": 0.0},
    {"rel_tol": -1e-9},
    {"max_terms": 0},
    {"consecutive_small": 0},
])
def test_policy_rejects_bad_fields(kwargs):
    with pytest.raises(InvalidParams):
        EvalPolicy(**kwargs)


def test_policy_defaults():
    assert DEFAULT_POLICY.rel_tol == 1e-12
    assert DEFAULT_POLICY.max_terms == 100000
    assert DEFAULT_POLICY.consecutive_small == 3


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


def test_sum_series_geometric():
    def terms():
        t = 1.0
        while True:
            yield t
            t *= 0.5

    res = sum_series(terms())
    assert res.converged
    assert math.isclose(res.value, 2.0, rel_tol=1e-12)
    assert res.trunc_err_est <= 1e-12 * res.value


def test_sum_series_exhausted_source_counts_as_exact():
    res = sum_series(iter([1.0, 1e-300]))
    assert res.converged
    assert res.terms_used == 2
    assert res.value == 1.0


def test_sum_series_cap_reports_not_converged():
    res = sum_series((1.0 / (k + 1) for k in range(10**9)),
                     EvalPolicy(max_terms=10))
    assert not res.converged
    assert res.terms_used == 10


def test_sum_series_bounded_stops_on_its_tail():
    # 1/2**k with the exact tail 1/2**k after term k: the small-term rule
    # would stop at the first term below rel_tol, the bounded one only once
    # the tail is, and reports it; an unknown tail (inf) never stops
    def terms():
        k = 0
        while True:
            yield 0.5 ** k, 0.5 ** k
            k += 1

    res = sum_series(terms(), bounded=True)
    assert res.converged
    assert res.trunc_err_est <= 1e-12 * res.value
    assert abs(res.value - 2.0) <= res.trunc_err_est + 1e-15
    res = sum_series(((1.0, math.inf) for _ in range(10**9)),
                     EvalPolicy(max_terms=10), bounded=True)
    assert not res.converged
    assert res.terms_used == 10


def test_sum_series_survives_transient_zero_terms():
    res = sum_series(iter([1.0, 0.0, 0.5, 0.0, 0.0, 0.0]))
    assert res.converged
    assert res.value == 1.5


def test_sum_series_single_small_run_would_stop_early():
    res = sum_series(iter([1.0, 0.0, 0.5]), EvalPolicy(consecutive_small=1))
    assert res.value == 1.0
    assert res.terms_used == 2


def test_sum_series_rejects_non_finite_terms():
    with pytest.raises(NonFinite):
        sum_series(iter([1.0, math.inf]))
    with pytest.raises(NonFinite):
        sum_series(iter([math.nan]))


def test_sum_series_compensation_recovers_the_exact_rounding():
    # naive left-to-right summation of ten 0.1 gives 0.9999999999999999
    res = sum_series(iter([0.1] * 10), EvalPolicy(rel_tol=1e-30))
    assert res.value == math.fsum([0.1] * 10) == 1.0


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=60))
@settings(max_examples=150)
def test_sum_series_tracks_fsum(xs):
    # consecutive_small above the list length disables early stopping, so the
    # whole list is accumulated no matter how it is ordered
    res = sum_series(iter(xs), EvalPolicy(rel_tol=1e-300, consecutive_small=61))
    want = math.fsum(xs)
    assert abs(res.value - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("e", [-3.5, -1.0, 0.0, 2.0, 4.7])
@pytest.mark.parametrize("x", [0.2, 0.8])
def test_power_integral_vs_quadrature(e, x):
    got = power_integral(e, x)
    with mp.workdps(40):
        want = float(mp.quad(lambda s: mp.mpf(s)**e, [1 - x, 1]))
    assert math.isclose(got, want, rel_tol=1e-13)


def test_power_integral_log_branch():
    x = 0.5
    assert power_integral(-1.0, x) == -math.log1p(-x)
    # just off the branch the expm1 form keeps its digits, and differs from
    # the log form by about |e+1| * log(1-x)**2 / 2
    assert math.isclose(power_integral(-1.0 + 1e-10, x), -math.log1p(-x),
                        rel_tol=1e-9)


@pytest.mark.parametrize("e,x", [
    (-1.0000000008875018, 0.9999999979197085),
    (-1.0 + 2.0 ** -52, 1e-300),
])
def test_power_integral_next_to_the_branch(e, x):
    # a |e+1| < 1e-9 shortcut to the log form was off by 8.9e-9 at the
    # first point; at the second e+1 times log(1-x) is subnormal
    with mp.workdps(60):
        w = mp.mpf(e) + 1
        want = -mp.expm1(w * mp.log1p(-mp.mpf(x))) / w
        assert abs(power_integral(e, x) - want) <= 1e-15 * want


@pytest.mark.parametrize("e,x", [(-40.0, 1 - 1e-12), (-25.0, 1 - 2.0 ** -53)])
def test_power_integral_overflow_is_typed(e, x):
    # (1-x)**(e+1) passes float range: a typed error, not math's OverflowError
    with pytest.raises(NotConverged, match="overflows float range"):
        power_integral(e, x)


@pytest.mark.parametrize("x", [0.0, 1.0, -0.1, 1.5])
def test_power_integral_domain(x):
    with pytest.raises(DomainError):
        power_integral(2.0, x)
