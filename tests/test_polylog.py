"""Polylogarithms and the shifted derivative series."""

import math
import threading
import time
from fractions import Fraction

import mpmath as mp
import pytest

from elemhyp import (
    DomainError, EvalPolicy, InvalidParams, NotConverged, polylog,
    polylog_derivative_series,
)
from elemhyp import _dd
from elemhyp.polylog import (
    _LOG_SERIES_FROM, _fraction_dd, _polylog_dd, _polylog_log_series,
    _polylog_power_series, _x_parts, _zeta,
)

TIGHT = EvalPolicy(rel_tol=1e-14)


def test_order_one_is_the_logarithm():
    for x in (-0.5, 0.3, 0.9):
        assert polylog(1, x) == -math.log1p(-x)


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("x", [-0.9, -0.3, 0.2, 0.7, 0.99])
def test_polylog_vs_mpmath(k, x):
    with mp.workdps(40):
        want = float(mp.polylog(k, mp.mpf(x)))
    assert math.isclose(polylog(k, x), want, rel_tol=1e-11)


@pytest.mark.parametrize("k", [2, 3, 5, 13])
@pytest.mark.parametrize("x", [
    -1.0, -0.999999, -0.9999, -0.6, -0.3,
    0.999, 0.9999, 0.99999, 1.0 - 1e-6, 1.0 - 1e-9,
])
def test_polylog_edge_grid_vs_mpmath(k, x):
    # the double-double core rounded once, also next to +-1, where a float
    # series stopping on small terms loses digits or does not converge
    with mp.workdps(50):
        want = mp.polylog(k, mp.mpf(x))
        assert abs(polylog(k, x) - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("x", [-0.9999999925485519, -0.9999999925497657])
def test_polylog_below_zero_carries_the_rounding_of_the_square(x):
    # x*x rounds by about half an ulp here, which Li_2's slope next to 1
    # would amplify to ~6e-16 if the duplication formula ignored it
    with mp.workdps(50):
        want = mp.polylog(2, mp.mpf(x))
        assert abs(polylog(2, x) - want) <= 1e-16 * abs(want)


def test_polylog_at_the_unit_edge():
    with mp.workdps(40):
        assert math.isclose(polylog(2, 1.0), float(mp.zeta(2)), rel_tol=1e-9)
        assert math.isclose(polylog(3, 1.0), float(mp.zeta(3)), rel_tol=1e-10)
        assert math.isclose(polylog(5, 1.0), float(mp.zeta(5)), rel_tol=1e-12)


@pytest.mark.parametrize("k", range(2, 9))
def test_polylog_at_one_is_zeta_to_an_ulp(k):
    with mp.workdps(40):
        want = float(mp.zeta(k))
    assert abs(polylog(k, 1.0) - want) <= math.ulp(want)


def test_polylog_domain():
    with pytest.raises(InvalidParams):
        polylog(0, 0.5)
    with pytest.raises(DomainError):
        polylog(1, 1.0)  # divergent
    with pytest.raises(DomainError):
        polylog(2, 1.0000001)
    with pytest.raises(DomainError):
        polylog(2, -1.01)
    polylog(2, 1.0 - 1e-9)
    polylog(2, -1.0)


@pytest.mark.parametrize("j,d,x", [
    (0, 2, 0.3), (1, 1, 0.2), (2, 3, 0.6), (3, 2, 0.5), (4, 4, 0.4),
])
def test_derivative_series_vs_mpmath(j, d, x):
    got = polylog_derivative_series(j, d, x, TIGHT)
    with mp.workdps(40):
        want = float(mp.nsum(
            lambda k: mp.factorial(d) * mp.binomial(k + d, d)
            * mp.mpf(x)**k / (k + d)**j, [0, mp.inf]))
    assert math.isclose(got, want, rel_tol=1e-11)


def _stirling1(d):
    """Signed Stirling numbers of the first kind s(d, i), i = 0..d."""
    row = [1]
    for k in range(d):
        nxt = [0] * (len(row) + 1)
        for i, v in enumerate(row):
            nxt[i + 1] += v
            nxt[i] -= k * v
        row = nxt
    return row


@pytest.mark.parametrize("j,d,x", [
    (3, 10, 0.5), (3, 20, 0.99), (6, 20, 0.999), (2, 5, 0.9999),
])
def test_derivative_series_next_to_one(j, d, x):
    # Li_j^(d)(x) = x**(-d) sum_i s(d,i) Li_{j-i}(x) (DLMF 26.8), an
    # independent reference; the series stopped short at the first three
    # points and did not converge at the last
    got = polylog_derivative_series(j, d, x)
    with mp.workdps(60):
        X = mp.mpf(x)
        want = X**(-d) * mp.fsum(s * mp.polylog(j - i, X)
                                 for i, s in enumerate(_stirling1(d)))
        assert abs(got - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("j,d,x", [(1, 5, 0.999), (0, 3, 0.999), (1, 2, 0.9999)])
def test_derivative_series_low_orders_are_closed(j, d, x):
    # (Li_1)^(d) = (d-1)!/(1-x)**d and (Li_0)^(d) = d!/(1-x)**(d+1), against
    # the Stirling form; a series stopping on small terms was off by 1.1e-9
    # at the first two points and did not converge at the last
    got = polylog_derivative_series(j, d, x)
    with mp.workdps(60):
        X = mp.mpf(x)
        want = X**(-d) * mp.fsum(s * mp.polylog(j - i, X)
                                 for i, s in enumerate(_stirling1(d)))
        assert abs(got - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("j,d,x", [(0, 60, 1 - 1e-6), (1, 60, 1 - 1e-6), (0, 100, 0.99)])
def test_derivative_series_low_orders_raise_past_float_range(j, d, x):
    # (1-x)**d over- or underflows, or d! times the kernel overflows: a
    # typed error, not OverflowError, ZeroDivisionError or inf
    with pytest.raises(NotConverged):
        polylog_derivative_series(j, d, x)


def test_derivative_series_order_zero_closed_form():
    # j = 0 collapses to d! / (1-x)**(d+1)
    for d in (1, 2, 5):
        x = 0.35
        got = polylog_derivative_series(0, d, x, TIGHT)
        want = math.factorial(d) / (1.0 - x) ** (d + 1)
        assert math.isclose(got, want, rel_tol=1e-12)


def test_derivative_series_validation():
    with pytest.raises(InvalidParams):
        polylog_derivative_series(-1, 2, 0.5)
    with pytest.raises(InvalidParams):
        polylog_derivative_series(2, 0, 0.5)
    with pytest.raises(DomainError):
        polylog_derivative_series(2, 2, 1.0)
    with pytest.raises(NotConverged):
        polylog_derivative_series(2, 1, 0.3, EvalPolicy(max_terms=4))


def test_internal_dd_polylog_precision():
    with mp.workdps(60):
        want = mp.polylog(2, mp.mpf(0.5))
        hi, lo = _polylog_dd(2, 0.5)
        got = mp.mpf(hi) + mp.mpf(lo)
        assert abs(got - want) / abs(want) < 1e-30


def _dd_rel_err(got, want):
    return abs(mp.mpf(got[0]) + mp.mpf(got[1]) - want) / abs(want)


@pytest.mark.parametrize("k", [2, 3, 5, 8, 11, 13])
@pytest.mark.parametrize("x", [
    0.01, 0.3, math.nextafter(_LOG_SERIES_FROM, 0.0), _LOG_SERIES_FROM, 0.75,
    0.9, 0.99, 0.999, 0.99999, 1.0 - 1e-6,
], ids=["0.01", "0.3", "below-switch", "switch", "0.75", "0.9", "0.99",
        "0.999", "0.99999", "1-1e-6"])
def test_internal_dd_polylog_vs_mpmath(k, x):
    with mp.workdps(60):
        assert _dd_rel_err(_polylog_dd(k, x), mp.polylog(k, mp.mpf(x))) < 1e-30


@pytest.mark.parametrize("k", [2, 5, 13])
@pytest.mark.parametrize("x", [0.5, 0.55, 0.59, 0.6, 0.61, 0.65, 0.7])
def test_dd_polylog_branches_agree_around_the_switch(k, x):
    power = _polylog_power_series(k, x)
    with mp.workdps(60):
        want = mp.mpf(power[0]) + mp.mpf(power[1])
        assert _dd_rel_err(_polylog_log_series(k, x), want) < 1e-30


@pytest.mark.parametrize("x", [0.4234567891, 0.8234567891])
def test_dd_polylog_is_independent_of_the_order_of_orders(x):
    # every order k at one x reads the same per-x parts (log x, log(-log x),
    # the power tables), however far an earlier order grew them
    values = []
    for orders in (range(2, 13), range(12, 1, -1)):
        _polylog_dd.cache_clear()
        _x_parts.cache_clear()
        values.append({k: _polylog_dd(k, x) for k in orders})
    assert values[0] == values[1]


def test_dd_polylog_threads_share_the_x_parts_safely(monkeypatch):
    # four threads (more than the cores) ask for the orders at one fresh x
    # at once, half ascending, half descending.  Every dd_mul of the
    # double-double core first yields to the other threads, so table
    # growths interleave: a growth lost to a race appends a power twice and
    # shifts every later one, which the single-thread values expose.
    original = _dd.dd_mul

    def yielding(a, b):
        time.sleep(0)
        return original(a, b)

    reference, results = {}, []
    for x in (0.4134, 0.8134):
        _polylog_dd.cache_clear()
        _x_parts.cache_clear()
        reference[x] = {k: _polylog_dd(k, x) for k in range(2, 13)}
    monkeypatch.setattr(_dd, "dd_mul", yielding)
    for x in reference:
        _polylog_dd.cache_clear()
        _x_parts.cache_clear()
        barrier = threading.Barrier(4)

        def work(orders, x=x, barrier=barrier):
            barrier.wait()
            results.append((x, {k: _polylog_dd.__wrapped__(k, x) for k in orders}))

        threads = [threading.Thread(target=work, args=(orders,))
                   for orders in [range(2, 13), range(12, 1, -1)] * 2]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    _polylog_dd.cache_clear()
    _x_parts.cache_clear()
    assert len(results) == 8
    assert all(values == reference[x] for x, values in results)


@pytest.mark.parametrize("s", range(2, 41))
def test_dd_zeta_vs_mpmath(s):
    with mp.workdps(60):
        assert _dd_rel_err(_fraction_dd(_zeta(s)), mp.zeta(s)) < 1e-31


@pytest.mark.parametrize("n", range(41))
def test_zeta_at_nonpositive_integers_is_exact(n):
    # zeta(-n) = (-1)**n B_{n+1} / (n+1), with mpmath's exact Bernoulli numbers
    want = (-1) ** n * Fraction(*mp.bernfrac(n + 1)) / (n + 1)
    assert _zeta(-n) == want
    with mp.workdps(60):
        assert abs(mp.zeta(-n) - mp.mpf(want.numerator) / want.denominator) \
            <= mp.mpf(10) ** -50 * abs(mp.zeta(-n))
