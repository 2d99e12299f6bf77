"""Polylogarithms and the shifted derivative series."""

import math
import threading
import time
from fractions import Fraction

import mpmath as mp
import pytest

from elemhyp import (
    DomainError, HypergeomParams, InvalidParams, NotConverged,
    combo_eval, fnj_combo, hyp2f1_eval, polylog, polylog_derivative_series,
)
from elemhyp import _dd
from elemhyp.mkz import _gmkz_closed
from elemhyp.polylog import (
    _LOG_SERIES_FROM, _polylog_dd, _polylog_log_series,
    _polylog_power_series, _zeta,
)



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


@pytest.mark.parametrize("k", [2, 3, 13])
def test_polylog_below_zero_down_to_subnormal_squares(k):
    # x*x and its exact error from dd_mul, also where x*x is subnormal
    # (|x| < 1.5e-154) or rounds to 0 (|x| < 1.6e-162)
    with mp.workdps(40):
        for e in range(-323, 0, 3):
            for m in (1.0, 3.3):
                x = -m * 10.0 ** e
                want = mp.polylog(k, mp.mpf(x))
                assert abs(polylog(k, x) - want) <= 2.0 ** -52 * abs(want), x


def test_polylog_at_the_unit_edge():
    with mp.workdps(40):
        assert math.isclose(polylog(2, 1.0), float(mp.zeta(2)), rel_tol=1e-9)
        assert math.isclose(polylog(3, 1.0), float(mp.zeta(3)), rel_tol=1e-10)
        assert math.isclose(polylog(5, 1.0), float(mp.zeta(5)), rel_tol=1e-12)


@pytest.mark.parametrize("k", [*range(2, 9), 40, 100, 168, 3000, 10 ** 4])
def test_polylog_at_one_is_zeta_to_an_ulp(k):
    # from order 40 on, zeta(k) is the power series at x = 1, seven terms or
    # fewer: an exact zeta per order took 0.41 s at k = 3000
    _polylog_dd.cache_clear()
    start = time.perf_counter()
    got = polylog(k, 1.0)
    assert time.perf_counter() - start < 0.01
    with mp.workdps(40):
        want = float(mp.zeta(k))
    assert abs(got - want) <= math.ulp(want)


@pytest.mark.parametrize("k", [168, 171, 172, 996, 997, 1100])
@pytest.mark.parametrize("x", [0.5, 0.7, 0.95, 1.0 - 1e-9, -0.5])
def test_polylog_at_large_orders(k, x):
    # Li_k(x) ~ x here.  The log series' (k-1)! passes Dekker's split from
    # k = 168 and the power series' 2**k from k = 997: the sum hung, or
    # raised a bare OverflowError from k = 172 and at k = 997
    start = time.perf_counter()
    got = polylog(k, x)
    assert time.perf_counter() - start < 1.0
    with mp.workdps(60):
        want = mp.polylog(k, mp.mpf(x))
    assert abs(got - want) <= math.ulp(float(want))


def test_polylog_at_a_huge_order_stops_before_its_power():
    # Li_k(1/2) = 1/2 + 2**-k + ... rounds to 1/2; the power series formed
    # 2**k in full (0.6 s and 57 MB here) before it found it past 2**996
    _polylog_dd.cache_clear()
    start = time.perf_counter()
    got = polylog(10**8, 0.5)
    assert time.perf_counter() - start < 0.01
    assert got == 0.5


def test_dd_polylog_on_both_sides_of_the_log_series_orders():
    # k = 39 is the last order the log series takes from x = 0.6 up
    for k in (39, 40):
        for x in (0.6, 0.95, 1.0 - 1e-9, 1.0):
            with mp.workdps(60):
                want = mp.polylog(k, mp.mpf(x))
                got = _polylog_dd(k, x)
                assert abs(mp.mpf(got[0]) + mp.mpf(got[1]) - want) <= 1e-31 * want


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
    got = polylog_derivative_series(j, d, x)
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
        got = polylog_derivative_series(0, d, x)
        want = math.factorial(d) / (1.0 - x) ** (d + 1)
        assert math.isclose(got, want, rel_tol=1e-12)


def test_derivative_series_validation():
    with pytest.raises(InvalidParams):
        polylog_derivative_series(-1, 2, 0.5)
    with pytest.raises(InvalidParams):
        polylog_derivative_series(2, 0, 0.5)
    with pytest.raises(DomainError):
        polylog_derivative_series(2, 2, 1.0)
    # the combo's (1-x)**30 underflows; the derivative is ~1e392
    with pytest.raises(NotConverged):
        polylog_derivative_series(2, 30, 1 - 1e-12)


def test_derivative_series_raises_where_the_factorial_passes_float_range():
    # d! times the kernel: at d = 170 this returned inf, and from d = 171,
    # where d! itself is past float range, it raised a bare OverflowError.
    # At (1, 10000, 0.5), (1-x)**d is 0.0
    # At (2, 3000, 0.3) and (3, 10000, 0.1) a series weight passes float
    # range too, which the series reports as a non-finite term
    for j, d, x in ((2, 170, 0.3), (2, 171, 0.3), (2, 171, 0.95), (5, 200, 0.4),
                    (1, 10000, 0.5), (2, 3000, 0.3), (3, 10000, 0.1)):
        with pytest.raises(NotConverged, match="derivative overflows float range"):
            polylog_derivative_series(j, d, x)
    # within range the closed kernels (j <= 1), the series (x < 1/2) and the
    # combo are bit for bit what they were when the guard was per kernel
    for j, d, x, want in ((0, 3, 0.3, 24.98958767180342), (1, 3, 0.3, 5.830903790087465),
                          (2, 5, 0.3, 21.088087358236294), (2, 5, 0.7, 680.9716359813051)):
        assert polylog_derivative_series(j, d, x) == want


def test_derivative_series_first_order_at_the_edge_of_float_range():
    # (Li_1)^(d) = (d-1)!/(1-x)**d at the largest x below 1, 1-x = 2**-53:
    # d = 18 is within float range, d = 19 past it.  At x = 0.999,
    # (1-x)**103 is subnormal, and 102! over it passes float range
    x = 1.0 - 2.0 ** -53
    got = polylog_derivative_series(1, 18, x)
    want = math.factorial(17) * Fraction(2) ** (53 * 18)
    assert abs(Fraction(got) - want) <= 2.0 ** -52 * want
    for d, x in ((19, x), (103, 0.999)):
        with pytest.raises(NotConverged, match="overflows float range"):
            polylog_derivative_series(1, d, x)


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


@pytest.mark.parametrize("k", [2, 12, 39, 40, 100, 167, 168, 1000])
@pytest.mark.parametrize("x", [0.3, 0.6, 0.95, 1.0 - 1e-9, 1.0])
def test_dd_polylog_one_rule_vs_mpmath(k, x):
    # the three branches below order 40 and the power series from there on,
    # x = 1 included
    with mp.workdps(60):
        want = mp.zeta(k) if x == 1.0 else mp.polylog(k, mp.mpf(x))
        assert _dd_rel_err(_polylog_dd(k, x), want) < 1e-31


@pytest.mark.parametrize("k", [2, 5, 13])
@pytest.mark.parametrize("x", [0.5, 0.55, 0.59, 0.6, 0.61, 0.65, 0.7])
def test_dd_polylog_branches_agree_around_the_switch(k, x):
    power = _polylog_power_series(k, x)
    with mp.workdps(60):
        want = mp.mpf(power[0]) + mp.mpf(power[1])
        assert _dd_rel_err(_polylog_log_series(k, x), want) < 1e-30


def _fresh_x():
    _polylog_dd.cache_clear()
    _dd.context.cache_clear()


@pytest.mark.parametrize("k,x,terms", [
    (2, math.nextafter(0.6, 0.0), 131),  # the worst case _polylog_dd gives it
    (39, math.nextafter(0.6, 0.0), 7),
    (40, 1.0, 7),  # from order 40 on at every x
    (40, 0.999999, 7),
    (1000, 1.0, 1),
])
def test_dd_polylog_power_series_term_counts(k, x, terms):
    # the power series has no term cap: it is taken only where it ends
    # within 131 terms, as its docstring states; the x table of a fresh
    # context grows to the last term's power
    _fresh_x()
    _polylog_power_series(k, x)
    assert len(_dd.context(x).xpows(0)) - 1 == terms


@pytest.mark.parametrize("x", [0.4234567891, 0.8234567891])
def test_dd_polylog_is_independent_of_the_order_of_orders(x):
    # every order k at one x reads the same per-x parts (log x, log(-log x),
    # the power tables), however far an earlier order grew them
    values = []
    for orders in (range(2, 13), range(12, 1, -1)):
        _fresh_x()
        values.append({k: _polylog_dd(k, x) for k in orders})
    assert values[0] == values[1]


def _at_one_x(x, orders):
    """The orders of Li_k at x and, from x = 0.9 up, first a closed moment
    and a closed 2F1: everything that reads the shared context(x)."""
    values = {}
    if x >= 0.9:
        value, bound = _gmkz_closed(7, 5, 0.5, 4, x)
        assert _dd.certified(value, bound)
        values["moment"] = value
        values["2f1"] = hyp2f1_eval(HypergeomParams(3, 2.5, 8), x)
    values.update((k, _polylog_dd.__wrapped__(k, x)) for k in orders)
    return values


def test_dd_polylog_threads_share_the_x_parts_safely(monkeypatch):
    # four threads (more than the cores) evaluate at one fresh x at once,
    # half with the orders ascending, half descending; at x = 0.9134 each
    # first takes a closed moment and a closed 2F1, which grow the x and 1-x
    # tables of the same context.  Every dd_mul of _dd first yields to the
    # other threads, so table growths interleave: a growth lost to a race
    # appends a power twice and shifts every later one, which the
    # single-thread values expose.
    original = _dd.dd_mul

    def yielding(a, b):
        time.sleep(0)
        return original(a, b)

    reference, results = {}, []
    for x in (0.4134, 0.8134, 0.9134):
        _fresh_x()
        reference[x] = _at_one_x(x, range(2, 13))
    monkeypatch.setattr(_dd, "dd_mul", yielding)
    for x in reference:
        _fresh_x()
        barrier = threading.Barrier(4)

        def work(orders, x=x, barrier=barrier):
            barrier.wait()
            results.append((x, _at_one_x(x, orders)))

        threads = [threading.Thread(target=work, args=(orders,))
                   for orders in [range(2, 13), range(12, 1, -1)] * 2]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    _fresh_x()
    assert len(results) == 12
    assert all(values == reference[x] for x, values in results)


def test_closed_evaluations_at_one_x_form_the_logs_once(monkeypatch):
    # log(1-x), log x and log(-log x) belong to the per-x context: after one
    # closed evaluation at x, others at that x (other shapes, orders or
    # kernels) make no dd_log call
    calls = []

    def counting(y):
        calls.append(y)
        return original(y)

    original = _dd.dd_log
    monkeypatch.setattr(_dd, "dd_log", counting)
    _fresh_x()
    x = 0.9273
    _at_one_x(x, range(2, 6))
    assert calls
    calls.clear()
    hyp2f1_eval(HypergeomParams(4, 1.5, 9), x)
    _gmkz_closed(6, 4, 0.0, 3, x)
    combo_eval(fnj_combo(5, 4), x)
    _polylog_dd.__wrapped__(5, x)
    _fresh_x()
    assert calls == []


@pytest.mark.parametrize("s", range(2, 41))
def test_dd_zeta_vs_mpmath(s):
    with mp.workdps(60):
        z = _zeta(s)
        assert _dd_rel_err(_dd.dd_from_ratio(z.numerator, z.denominator), mp.zeta(s)) < 1e-31


@pytest.mark.parametrize("n", range(41))
def test_zeta_at_nonpositive_integers_is_exact(n):
    # zeta(-n) = (-1)**n B_{n+1} / (n+1), with mpmath's exact Bernoulli numbers
    want = (-1) ** n * Fraction(*mp.bernfrac(n + 1)) / (n + 1)
    assert _zeta(-n) == want
    with mp.workdps(60):
        assert abs(mp.zeta(-n) - mp.mpf(want.numerator) / want.denominator) \
            <= mp.mpf(10) ** -50 * abs(mp.zeta(-n))
