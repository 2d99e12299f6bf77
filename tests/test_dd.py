"""Double-double kernel: exactness of the splits and error bounds of the ops."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from elemhyp._dd import (
    ClosedFormContext, _two_prod, _two_sum, dd, dd_add, dd_div, dd_exp, dd_expm1,
    dd_from_int, dd_from_ratio, dd_log, dd_mul, dd_neg, dd_npow, dd_sqrt,
    dd_sub, dd_to_float, power_integral_dd,
)


def to_frac(v):
    return Fraction(v[0]) + Fraction(v[1])


def rel_vs_mp(v, ref, dps=60):
    with mp.workdps(dps):
        got = mp.mpf(v[0]) + mp.mpf(v[1])
        return float(abs(got - ref) / abs(ref))


@given(st.floats(min_value=-1e150, max_value=1e150),
       st.floats(min_value=-1e150, max_value=1e150))
def test_two_sum_is_exact(a, b):
    hi, lo = _two_sum(a, b)
    assert hi == a + b
    assert Fraction(hi) + Fraction(lo) == Fraction(a) + Fraction(b)


@given(st.floats(min_value=-1e80, max_value=1e80),
       st.floats(min_value=-1e80, max_value=1e80))
def test_two_prod_is_exact(a, b):
    assume(a == 0.0 or abs(a) > 1e-80)
    assume(b == 0.0 or abs(b) > 1e-80)
    hi, lo = _two_prod(a, b)
    assert hi == a * b
    assert Fraction(hi) + Fraction(lo) == Fraction(a) * Fraction(b)


_rationals = st.builds(
    Fraction,
    st.integers(min_value=-999, max_value=999),
    st.integers(min_value=1, max_value=999),
)

# 2**-100 ~ 8e-31: comfortably above the per-op bound, far below float64
_DD_EPS = Fraction(1, 2**100)


@given(_rationals, _rationals)
@settings(max_examples=200)
def test_dd_field_ops_match_fraction(p, q):
    dp = dd_from_ratio(p.numerator, p.denominator)
    dq = dd_from_ratio(q.numerator, q.denominator)
    cases = [(dd_add(dp, dq), p + q), (dd_sub(dp, dq), p - q),
             (dd_mul(dp, dq), p * q)]
    if q != 0:
        cases.append((dd_div(dp, dq), p / q))
    for got, want in cases:
        err = abs(to_frac(got) - want)
        assert err <= abs(want) * _DD_EPS + _DD_EPS


def test_dd_embed_and_int():
    assert dd(0.6) == (0.6, 0.0)
    assert to_frac(dd_from_int(3**40)) == 3**40
    assert dd_neg((1.5, -1e-20)) == (-1.5, 1e-20)


@pytest.mark.parametrize("k", list(range(-12, 13)))
def test_dd_npow_matches_fraction(k):
    base = Fraction(3, 7)
    got = to_frac(dd_npow(dd_from_ratio(3, 7), k))
    want = base**k
    assert abs(got - want) <= abs(want) * Fraction(1, 2**96)


@given(st.integers(min_value=-10**200, max_value=10**200),
       st.integers(min_value=1, max_value=10**200))
def test_dd_from_ratio_rounds_once(num, den):
    q = Fraction(num, den)
    assume(q == 0 or 1e-290 < abs(q) < 1e290)
    hi, lo = dd_from_ratio(num, den)
    assert hi == float(q) and lo == float(q - Fraction(hi))


def test_dd_from_ratio_overflow():
    with pytest.raises(OverflowError):
        dd_from_ratio(10**400, 3)


def test_dd_sqrt():
    s = dd_sqrt(dd(2.0))
    assert abs(to_frac(dd_mul(s, s)) - 2) < Fraction(1, 2**100)


@pytest.mark.parametrize("x", [0.03125, 0.1, 0.5, 0.9, 0.999, 1.5, 3.0])
def test_dd_log_vs_mpmath(x):
    with mp.workdps(60):
        assert rel_vs_mp(dd_log(dd(x)), mp.log(x)) < 1e-30


@pytest.mark.parametrize("u", [-3.0, -0.7, -1e-8, 1e-9, 0.3, 2.0])
def test_dd_exp_vs_mpmath(u):
    with mp.workdps(60):
        assert rel_vs_mp(dd_exp(dd(u)), mp.exp(u)) < 1e-30


@pytest.mark.parametrize("u", [-0.15, -1e-13, 1e-13, 2e-4, 0.19])
def test_dd_expm1_small_arguments(u):
    with mp.workdps(60):
        assert rel_vs_mp(dd_expm1(dd(u)), mp.expm1(u)) < 1e-30


def test_dd_to_float_rounds_the_tie_to_even():
    # 2**-53 is exactly half the gap above 1.0: the tie resolves to even
    assert dd_to_float((1.0, 2.0**-53)) == 1.0
    assert dd_to_float((1.0, 1.5 * 2.0**-53)) == 1.0 + 2.0**-52
    assert dd_to_float((1.0, -2.0**-54)) == 1.0


@pytest.mark.parametrize("shift", [0, 1, 3])
@pytest.mark.parametrize("n", [-2.5, 0.5, 2.0, 4.0])
@pytest.mark.parametrize("x", [0.1, 0.6, 0.9])
def test_power_integral_dd_vs_quadrature(shift, n, x):
    omx = dd_sub(dd(1.0), dd(x))
    got = power_integral_dd(shift, n, omx, dd_log(omx))
    with mp.workdps(50):
        want = mp.quad(lambda t: (1 - t)**(shift - n), [0, x])
        assert rel_vs_mp(got, want) < 1e-29


def test_power_integral_dd_snaps_near_integer_exponents():
    # within 1e-9 of the log branch the exact difference is O(w * L**2 / 2)
    x = 0.5
    omx = dd_sub(dd(1.0), dd(x))
    L = dd_log(omx)
    got = power_integral_dd(0, 1.0 + 5e-10, omx, L)
    want = -math.log1p(-x)
    assert abs(dd_to_float(got) - want) < 1e-9 * want


def _power_integral_pairs(x, n, shifts):
    """(shift, context value, power_integral_dd value) at one (x, n)."""
    ctx = ClosedFormContext(x)
    for shift in shifts:
        try:
            want = power_integral_dd(shift, n, ctx.omx, ctx.log)
        except OverflowError:
            with pytest.raises(OverflowError):
                ctx.power_integral(shift, n)
            continue
        yield shift, ctx.power_integral(shift, n), want


def test_context_power_integral_matches_power_integral_dd():
    # one dd_exp per n times (1-x)**shift against one dd_exp per shift, on
    # both sides of the |w log(1-x)| = 1/2 switch, at the edges of the band
    # where the per-n base leaves dd_mul's range (m = 1, p = 40), and where
    # (1-x)**shift has a subnormal lo part (off by 2.3e-27 at shift 51)
    rng = random.Random(8102)
    points = [(1 - 1e-9, n) for n in (34.35, 34.52, 35.25)] + [(1 - 1e-6, 50.5)]
    for _ in range(60):
        x = 1.0 - 10.0 ** rng.uniform(-9.0, math.log10(0.5))
        n = rng.choice((float(rng.randint(-20, 40)), rng.randint(-20, 39) + 0.5,
                        rng.uniform(-20.0, 40.0)))
        points.append((x, n))
    sides = set()
    for x, n in points:
        log_1mx = math.log1p(-x)
        for shift, got, want in _power_integral_pairs(x, n, range(66)):
            if not math.isfinite(want[0]):  # dd_div's split overflowed
                assert not math.isfinite(got[0]), (x, n, shift)
                continue
            sides.add(abs((shift + 1 - n) * log_1mx) >= 0.5)
            assert abs(dd_sub(got, want)[0]) <= 1e-27 * abs(want[0]), (x, n, shift)
    assert sides == {False, True}
