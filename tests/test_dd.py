"""Double-double kernel: exactness of the splits and error bounds of the ops."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from elemhyp._dd import (
    BoundedSum, dd, dd_add, dd_div, dd_exp, dd_expm1,
    dd_from_ratio, dd_log, dd_mul, dd_neg, dd_npow, dd_sqrt,
    dd_sub, dd_to_float, power_integral_dd,
)


def to_frac(v):
    return Fraction(v[0]) + Fraction(v[1])


def rel_vs_mp(v, ref, dps=60):
    with mp.workdps(dps):
        got = mp.mpf(v[0]) + mp.mpf(v[1])
        return float(abs(got - ref) / abs(ref))


# The composed double-double forms, one call per error-free transformation:
# the reference the flat primitives of elemhyp._dd must reproduce bit for bit.
_SPLIT = 134217729.0  # 2**27 + 1


def ref_two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def ref_quick_two_sum(a, b):
    s = a + b
    return s, b - (s - a)


def ref_two_prod(a, b):
    p = a * b
    ta = _SPLIT * a
    ahi = ta - (ta - a)
    alo = a - ahi
    tb = _SPLIT * b
    bhi = tb - (tb - b)
    blo = b - bhi
    return p, ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo


def ref_add(x, y):
    s, e = ref_two_sum(x[0], y[0])
    e += x[1] + y[1]
    return ref_quick_two_sum(s, e)


def ref_sub(x, y):
    return ref_add(x, (-y[0], -y[1]))


def ref_mul(x, y):
    p, e = ref_two_prod(x[0], y[0])
    e += x[0] * y[1] + x[1] * y[0]
    return ref_quick_two_sum(p, e)


def ref_div(x, y):
    q1 = x[0] / y[0]
    r = ref_sub(x, ref_mul(y, (q1, 0.0)))
    q2 = r[0] / y[0]
    r = ref_sub(r, ref_mul(y, (q2, 0.0)))
    q3 = r[0] / y[0]
    s, e = ref_quick_two_sum(q1, q2)
    return ref_add((s, e), (q3, 0.0))


def ref_npow(x, k):
    if k < 0:
        return ref_div((1.0, 0.0), ref_npow(x, -k))
    result, base = (1.0, 0.0), x
    while k:
        if k & 1:
            result = ref_mul(result, base)
        base = ref_mul(base, base)
        k >>= 1
    return result


def ref_sqrt(x):
    if 0.0 < x[0] < 1e-200:
        h, lo = ref_sqrt((x[0] * 2.0 ** 700, x[1] * 2.0 ** 700))
        return (h * 2.0 ** -350, lo * 2.0 ** -350)
    s = math.sqrt(x[0])
    r = ref_sub(x, ref_mul((s, 0.0), (s, 0.0)))
    return ref_add((s, 0.0), (r[0] / (2.0 * s), 0.0))


_REF_LN2 = (0.6931471805599453, 2.3190468138462996e-17)


def ref_log(y):
    if y[0] <= 0.0:
        raise ValueError("nonpositive argument")
    f, k = math.frexp(y[0])
    if f < 0.7071067811865476:
        k -= 1
    if k:
        y = (math.ldexp(y[0], -k), math.ldexp(y[1], -k))
    z = ref_div(ref_sub(y, (1.0, 0.0)), ref_add(y, (1.0, 0.0)))
    z2 = ref_mul(z, z)
    term = total = z
    for m in range(1, 101):
        term = ref_mul(term, z2)
        inc = ref_mul(term, dd_from_ratio(1, 2 * m + 1))
        total = ref_add(total, inc)
        if abs(inc[0]) <= 1e-18 * abs(total[0]):
            break
    tail, power = 0.0, term[0]
    for m in range(m + 1, 101):
        power *= z2[0]
        inc = power * dd_from_ratio(1, 2 * m + 1)[0]
        tail += inc
        if abs(inc) <= 1e-35 * abs(total[0]):
            break
    total = ref_quick_two_sum(total[0], total[1] + tail)
    total = ref_add(total, total)
    if k:
        total = ref_add(ref_mul(_REF_LN2, (float(k), 0.0)), total)
    return total


def ref_expm1_reduced(r):
    j = math.frexp(r[0])[1] + 10
    if j > 0:
        r = (math.ldexp(r[0], -j), math.ldexp(r[1], -j))
    s = 0.0
    for k in range(11, 5, -1):
        s = s * r[0] + 1.0 / math.factorial(k)
    s = (s, 0.0)
    for k in range(5, 0, -1):
        s = ref_add(ref_mul(s, r), dd_from_ratio(1, math.factorial(k)))
    em = ref_mul(s, r)
    for _ in range(j):
        em = ref_add((2.0 * em[0], 2.0 * em[1]), ref_mul(em, em))
    return em


def ref_exp(u):
    m = round(u[0] / 0.6931471805599453)
    r = ref_sub(u, ref_mul(_REF_LN2, (float(m), 0.0)))
    total = ref_add(ref_expm1_reduced(r), (1.0, 0.0))
    return (math.ldexp(total[0], m), math.ldexp(total[1], m))


def ref_expm1(u):
    if abs(u[0]) < 0.2:
        return ref_expm1_reduced(u)
    return ref_sub(ref_exp(u), (1.0, 0.0))


def ref_power_integral(shift, n, one_minus_x, log_1mx):
    w = ref_add(dd_from_ratio(shift + 1, 1), (float(-n), 0.0))
    if w[1] == 0.0 and w[0].is_integer():
        wi = int(w[0])
        if wi == 0:
            return (-log_1mx[0], -log_1mx[1])
        pw = ref_npow(one_minus_x, wi)
        return ref_div(ref_sub((1.0, 0.0), pw), dd_from_ratio(wi, 1))
    e = ref_expm1(ref_mul(w, log_1mx))
    return ref_div((-e[0], -e[1]), w)


def bits(v):
    """A dd as a value that tells -0.0 from 0.0 and equals itself at NaN."""
    return tuple("nan" if u != u else (u, math.copysign(1.0, u)) for u in v)


def outcome(fn, *args):
    try:
        return bits(fn(*args))
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def _operand(rng):
    """A dd with |hi| from 1e-300 to 1e300 or near the split limit, either
    sign, a signed zero, and a zero or nonzero low part."""
    kind = rng.random()
    if kind < 0.08:
        hi = rng.choice((0.0, -0.0))
    elif kind < 0.16:
        hi = rng.choice((1.0, -1.0)) * 1.3e300 * rng.uniform(0.97, 1.03)
    else:
        hi = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-300.0, 300.0)
    if rng.random() < 0.3:
        return (hi, rng.choice((0.0, -0.0)))
    lo = hi * rng.uniform(-1.0, 1.0) * 2.0 ** -53
    s = hi + lo
    return (s, lo - (s - hi))


@pytest.mark.parametrize("flat, ref", [(dd_add, ref_add), (dd_sub, ref_sub),
                                       (dd_mul, ref_mul), (dd_div, ref_div)],
                         ids=["add", "sub", "mul", "div"])
def test_flat_primitives_match_the_composed_forms(flat, ref):
    rng = random.Random(1971)
    operands = [_operand(rng) for _ in range(400)]
    operands += [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (1.0, 0.0), (-1.0, -0.0),
                 (1.3e300, 0.0), (-1.35e300, 1e284), (5e-324, 0.0), (1e-300, -1e-317)]
    for x in operands[::7] + operands[-9:]:
        for y in operands:
            assert outcome(flat, x, y) == outcome(ref, x, y), (x, y)


@pytest.mark.parametrize("zero", [(0.0, 0.0), (-0.0, 0.0), (0.0, 1e-300)])
def test_dd_div_by_zero_raises(zero):
    # hypergeom's closed route catches this for 1 / a power that is 0
    with pytest.raises(ZeroDivisionError):
        dd_div((1.0, 0.0), zero)


def test_bounded_sum_add_matches_the_composed_add():
    rng = random.Random(104)
    acc, total = BoundedSum(), (0.0, 0.0)
    for _ in range(2000):
        term = _operand(rng)
        if abs(term[0]) > 1e290:
            continue
        acc.add(term)
        total = ref_add(total, term)
        assert bits(acc.total) == bits(total)


def test_flat_transcendentals_match_the_composed_forms():
    rng = random.Random(1104)
    for _ in range(150):
        y = _operand(rng)
        y = (abs(y[0]), y[1] if y[0] > 0.0 else -y[1])
        assert outcome(dd_log, y) == outcome(ref_log, y), y
        assert outcome(dd_sqrt, y) == outcome(ref_sqrt, y), y
        u = ref_log((rng.uniform(0.0, 2.0), 0.0)) if rng.random() < 0.5 else \
            (rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-20.0, 2.8), 0.0)
        assert outcome(dd_exp, u) == outcome(ref_exp, u), u
        assert outcome(dd_expm1, u) == outcome(ref_expm1, u), u
        v = (rng.uniform(-0.25, 0.25), 0.0)
        assert outcome(dd_expm1, v) == outcome(ref_expm1, v), v
    for _ in range(600):
        # where the log series hands its terms over to float
        hi = rng.uniform(0.05, 3.0)
        y = (hi, hi * rng.uniform(-0.5, 0.5) * 2.0 ** -53)
        assert outcome(dd_log, y) == outcome(ref_log, y), y
    for v in ((0.0, 0.0), (-0.0, 0.0), (700.0, 0.0), (-745.0, 0.0), (1e300, 0.0),
              (5e-324, 0.0), (-1e-300, 0.0), (0.19999999999999998, 1e-17)):
        assert outcome(dd_exp, v) == outcome(ref_exp, v), v
        assert outcome(dd_expm1, v) == outcome(ref_expm1, v), v
    for y in ((5e-324, 0.0), (1e-300, 1e-317), (1e-200, 0.0), (0.7071067811865476, 0.0),
              (1.0, 0.0), (1.0, -1e-17), (1.4142135623730951, 0.0), (math.inf, 0.0),
              (0.0, 0.0), (-1.0, 0.0)):
        assert outcome(dd_log, y) == outcome(ref_log, y), y
        assert outcome(dd_sqrt, y) == outcome(ref_sqrt, y), y
    for shift in range(0, 70, 3):
        x = rng.uniform(1e-6, 1.0 - 1e-9)
        omx = ref_sub((1.0, 0.0), (x, 0.0))
        log_1mx = ref_log(omx)
        for n in (float(rng.randint(-30, 60)), rng.randint(-30, 60) + 0.5,
                  rng.uniform(-30.0, 60.0), shift + 1.0):
            assert outcome(power_integral_dd, shift, n, omx, log_1mx) == \
                outcome(ref_power_integral, shift, n, omx, log_1mx), (shift, n, x)


@given(st.floats(min_value=-1e150, max_value=1e150),
       st.floats(min_value=-1e150, max_value=1e150))
def test_two_sum_is_exact(a, b):
    hi, lo = ref_two_sum(a, b)
    assert hi == a + b
    assert Fraction(hi) + Fraction(lo) == Fraction(a) + Fraction(b)


@given(st.floats(min_value=-1e80, max_value=1e80),
       st.floats(min_value=-1e80, max_value=1e80))
def test_two_prod_is_exact(a, b):
    # dd_mul of two floats is their exact two-product: polylog below zero
    # takes x*x and its error from it
    assume(a == 0.0 or abs(a) > 1e-80)
    assume(b == 0.0 or abs(b) > 1e-80)
    hi, lo = dd_mul(dd(a), dd(b))
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
    assert to_frac(dd_from_ratio(3**40, 1)) == 3**40
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


@pytest.mark.parametrize("x", [1e-300, 1.3956762564377993e-300, 1e-100, 1e-10,
                               0.03125, 0.1, 0.5, 0.9, 0.999, 1.5, 3.0, 1e10,
                               1e100, 1e300])
def test_dd_log_vs_mpmath(x):
    with mp.workdps(60):
        assert rel_vs_mp(dd_log(dd(x)), mp.log(x)) < 1e-30


@pytest.mark.parametrize("x", [5e-324, 1e-300, 1e-200, 2.0, 1e300])
def test_dd_sqrt_vs_mpmath(x):
    # below 1e-200 the Newton remainder x - s*s would go subnormal, which
    # leaves the root of 1e-300 unscaled 1.8e-24 off
    with mp.workdps(60):
        assert rel_vs_mp(dd_sqrt(dd(x)), mp.sqrt(x)) < 1e-31


@pytest.mark.parametrize("u", [-3.0, -0.7, -1e-8, 1e-9, 0.3, 2.0])
def test_dd_exp_vs_mpmath(u):
    with mp.workdps(60):
        assert rel_vs_mp(dd_exp(dd(u)), mp.exp(u)) < 1e-30


@pytest.mark.parametrize("u", [-0.15, -1e-13, 1e-13, 2e-4, 0.19])
def test_dd_expm1_small_arguments(u):
    with mp.workdps(60):
        assert rel_vs_mp(dd_expm1(dd(u)), mp.expm1(u)) < 1e-30


@pytest.mark.sweep
def test_transcendental_errors_on_a_large_sweep():
    # the largest errors seen on 20000 seeded arguments each, in units
    # U = 2**-104 of the value, dd_exp's per 1 + |u|: _dd's unit accounting
    # and the general form's half-integer scale rest on them
    rng = random.Random(2001)
    cases = (
        ("exp", dd_exp, mp.exp,
         lambda s: s * 10.0 ** rng.uniform(-20.0, math.log10(600.0))),
        ("expm1", dd_expm1, mp.expm1,
         lambda s: s * 10.0 ** rng.uniform(-30.0, math.log10(0.25))),
        ("log", dd_log, mp.log,
         lambda s: 10.0 ** rng.uniform(-300.0, 300.0) if s > 0 else rng.uniform(1e-3, 3.0)),
        ("sqrt", dd_sqrt, mp.sqrt, lambda s: 10.0 ** rng.uniform(-320.0, 300.0)),
    )
    worst = {}
    with mp.workdps(60):
        for _ in range(20000):
            sign = rng.choice((1.0, -1.0))
            for name, fn, ref, draw in cases:
                hi = draw(sign)
                lo = hi * rng.uniform(-1.0, 1.0) * 2.0 ** -53
                v = (hi + lo, lo - ((hi + lo) - hi))
                want = ref(mp.mpf(v[0]) + v[1])
                got = fn(v)
                err = float(abs(mp.mpf(got[0]) + got[1] - want) / abs(want)) / 2.0 ** -104
                if name == "exp":
                    err /= 1.0 + abs(v[0])
                worst[name] = max(worst.get(name, 0.0), err)
    assert worst["exp"] <= 0.45, worst
    assert worst["expm1"] <= 1.35, worst
    assert worst["log"] <= 1.2, worst
    assert worst["sqrt"] <= 0.7, worst


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
