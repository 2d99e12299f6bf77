"""Closed 2F1 evaluators against the defining series and mpmath."""

import math
import random
import sys
from fractions import Fraction
from itertools import count, islice

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elemhyp import (
    DomainError, HeunFamilyParams, HypergeomParams, InvalidParams,
    NonFinite, NotConverged, heun_eval, hyp2f1_closed, hyp2f1_eval,
    hyp2f1_series,
)
from elemhyp import _dd, hypergeom, numcore
from elemhyp.hypergeom import (
    _assemble, _closed_route, _eq_12_1, _eq_1m_b, _eq_general,
)


def mp_ref(a, b, c, x, dps=40):
    with mp.workdps(dps):
        return float(mp.hyp2f1(a, b, c, mp.mpf(x)))


def rel_err(got, want):
    return abs(got - want) / abs(want)


def test_params_validation():
    HypergeomParams(1, -2.5, 2)
    with pytest.raises(InvalidParams):
        HypergeomParams(0, 1.0, 2)
    with pytest.raises(InvalidParams):
        HypergeomParams(2, 1.0, 2)  # needs p >= m+1
    # a nan n reached hyp2f1_eval's series below x = 1/2 (NonFinite) and its
    # closed forms above it (a bare ValueError)
    for n in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParams):
            HypergeomParams(1, n, 3)


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("n", [-2.5, -1.0, 0.5, 2.0, 3.75])
@pytest.mark.parametrize("x", [0.05, 0.5, 0.95])
def test_series_matches_mpmath(m, n, x):
    for p in (m + 1, m + 4):
        got = hyp2f1_series(float(m), n, float(p), x).value
        assert math.isclose(got, mp_ref(m, n, p, x), rel_tol=1e-11)


def test_series_symmetric_in_upper_parameters():
    a, b, c, x = 1.5, -2.25, 4.0, 0.37
    assert hyp2f1_series(a, b, c, x).value == hyp2f1_series(b, a, c, x).value


def test_series_terminates_on_nonpositive_integer_upper():
    res = hyp2f1_series(2.0, -1.0, 4.0, 0.6)
    assert res.value == 1.0 - 2.0 / 4.0 * 0.6
    assert res.converged


def test_series_domain():
    with pytest.raises(DomainError):
        hyp2f1_series(1.0, 2.0, 3.0, 1.0)
    with pytest.raises(DomainError):
        hyp2f1_series(1.0, 2.0, 3.0, -1.2)
    with pytest.raises(DomainError):
        hyp2f1_series(1.0, 2.0, 0.0, 0.5)
    with pytest.raises(DomainError):
        hyp2f1_series(1.0, 2.0, -3.0, 0.5)
    hyp2f1_series(1.0, 2.0, 3.0, -0.5)  # negative x is fine for the series


def test_series_rejects_nan_x():
    # abs(nan) >= 1 is false: the domain test let nan through, and the
    # sum raised NonFinite at its first term
    with pytest.raises(DomainError, match="series requires"):
        hyp2f1_series(1.0, 2.0, 3.0, math.nan)


def test_series_error_within_its_reported_bounds():
    # every stop rests on a tail bound: the error is at most trunc_err_est
    # plus the rounding bound terms * sum|term| * 2**-53 (the small-term
    # stop missed it at 34 of these 300 points, by up to 184x)
    rng = random.Random(1401)
    for i in range(300):
        a = rng.choice([rng.uniform(-15, 15), float(rng.randint(-12, 12))])
        b, c = rng.uniform(-15, 15), rng.uniform(0.05, 30)
        if i % 3 == 0:
            x = 1 - 10 ** rng.uniform(-3, math.log10(0.5))
        elif i % 3 == 1:
            x = -(1 - 10 ** rng.uniform(-3, 0))
        else:
            x = rng.uniform(-0.5, 0.5)
        res = hyp2f1_series(a, b, c, x)
        assert res.converged
        with mp.workdps(40):
            err = float(abs(mp.mpf(res.value) - mp.hyp2f1(a, b, c, x)))
        bound = res.trunc_err_est + res.terms_used * res.abs_sum * 2.0 ** -53
        assert err <= bound, (a, b, c, x)


def test_series_reports_cap_without_raising():
    # next to x = 1 the tail bound |t_(k+1)| / (1 - x) stays far above 1e-17
    # of the sum when the cap is reached
    res = hyp2f1_series(1.0, 0.5, 3.0, 1.0 - 1e-6)
    assert not res.converged
    assert res.terms_used == numcore._MAX_TERMS
    assert res.trunc_err_est == math.inf


# The composed form of hypergeom._series: a generator of the term ratio and
# numcore.sum_series with the rho tail bound.  The flat loop must reproduce
# it bit for bit.
def _composed_series(a, b, ib, c, ic, z, first):
    def terms():
        t = 1.0
        for j in count():
            yield t
            t *= (a + j) * (b + (ib + j)) / ((c + (ic + j)) * (j + 1)) * z

    def tail(k, t):
        nxt = t * ((a + k) * (b + (ib + k)) / ((c + (ic + k)) * (k + 1)) * z)
        if nxt == 0.0:
            return 0.0
        c1 = c + (ic + k + 1)
        rho = abs(z) * max(1.0, abs((a + k + 1) / (k + 2))) \
            * max(1.0, abs((b + (ib + k + 1)) / c1)) if c1 > 0 else math.inf
        return abs(nxt) / (1.0 - rho) if rho < 1.0 else math.inf

    return numcore.sum_series(islice(terms(), first, None), lambda i, t: tail(i + first, t))


def _composed_near_one_tail(a, nb, ib, ic, z):
    try:
        res = _composed_series(a, nb, ib, nb, ic, z, 1)
    except NonFinite:
        return None
    if not res.converged or not math.isfinite(res.value):
        return None
    return res.value, ((7.0 * res.terms_used + 3.0) * res.abs_sum * 2.0 ** -53
                       + res.trunc_err_est)


def _outcome(f, *args):
    """repr of f's result, which tells -0.0 and every float bit apart, or
    the type and message of the error it raises."""
    try:
        return repr(f(*args))
    except NonFinite as exc:
        return type(exc).__name__, str(exc)


def _flat_series_points(count, seed):
    """(a, b, ib, c, ic, z) over terminating b, c <= 0 (c1 <= 0 keeps the
    tail at inf until the counter passes it), both signs of z, integer and
    non-integer a, and terms that pass float range."""
    rng = random.Random(seed)
    for i in range(count):
        a = rng.choice((float(rng.randint(1, 8)), rng.randint(1, 8),
                        rng.uniform(-25.0, 25.0)))
        b = rng.choice((-float(rng.randint(0, 30)), rng.uniform(-40.0, 40.0),
                        float(rng.randint(1, 40))))
        c = rng.choice((float(rng.randint(1, 60)), rng.uniform(0.01, 60.0),
                        rng.uniform(-25.0, 0.0)))
        ib, ic = rng.choice(((0, 0), (rng.randint(-10, 10), rng.randint(-10, 10))))
        if float(c).is_integer():
            ic = abs(ic)  # no zero factor c+(ic+j)
        z = rng.choice((rng.uniform(-0.95, 0.95), rng.uniform(-0.05, 0.05),
                        math.copysign(1.0 - 10.0 ** rng.uniform(-1.5, -1.0),
                                      rng.uniform(-1.0, 1.0))))
        if i % 50 == 0:  # the terms pass float range, at once or later
            a, b = rng.choice(((1e200, 1e200), (1e100, 1e100), (1e30, -2.5e30)))
        yield a, b, ib, c, ic, z


def _near_one_tail_points(count, seed):
    """The two tail calls of _near_one at (m, n; m+q), z = 1-x in (0, 1/2]."""
    rng = random.Random(seed)
    for _ in range(count):
        m, q = rng.randint(1, 10), rng.randint(1, 60)
        n = rng.choice((rng.uniform(-60.0, 60.0), rng.randint(-60, 60) + 0.5))
        z = rng.choice((rng.uniform(1e-6, 0.5), 10.0 ** rng.uniform(-12.0, -0.31)))
        yield m, n, 0, 1 - q, z
        yield q, -n, m + q, q + 1, z


def _leaf_series_groups(count, seed):
    """(a, b, z, cs): the leaves of one shared ratios list, the c's in
    shuffled order, so that a later leaf often runs past the entries an
    earlier one appended, by one entry or by many.  z reaches [0.45, 1/2),
    where a leaf of small c takes 40 terms or more, both signs of 0,
    5e-324 and both signs up to 0.95; b reaches +-1e308, whose terms pass
    float range."""
    rng = random.Random(seed)
    for i in range(count):
        a = rng.choice((float(rng.randint(1, 8)), rng.randint(1, 8),
                        rng.uniform(-25.0, 25.0)))
        b = rng.choice((-float(rng.randint(0, 30)), rng.uniform(-40.0, 40.0),
                        float(rng.randint(1, 40)), rng.randint(-20, 19) + 0.5))
        if i % 25 == 0:
            b = rng.choice((1e308, -1e308))
        z = rng.choice((rng.uniform(0.0, 0.5), rng.uniform(0.45, 0.5),
                        rng.uniform(-0.95, 0.95), 0.0, -0.0, 5e-324))
        p = rng.randint(2, 60)
        cs = [float(p + 2 * k) for k in range(rng.randint(1, 12))]
        if i % 3 == 0:
            cs += [rng.uniform(0.01, 60.0), rng.uniform(-25.0, 0.0)]
        rng.shuffle(cs)
        yield a, b, z, cs


def _series_pair(a, b, c, z):
    """Route 1's pair as _enclosures forms it from _series' result, or
    None where that is not converged: what _leaf_series returns."""
    res = hypergeom._series(a, b, 0, c, 0, z, 0)
    return (res.value, res.terms_used * res.abs_sum * 2.0 ** -53) if res.converged else None


def _flat_series_mismatches(count, seed):
    bad = []
    for a, b, ib, c, ic, z in _flat_series_points(count, seed):
        for first in (0, 1):
            args = (a, b, ib, c, ic, z, first)
            if _outcome(hypergeom._series, *args) != _outcome(_composed_series, *args):
                bad.append(args)
        if ib == ic == 0 and _outcome(hyp2f1_series, a, b, c, z) \
                != _outcome(_composed_series, a, b, 0, c, 0, z, 0):
            bad.append((a, b, c, z))
    for args in _near_one_tail_points(count // 2, seed):
        if _outcome(hypergeom._near_one_tail, *args) != _outcome(_composed_near_one_tail, *args):
            bad.append(args)
    # the shared-table loop against _series, the loop it mirrors
    for a, b, z, cs in _leaf_series_groups(count // 4, seed):
        ratios = []
        for c in cs:
            if _outcome(hypergeom._leaf_series, a, b, c, z, ratios) \
                    != _outcome(_series_pair, a, b, c, z):
                bad.append((a, b, c, z, len(ratios)))
    return bad


def test_flat_series_matches_the_composed_form():
    assert _flat_series_mismatches(500, 3201) == []


@pytest.mark.sweep
def test_flat_series_matches_the_composed_form_on_a_large_sweep():
    assert _flat_series_mismatches(20000, 3202) == []


@pytest.mark.parametrize("a,b,z,cs", [
    (1.0, 2.5, 0.49, [9.0, 7.0, 5.0, 3.0, 11.0]),  # 37, 41, 46, 53 and 34 terms
    (2.0, -7.0, 0.3, [4.0, 6.0]),  # terminating: exact zero terms
    (3.0, 1e308, 0.2, [4.0, 6.0]),  # (a+0)(b+0) = inf: NonFinite at index 1
    (3.0, -1e308, 0.0, [4.0, 6.0]),  # -inf * 0.0: NonFinite at index 1
    (1.0, 5.5, -0.0, [3.0]),
    (1.0, 5.5, 5e-324, [3.0, 5.0]),
    (2.5, 3.0, -0.9, [-7.5, 4.0]),  # c + k + 1 <= 0 for the first terms
    (1.0, 0.5, 1.0 - 1e-6, [3.0, 3.5]),  # both at the cap: None, from a full list
])
def test_leaf_series_matches_the_flat_series_at_its_edges(a, b, z, cs):
    ratios = []
    for c in cs:
        assert _outcome(hypergeom._leaf_series, a, b, c, z, ratios) \
            == _outcome(_series_pair, a, b, c, z), (c, len(ratios))


def test_flat_series_past_float_range_is_not_converged():
    # every term is finite, but after 1984 of them the sum passes float
    # range; it was returned as converged, its value inf
    args = (8.0, 1000.0, 0, 301.0, 0, 0.8381881194660705, 0)
    res = hyp2f1_series(8.0, 1000.0, 301.0, 0.8381881194660705)
    assert (res.value, res.terms_used, res.converged, res.trunc_err_est) \
        == (math.inf, 1984, False, math.inf)
    assert _outcome(hypergeom._series, *args) == _outcome(_composed_series, *args)
    assert hypergeom._leaf_series(8.0, 1000.0, 301.0, 0.8381881194660705, []) is None


def test_flat_series_sums_are_python_floats_for_numpy_parameters():
    # sum_series made every term a float; numpy's float64 arithmetic is the
    # same, but a numpy sum would reach hyp2f1_eval's value
    np = pytest.importorskip("numpy")
    for x in (0.3, 1.0 - 1e-6):  # converged, and at the term cap
        got = hyp2f1_series(1.0, np.float64(2.5), 3.0, x)
        want = hyp2f1_series(1.0, 2.5, 3.0, x)
        assert type(got.value) is float and type(got.abs_sum) is float
        assert got == want
    assert type(hyp2f1_eval(HypergeomParams(1, np.float64(2.5), 3), 0.3)) is float


@pytest.mark.parametrize("args", [
    (1.0, 0.5, 0, 3.0, 0, 1.0 - 1e-6, 0),  # at the term cap
    (1, 0.5, 0, 3.5, -5, 1.0 - 1e-6, 1),
    (1.0, -7.0, 0, 3.0, 0, 0.9, 0),  # terminating: exact zero terms
    (2.5, 3.0, 2, -7.5, 0, -0.9, 1),  # c1 <= 0 for the first terms
    (1e100, 1e100, 0, 1.0, 0, 0.5, 0),  # NonFinite at index 2
    (1e200, 1e200, 3, 1.0, 0, 0.5, 1),  # NonFinite at index 0
])
def test_flat_series_matches_the_composed_form_at_its_edges(args):
    assert _outcome(hypergeom._series, *args) == _outcome(_composed_series, *args)


@pytest.mark.parametrize("m,n,p", [
    (1, 2.0, 3), (2, 3.75, 3), (2, -2.5, 5), (3, 0.5, 7), (4, 1.0, 8),
])
@pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
def test_closed_general_vs_mpmath(m, n, p, x):
    got = hyp2f1_closed(HypergeomParams(m, n, p), x)
    assert math.isclose(got, mp_ref(m, n, p, x), rel_tol=1e-10)


def test_closed_general_known_value():
    got = hyp2f1_closed(HypergeomParams(1, 2.0, 3), 0.5)
    assert math.isclose(got, 1.5451774444795625, rel_tol=1e-14)


@pytest.mark.parametrize("n,p", [(-2.5, 2), (0.5, 5), (2.0, 8)])
@pytest.mark.parametrize("x", [0.2, 0.7])
def test_closed_single_sum_form(n, p, x):
    got = _assemble(_eq_general, x, 1, n, p)[0]
    assert math.isclose(got, mp_ref(1, n, p, x), rel_tol=1e-11)


def test_closed_single_sum_validation():
    with pytest.raises(InvalidParams):
        hyp2f1_closed(HypergeomParams(1, 2.5, 1), 0.5)


@pytest.mark.parametrize("m,l", [(1, 0), (2, 1), (3, 0), (4, 3), (6, 6)])
@pytest.mark.parametrize("x", [0.15, 0.6, 0.9])
def test_closed_log_family_both_variants(m, l, x):
    # the general form the classifier takes at (1, m; m+l+1), and form B
    ref = mp_ref(1, m, m + l + 1, x)
    va = _assemble(_eq_general, x, 1, float(m), m + l + 1)[0]
    vb = _assemble(_eq_1m_b, x, m, l)[0]
    assert math.isclose(va, ref, rel_tol=1e-11)
    assert math.isclose(va, vb, rel_tol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 9, 12])
@pytest.mark.parametrize("x", [0.1, 0.2, 0.5, 0.7, 0.9])
def test_closed_12_family_all_variants(n, x):
    # the (1, 2; n+2) form, the general form at that triple and form B of
    # (1, m; m+l+1) at m = 2, l = n-1
    ref = mp_ref(1, 2, n + 2, x)
    vals = [_assemble(_eq_12_1, x, n)[0], _assemble(_eq_general, x, 1, 2.0, n + 2)[0],
            _assemble(_eq_1m_b, x, 2, n - 1)[0]]
    for v in vals:
        assert math.isclose(v, ref, rel_tol=1e-11)
    assert math.isclose(vals[0], vals[1], rel_tol=1e-12)
    assert math.isclose(vals[0], vals[2], rel_tol=1e-12)


def test_closed_route_keeps_the_12_form_where_the_general_form_cancels():
    # why (1, 2; p) has its own form: at (1, 2; 60), x = 0.6, the general
    # form's bound is 5.2e-9 of its value, and its value is off by 7e-12
    want = 1.020614162308804
    with mp.workdps(50):
        assert float(mp.hyp2f1(1, 2, 60, mp.mpf(0.6))) == want
    f, bound = _assemble(_eq_12_1, 0.6, 58)
    assert _dd.certified(f, bound)
    assert f == want
    assert _closed_route(1, 2.0, 60, 0.6) == (f, bound)
    g, gbound = _assemble(_eq_general, 0.6, 1, 2.0, 60)
    assert not _dd.certified(g, gbound)
    assert 5.1e-9 < gbound / g < 5.3e-9


@pytest.mark.parametrize("k,p,x", [
    (3, 5, 0.4), (4, 7, 0.9), (7, 30, 0.6), (2, 9, 0.3), (5, 6, 1 - 1e-9),
])
def test_closed_route_swaps_the_upper_pair(k, p, x):
    assert _closed_route(k, 1.0, p, x) == _closed_route(1, float(k), p, x)


def test_closed_route_1k_grid_vs_mpmath():
    # (1, k; p), integer k, takes the (1, 2; p) form or the general form;
    # every value it certifies is float64-accurate
    rng = random.Random(3017)
    certified = 0
    for _ in range(200):
        k = rng.randint(1, 30)
        p = k + 1 + rng.randint(0, 40)
        x = rng.choice((rng.uniform(0.01, 0.99), 1 - 10 ** rng.uniform(-12, -2)))
        f, bound = _closed_route(1, float(k), p, x)
        if _dd.certified(f, bound):
            certified += 1
            assert rel_err(f, mp_ref(1, k, p, x, 40)) <= 1e-15, (k, p, x)
    assert certified == 148


@pytest.mark.parametrize("x", [0.0, 1.0, -0.3])
def test_closed_forms_require_open_unit_interval(x):
    # one triple of each form: general, general at m = 1 with real and integer
    # n, (1, 2; p)
    for params in (HypergeomParams(2, 0.5, 4), HypergeomParams(1, 0.5, 3),
                   HypergeomParams(1, 3.0, 5), HypergeomParams(1, 2.0, 4)):
        with pytest.raises(DomainError):
            hyp2f1_closed(params, x)


def test_closed_raises_on_a_cancelled_value():
    # the (1, 2; 42) form rounds to -3.3e22 here (true value ~1.0024); its
    # bound rejects it, so no value comes out
    with pytest.raises(NotConverged, match="rounding bound 1.05e\\+25 exceeds 1e-13"):
        hyp2f1_closed(HypergeomParams(1, 2.0, 42), 0.05)


def _closed_guard_points(count, seed):
    """m <= 8, p <= m+30, |n| <= 20 (integer, half-integer or real, so every
    family is reached), x in [0.01, 0.99]."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 8)
        n = rng.choice((float(rng.randint(-20, 20)), rng.randint(-20, 19) + 0.5,
                        rng.uniform(-20.0, 20.0)))
        yield m, n, rng.randint(m + 1, m + 30), rng.uniform(0.01, 0.99)


def test_closed_returns_only_accurate_values():
    # the unguarded closed form is off mpmath by more than 1e-12 at 54 of
    # these points; the bound must reject every one of them
    returned, raised = [], []
    for m, n, p, x in _closed_guard_points(240, 2101):
        try:
            got = hyp2f1_closed(HypergeomParams(m, n, p), x)
        except NotConverged:
            raised.append((m, n, p, x))
            continue
        returned.append((rel_err(got, mp_ref(m, n, p, x, 50)), (m, n, p, x)))
    assert raised
    assert max(returned)[0] <= 1e-12, max(returned)


def test_eval_trivial_points():
    # no route of their own: at x = 0 route 1's series stops after its
    # first term, and n = 0 is route 1 below 1/2 and route 2's polynomial
    # with no term past the first above it; exactly 1.0 at either zero
    for z in (0.0, -0.0):
        for m, n, p in ((2, 1.5, 4), (3, -7.0, 5), (1, z, 2)):
            assert repr(hyp2f1_eval(HypergeomParams(m, n, p), z)) == "1.0"
        for x in (0.3, 0.7, 0.999999):
            assert repr(hyp2f1_eval(HypergeomParams(3, z, 5), x)) == "1.0"


def test_eval_sums_short_polynomials_exactly():
    # a degree-1 polynomial case that lands exactly on a rounding tie, which
    # the exact sum rounds to even: 1 - 0.3 = 0.7 as in float arithmetic
    assert hyp2f1_eval(HypergeomParams(2, -1.0, 4), 0.6) == 0.7
    got = hyp2f1_eval(HypergeomParams(3, -4.0, 6), 0.55)
    assert math.isclose(got, mp_ref(3, -4, 6, 0.55), rel_tol=1e-15)
    # the float64 series was off by 3.8e-9, 5.9e-10, 1.1e-12 and, below
    # _X_SWITCH where its rounding bound turns it away, 2.0e-12; at the last
    # three, degrees 31 to 39, by 1.3e-12, 9.0e-12 and 7.9e-11
    for m, n, p, x, want in [
        (6, -16.0, 7, 0.8805719072144087, "2.874726557960010705047293e-5"),
        (4, -15.0, 5, 0.9966777000129244, "2.614551894779879077606124e-4"),
        (6, -15.0, 14, 0.9953351182457846, "4.642742523925244500893505e-3"),
        (6, -15.0, 7, 0.47610766497553914, "1.546217083137754185634574e-3"),
        (10, -31.0, 26, 0.4648299101804634, "6.656213790417873449824448e-3"),
        (9, -39.0, 42, 0.7577345517911536, "5.394663248502387062421683e-3"),
        (10, -36.0, 30, 0.629108971972999, "1.707099155822366068156425e-3"),
    ]:
        got = hyp2f1_eval(HypergeomParams(m, n, p), x)
        with mp.workdps(30):
            assert abs(got - mp.mpf(want)) <= 1e-15 * mp.mpf(want), (m, n, p, x)


def test_short_polynomial_is_the_correctly_rounded_exact_sum():
    # _short_poly_exact rounds once: it must equal float() of the exact
    # Fraction sum of 2F1(m, -K; p; x) at the dyadic x
    rng = random.Random(3601)
    for _ in range(2000):
        m, K = rng.randint(1, 12), rng.randint(1, 40)
        p, x = rng.randint(m + 1, m + 60), rng.random()
        X, term, exact = Fraction(x), Fraction(1), Fraction(1)
        for k in range(K):
            term *= Fraction((m + k) * (k - K), (p + k) * (k + 1)) * X
            exact += term
        assert hypergeom._short_poly_exact(m, K, p, x) == float(exact), (m, K, p, x)


def test_eval_small_arguments_use_the_series_path():
    x = 0.01  # below the _X_SWITCH threshold: route 1 sums to 1e-17
    got = hyp2f1_eval(HypergeomParams(1, 2.0, 3), x)
    assert got == hyp2f1_series(1.0, 2.0, 3.0, x).value


def test_eval_skips_closed_forms_when_digit_loss_is_certain():
    # (p-1)*log10(1/x) large: the closed assembly would cancel away all
    # digits, the dispatcher must fall back to the series
    params = HypergeomParams(1, 2.5, 19)
    x = 0.06
    got = hyp2f1_eval(params, x)
    assert got == hyp2f1_series(1.0, 2.5, 19.0, x).value
    assert math.isclose(got, mp_ref(1, 2.5, 19, x), rel_tol=1e-11)


@pytest.mark.parametrize("m,n,p,x,want", [
    (1, 2.0, 3, 0.5, 1.5451774444795625),
    (3, 2.5, 8, 0.7, 2.4152172053957432),
    (1, 2.5, 5, 0.6, 1.4756256176034062),
    (1, 3.0, 6, 0.5, 1.3553233343868742),
    (4, 1.0, 7, 0.4, 1.3070003284664935),  # n = 1 swaps to (1, 4; 7)
], ids=["12", "general", "m1", "1m", "swap-1m"])
def test_eval_closed_path_is_bit_stable(m, n, p, x, want):
    assert hyp2f1_eval(HypergeomParams(m, n, p), x) == want


@pytest.mark.parametrize("n,counts", [
    (2.3, {"dd_log": 1, "dd_exp": 1}),  # log P and the scale P**(q+1-n)
    (2.5, {}),  # half-integer n: the scale is P**e sqrt(P), no log
    (-45.0, {}),  # integer n with no pole: no log, and a power for the scale
    (5.0, {"dd_log": 1}),  # integer n in [1, p-1]: the log term only
], ids=["real", "half-integer", "integer", "integer-pole"])
def test_closed_route_transcendental_calls_on_a_cold_context(n, counts, monkeypatch):
    # the general form at (3, n; 8) sums 7 + 3 terms with exact coefficients
    # and forms at most one dd_exp and one dd_log; no dd_expm1 at all
    calls = []
    for name in ("dd_exp", "dd_expm1", "dd_log"):
        def counting(u, _name=name, _original=getattr(_dd, name)):
            calls.append(_name)
            return _original(u)

        monkeypatch.setattr(_dd, name, counting)
        if hasattr(hypergeom, name):
            monkeypatch.setattr(hypergeom, name, counting)
    _dd.context.cache_clear()  # an earlier test may have filled x = 0.7
    f, bound = _closed_route(3, n, 8, 0.7)
    assert {name: calls.count(name) for name in set(calls)} == counts
    assert _dd.certified(f, bound)
    assert rel_err(f, mp_ref(3, n, 8, 0.7, 50)) <= 1e-15


def _triple_form_coefficients(m, n, q):
    """The coefficients of _eq_general summed directly from the triple form
    sum_(k,i) (-1)**(k+q-i) C(m-1,k) C(q,i) P**(q-i) (1 - P**w) / w,
    w = i+k+1-n, in Fractions: the pairs with w = 0 give -log P instead."""
    heads, tails, logs = [Fraction(0)] * (q + 1), [Fraction(0)] * m, {}
    for k in range(m):
        for i in range(q + 1):
            c = (-1) ** (k + q - i) * math.comb(m - 1, k) * math.comb(q, i)
            w = i + k + 1 - n
            if w == 0:
                logs[i] = logs.get(i, 0) - c
            else:
                heads[i] += c / w
                tails[k] -= c / w
    return heads, tails, logs


def _coefficient_cases():
    rng = random.Random(2801)
    for m in range(1, 9):
        for q in (0, 1, 2, 5, 20):
            ns = [Fraction(k) for k in range(-2, m + q + 3)]  # every pole position
            ns += [Fraction(2 * k + 1, 2) for k in range(-3, m + q + 2, 3)]
            ns += [Fraction(rng.randint(-2 ** 20, 2 ** 26), 2 ** rng.randint(1, 20))
                   for _ in range(3)]
            for n in ns:
                yield m, q, n


def test_general_form_coefficients_are_the_triple_sums():
    # S_i and T_k by the Beta integral, and their finite parts at the poles,
    # must equal the triple form's own sums over the pairs with w != 0
    cases = 0
    for m, q, n in _coefficient_cases():
        heads, tails, logs = hypergeom._general_coefficients(
            m, n.numerator, n.denominator, q)
        want_heads, want_tails, want_logs = _triple_form_coefficients(m, n, q)
        assert [Fraction(a, b) for a, b in heads] == want_heads, (m, q, n)
        assert [Fraction(a, b) for a, b in tails] == want_tails, (m, q, n)
        assert dict(logs) == want_logs, (m, q, n)
        cases += 1
    assert cases == 938


def _half_integer_points(count, seed):
    """m <= 8, p <= m+40, half-integer |n| <= 40; 30 % of x with 1-x
    log-uniform in [1e-12, 1e-2], the rest uniform in [0.01, 0.99]."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 8)
        n = rng.randint(-40, 39) + 0.5
        p = rng.randint(m + 1, m + 40)
        x = rng.uniform(0.01, 0.99) if rng.random() < 0.7 else \
            1.0 - 10.0 ** rng.uniform(-12.0, -2.0)
        yield m, n, p, x


def test_general_form_half_integer_sweep_matches_mpmath():
    # the scale P**(q+1-n) as P**e sqrt(P): every certified value is within
    # its bound plus half an ulp of mpmath, and it certifies at least the
    # 2349 points that the scale as dd_exp((q+1-n) log P) did (2350 here;
    # the largest relative error seen falls from 1.0e-14 to 3.2e-15)
    kept = 0
    for m, n, p, x in _half_integer_points(3000, 3301):
        try:
            f, bound = _assemble(_eq_general, x, m, n, p)
        except NotConverged:
            continue
        if _dd.certified(f, bound):
            kept += 1
            with mp.workdps(40):
                err = abs(mp.mpf(f) - mp.hyp2f1(m, n, p, mp.mpf(x)))
            assert err <= bound + math.ulp(f) / 2, (m, n, p, x, float(err), bound)
    assert kept >= 2349


def test_general_form_next_to_integer_n_matches_mpmath():
    # n within 1e-12 of an integer puts a near-pole in S_i and T_k; their
    # large, cancelling terms must be caught by the bound, so every value
    # the closed route certifies is within 1e-14
    rng = random.Random(2802)
    kept = 0
    for _ in range(120):
        m = rng.randint(2, 10)
        p = rng.randint(m + 1, m + 60)
        n = rng.randint(-20, 40) + rng.choice((1, -1)) * 10.0 ** rng.uniform(-15.0, -12.0)
        x = 1.0 - 10.0 ** rng.uniform(-9.0, math.log10(0.95))
        try:
            f, bound = _closed_route(m, n, p, x)
        except NotConverged:
            continue
        if _dd.certified(f, bound):
            kept += 1
            assert rel_err(f, mp_ref(m, n, p, x, 50)) <= 1e-14, (m, n, p, x)
    assert kept >= 60


def test_eval_domain_and_convergence():
    for x in (-0.1, -1e-300, 1.0, 1.5, math.inf, math.nan):
        with pytest.raises(DomainError):
            hyp2f1_eval(HypergeomParams(1, 2.0, 3), x)
    # s = p-m-n = 10 is an integer, so the near-1 route does not apply; the
    # digit loss (p-1)*log10(1/x) = 43 rules the closed form out, and the
    # series, whose terms fall like x**k, is still going at the 100000-term
    # cap
    with pytest.raises(NotConverged, match="series fallback did not converge"):
        hyp2f1_eval(HypergeomParams(2, 4999988.0, 5000000), 0.99998)


@given(st.integers(min_value=1, max_value=4),
       st.floats(min_value=-3.0, max_value=4.0),
       st.integers(min_value=2, max_value=8),
       st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=60, deadline=None)
def test_eval_agrees_with_tight_series_everywhere(m, n, p, x):
    if p < m + 1:
        p = m + 1
    got = hyp2f1_eval(HypergeomParams(m, n, p), x)
    want = hyp2f1_series(float(m), n, float(p), x).value
    assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)


def _below_half_points(count, seed):
    rng = random.Random(seed)
    for i in range(count):
        m = rng.randint(1, 6)
        p = rng.randint(m + 1, 60)
        n = rng.choice((float(rng.randint(-20, 20)), rng.randint(-20, 19) + 0.5,
                        rng.uniform(-20.0, 20.0)))
        # both ends of the range weighted: log-uniform x for every other point
        x = 0.5 * 10.0 ** rng.uniform(-5.7, 0.0) if i % 2 else rng.uniform(1e-6, 0.5)
        yield m, n, p, min(max(x, 1e-6), 0.4999999)


def test_eval_below_half_sweep_matches_mpmath():
    worst = max(
        (rel_err(hyp2f1_eval(HypergeomParams(m, n, p), x), mp_ref(m, n, p, x, 50)),
         (m, n, p, x))
        for m, n, p, x in _below_half_points(300, 20241))
    assert worst[0] <= 1e-12, worst


def _route_one_points(count, seed):
    """m <= 12, p <= m+60, n real, a half-integer or a positive integer with
    |n| <= 60, x below 1/2: uniform for every other point, else log-uniform."""
    rng = random.Random(seed)
    for i in range(count):
        m = rng.randint(1, 12)
        p = rng.randint(m + 1, m + 60)
        n = rng.choice((rng.uniform(-60.0, 60.0), rng.randint(-60, 59) + 0.5,
                        float(rng.randint(1, 60))))
        x = 0.5 * 10.0 ** rng.uniform(-6.0, 0.0) if i % 2 else rng.uniform(1e-6, 0.5)
        yield m, n, p, min(x, 0.4999999)


def test_route_one_bound_is_a_bound():
    # route 1 keeps the series where terms * sum|t_k| * 2**-53 certifies it.
    # That bound counts the sum's roundings, not the 7k units by which the
    # term ratios put term k off; on this draw the worst error is 0.24 of it
    certified = 0
    for m, n, p, x in _route_one_points(2000, 3204):
        res = hyp2f1_series(float(m), n, float(p), x)
        bound = res.terms_used * res.abs_sum * 2.0 ** -53
        if not _dd.certified(res.value, bound):
            continue
        certified += 1
        with mp.workdps(40):
            err = abs(mp.mpf(res.value) - mp.hyp2f1(m, n, p, mp.mpf(x)))
        assert err <= bound, (m, n, p, x, float(err), bound)
    assert certified >= 1500


def test_eval_series_guard_covers_cancelling_sums():
    # negative n makes the first -n terms alternate; summed without the
    # rounding guard, dozens of these points lose more than 1e-12
    rng = random.Random(7)
    worst = 0.0
    for _ in range(300):
        m = rng.randint(4, 6)
        p = rng.randint(m + 1, m + 6)
        n = rng.uniform(-20.0, -8.0)
        x = rng.uniform(0.35, 0.5)
        got = hyp2f1_eval(HypergeomParams(m, n, p), x)
        worst = max(worst, rel_err(got, mp_ref(m, n, p, x, 50)))
    assert worst <= 1e-12


@pytest.mark.parametrize("m,n,p,x", [
    (2, 0.5, 56, 0.4), (2, 0.5, 40, 0.4), (6, 7.0, 17, 0.05949987530913514),
])
def test_eval_baseline_reproducers_below_half(m, n, p, x):
    got = hyp2f1_eval(HypergeomParams(m, n, p), x)
    assert rel_err(got, mp_ref(m, n, p, x, 50)) <= 1e-12


@pytest.mark.parametrize("m,n,p,x", [
    (5, 22.5, 32, 0.5083782222261258),  # bound 2.9e-11 of the value
    (4, 19.04119012493857, 35, 0.596122670041623),  # 4.4e-13
    (2, 2.5, 50, 0.6183776528207239),  # 1.5e-13
])
def test_eval_series_fallback_sums_to_full_precision(m, n, p, x):
    # the closed form's rounding bound is rejected at these points, so the
    # value is the fallback series'
    f, bound = _closed_route(m, n, p, x)
    assert not _dd.certified(f, bound)
    got = hyp2f1_eval(HypergeomParams(m, n, p), x)
    assert rel_err(got, mp_ref(m, n, p, x, 50)) <= 2e-16


@pytest.mark.parametrize("n", [1e-9, 1.0 - 1e-10, 2.0 + 3e-11])
@pytest.mark.parametrize("x", [0.5, 0.7, 0.9])
def test_eval_near_integer_n_is_not_snapped(n, x):
    # the closed forms must not replace an n this close to an integer by it
    got = hyp2f1_eval(HypergeomParams(2, n, 3), x)
    assert rel_err(got, mp_ref(2, n, 3, x, 50)) <= 1e-13


def _count_calls(monkeypatch, *names):
    """Wrap each named hypergeom function; returns {name: list of call args}."""
    calls = {name: [] for name in names}
    for name in names:
        original = getattr(hypergeom, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name].append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(hypergeom, name, counting)
    return calls


def test_heun_leaves_below_half_skip_the_closed_forms(monkeypatch):
    calls = _count_calls(monkeypatch, "_closed_route")
    for (m, n, p), x in [((2, 0.5, 4), 0.4), ((1, 2.0, 3), 0.3),
                         ((3, -1.5, 6), 0.45), ((2, 0.5, 30), 0.05)]:
        heun_eval(HeunFamilyParams(m, n, p), x, 16)
    assert calls["_closed_route"] == []


def _near_one_points(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 6)
        p = rng.randint(m + 1, m + 12)
        n = rng.choice((float(rng.randint(-20, 20)), rng.randint(-20, 19) + 0.5,
                        rng.uniform(-20.0, 20.0)))
        yield m, n, p, 1.0 - 10.0 ** rng.uniform(-6.0, -1.0)


def test_eval_near_one_sweep_matches_mpmath(monkeypatch):
    # each point makes at most one closed-form call and none raises
    calls = _count_calls(monkeypatch, "_closed_route")
    worst = (0.0, ())
    for m, n, p, x in _near_one_points(300, 15801):
        calls["_closed_route"].clear()
        got = hyp2f1_eval(HypergeomParams(m, n, p), x)
        assert len(calls["_closed_route"]) <= 1, (m, n, p, x)
        worst = max(worst, (rel_err(got, mp_ref(m, n, p, x, 50)), (m, n, p, x)))
    assert worst[0] <= 1e-12, worst


@pytest.mark.parametrize("m,n,p,x", [
    (5, 13.5, 13, 0.9998163565145626),
    (4, 16.5, 14, 0.9999870266171291),
    (2, 10.0, 13, 0.999970342018802),
    (3, 9.0, 14, 0.99999310),  # off by 3.0e-8 through the series fallback
    (4, 37.5, 32, 0.9999981349596648),  # raised NotConverged before the near-1 route
])
def test_eval_near_one_points_the_series_could_not_sum(m, n, p, x):
    got = hyp2f1_eval(HypergeomParams(m, n, p), x)
    assert rel_err(got, mp_ref(m, n, p, x, 50)) <= 1e-12


def _connection_points(count, seed, min_offset=1, x_from=0.5):
    """m <= 10, p in [m+min_offset, m+60], n a half-integer or real with
    |n| <= 40 (so s = p-m-n is not an integer), 1-x log-uniform in
    [1e-12, 1-x_from]."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 10)
        p = rng.randint(m + min_offset, m + 60)
        n = rng.choice((rng.randint(-40, 39) + 0.5, rng.uniform(-40.0, 40.0)))
        yield m, n, p, 1.0 - 10.0 ** rng.uniform(-12.0, math.log10(1.0 - x_from))


def _connection_check(points):
    """(route values certified, their worst error, misses): a miss is a
    route value off mpmath by more than its bound plus half an ulp, or a
    NotConverged where mpmath's value lies inside float range."""
    certified, worst, misses = 0, 0.0, []
    for m, n, p, x in points:
        with mp.workdps(50):
            want = mp.hyp2f1(m, n, p, mp.mpf(x))
        try:
            near = hypergeom._near_one(m, n, p, x)
        except NotConverged:
            if abs(want) <= sys.float_info.max:
                misses.append((m, n, p, x, "raised"))
            continue
        if near is None:
            continue
        f, bound = near
        with mp.workdps(50):
            err = abs(mp.mpf(f) - want)
        if err > bound + math.ulp(f) / 2:
            misses.append((m, n, p, x, float(err), bound))
        if _dd.certified(f, bound):
            certified += 1
            worst = max(worst, float(err / abs(want)))
    return certified, worst, misses


@pytest.mark.parametrize("m,n,p,x", [
    (3, 4.000000001, 12, 0.9),
    (3, 3.999999999, 12, 0.85),
    (2, 24.000000001, 30, 0.999),
])
def test_near_one_route_declines_where_s_is_nearly_an_integer(m, n, p, x):
    # s = p-m-n is within 1e-9 of an integer, where the two parts of the
    # connection formula cancel: the route's bound rejects its value, which
    # is off by 3e-14 to 3e-7 here, and the next route answers
    want = mp_ref(m, n, p, x, 50)
    f, bound = hypergeom._near_one(m, n, p, x)
    assert not _dd.certified(f, bound)
    assert rel_err(f, want) > 1e-14
    assert rel_err(hyp2f1_eval(HypergeomParams(m, n, p), x), want) <= 1e-14


def test_near_one_route_raises_where_the_value_passes_float_range():
    # s = -38.5: (1-x)**s is 1e462, and B (1-x)**s, B = 2/(38.5*39.5), is
    # past float range too
    x = 1 - 1e-12
    with mp.workdps(50):
        assert mp.hyp2f1(1, 40.5, 3, mp.mpf(x)) > sys.float_info.max
    with pytest.raises(NotConverged, match="passes float range"):
        hyp2f1_eval(HypergeomParams(1, 40.5, 3), x)
    # s = -34.5: (1-x)**s passes float range but the value, 3.5e300, does
    # not; the route declines and the general form answers, its scale kept
    # apart as a power of two
    x = 1 - 1e-9
    assert hypergeom._near_one(1, 45.5, 12, x) is None
    got = hyp2f1_eval(HypergeomParams(1, 45.5, 12), x)
    assert rel_err(got, mp_ref(1, 45.5, 12, x, 50)) <= 1e-14


def test_near_one_route_declines_where_a_tail_term_passes_float_range():
    # at (1, 0.5; 5000; 0.8) the terms of the second 1-x series, with
    # p-m = 4999, pass float range, so the route declines; the series
    # fallback answers within 1e-16
    x = 0.8
    z = 1.0 - x
    assert hypergeom._near_one_tail(1, 0.5, 0, -4998, z) is not None
    assert hypergeom._near_one_tail(4999, -0.5, 5000, 5000, z) is None
    assert hypergeom._near_one(1, 0.5, 5000, x) is None
    got = hyp2f1_eval(HypergeomParams(1, 0.5, 5000), x)
    assert got == 1.0000800192038404
    assert rel_err(got, mp_ref(1, 0.5, 5000, x, 50)) <= 1e-16
    # at p = 10**300 the first term of the second series is already inf:
    # _series raises NonFinite, the tail declines, and the series fallback
    # answers 1 + 4.5e-301
    p = 10 ** 300
    with pytest.raises(NonFinite, match="at index 0"):
        hypergeom._series(p - 1, -0.5, p, -0.5, p, 0.1, 1)
    assert hypergeom._near_one_tail(p - 1, -0.5, p, p, 0.1) is None
    assert hypergeom._near_one(1, 0.5, p, 0.9) is None
    assert hyp2f1_eval(HypergeomParams(1, 0.5, p), 0.9) == 1.0


def test_near_one_route_declines_where_a_coefficient_passes_float_range():
    # B = (m)_(p-m) / (-s)_(p-m) at (208, 761.999999; 1261) is past float
    # range while both 1-x series sum; the route declines and the closed
    # form answers
    m, n, p, x = 208, 761.999999, 1261, 0.99
    q, z = p - m, 1.0 - x
    assert hypergeom._near_one_tail(m, n, 0, 1 - q, z) is not None
    assert hypergeom._near_one_tail(q, -n, p, q + 1, z) is not None
    num, den = n.as_integer_ratio()
    with pytest.raises(OverflowError):
        _dd.dd_from_ratio(math.perm(p - 1, q) * den ** q,
                          math.prod(i * den - (q * den - num) for i in range(q)))
    assert hypergeom._near_one(m, n, p, x) is None
    got = hyp2f1_eval(HypergeomParams(m, n, p), x)
    assert rel_err(got, mp_ref(m, n, p, x, 50)) <= 1e-13


@pytest.mark.parametrize("m,n,p", [
    (1, 0.5, 2), (5, 13.5, 13), (4, 37.5, 32), (10, -39.25, 70),
    (3, 19.04119012493857, 60),
])
def test_near_one_route_next_to_one(m, n, p):
    x = 1 - 1e-12
    f, bound = hypergeom._near_one(m, n, p, x)
    assert _dd.certified(f, bound)
    assert rel_err(f, mp_ref(m, n, p, x, 50)) <= 1e-14
    assert hyp2f1_eval(HypergeomParams(m, n, p), x) == f


def test_near_one_route_bound_covers_each_error_source():
    # a bound without the term-ratio roundings misses the first two points,
    # one without the error of the float (1-x)**s the last two
    points = [(6, 5.935933601020437, 56, 0.6979113105317206),
              (1, 17.5, 39, 0.7024521668777575),
              (5, 28.5, 28, 0.9999999999854942),
              (7, 11.479461183347638, 18, 0.9999867333361375)]
    assert _connection_check(points)[2] == []


def test_near_one_tail_bound_is_a_bound():
    # each returned (sum, bound) is within its bound of the series' exact sum
    # 2F1(a, nb+ib; nb+ic; z) - 1, nb the float it is given
    returned = 0
    for a, nb, ib, ic, z in _near_one_tail_points(1000, 3203):
        tail = hypergeom._near_one_tail(a, nb, ib, ic, z)
        if tail is None:
            continue
        returned += 1
        got, bound = tail
        with mp.workdps(40):
            want = mp.hyp2f1(a, mp.mpf(nb) + ib, mp.mpf(nb) + ic, mp.mpf(z)) - 1
            err = abs(mp.mpf(got) - want)
        assert err <= bound, (a, nb, ib, ic, z, float(err), bound)
    assert returned >= 1900


@pytest.mark.parametrize("m,n,p,x", [
    (2, 11.5, 12, 0.856869271655717),
    (1, 4.5, 8, 0.8230869013989461),
    (3, 1.5, 6, 0.8302721165154864),
    (5, 4.3770893346014565, 14, 0.9124011893303506),
    (6, 12.162858579046086, 16, 0.9698264677229775),
    (4, 11.5, 13, 0.9233762709411156),
    (2, 3.5, 9, 0.8777004337647348),
    (3, 2.5, 5, 0.8365551857993474),
])
def test_eval_near_one_route_yields_where_its_tails_lose_digits(m, n, p, x):
    # hyp2f1-grid points where the near-1 route's float tails put its value
    # 1.6 to 34 ulp off, within 1e-13; their (7 terms + 3) units of sum|t_k|
    # reject it, and the general closed form answers correctly rounded
    assert not _dd.certified(*hypergeom._near_one(m, n, p, x))
    with mp.workdps(60):
        want = float(mp.hyp2f1(m, n, p, mp.mpf(x)))
    assert hyp2f1_eval(HypergeomParams(m, n, p), x) == want


def test_near_one_route_on_the_large_p_slice():
    # p in [m+40, m+60], x from the route's start up to 1 - 1e-12
    points = list(_connection_points(150, 2202, 40, hypergeom._X_NEAR))
    certified, worst, misses = _connection_check(points)
    assert misses == []
    assert certified >= 140
    assert worst <= 1e-14


@pytest.mark.sweep
def test_near_one_route_sweep():
    # every route value is within its bound of mpmath, and from the route's
    # start up the dispatcher answers every point within 1e-12 or raises
    # where the value is past float range (below it, route 5 keeps the gap
    # of test_eval_dispatcher_sweep)
    points = list(_connection_points(1500, 2201))
    certified, worst, misses = _connection_check(points)
    assert misses == []
    assert certified >= 1400
    assert worst <= 1e-14
    for m, n, p, x in points:
        if x < hypergeom._X_NEAR:
            continue
        want = mp_ref(m, n, p, x, 50)
        try:
            got = hyp2f1_eval(HypergeomParams(m, n, p), x)
        except NotConverged:
            assert abs(want) > sys.float_info.max, (m, n, p, x)
            continue
        assert rel_err(got, want) <= 1e-12, (m, n, p, x)


def test_eval_makes_at_most_one_closed_route_call(monkeypatch):
    calls = _count_calls(monkeypatch, "_closed_route", "hyp2f1_series")
    # the points of test_eval_closed_path_is_bit_stable; the last one is
    # below _X_SWITCH, where the full-precision series is accepted first
    for m, n, p, x, routes in [(1, 2.0, 3, 0.5, 1), (3, 2.5, 8, 0.7, 1),
                               (1, 2.5, 5, 0.6, 1), (1, 3.0, 6, 0.5, 1),
                               (4, 1.0, 7, 0.4, 0)]:
        calls["_closed_route"].clear()
        hyp2f1_eval(HypergeomParams(m, n, p), x)
        assert len(calls["_closed_route"]) == routes, (m, n, p, x)
    for log in calls.values():
        log.clear()
    # s = -5.5: the near-1 route answers before any closed form
    hyp2f1_eval(HypergeomParams(5, 13.5, 13), 0.9998163565145626)
    assert calls["_closed_route"] == []
    assert calls["hyp2f1_series"] == []


@pytest.mark.parametrize("m,n,p,x", [
    (5, 6.5, 30, 0.5141198046475514),  # accepted at ratio 7.0e13, off by 2.5e-10
    (2, 1.4925073596746863, 46, 0.9154002924420553),  # ratio 2.5e15, off by 2.2e-10
    (5, -15.5, 40, 0.5000751575825655),  # off by 3.6e-2
])
def test_eval_general_form_sees_all_its_cancellation(m, n, p, x):
    got = hyp2f1_eval(HypergeomParams(m, n, p), x)
    assert rel_err(got, mp_ref(m, n, p, x, 50)) <= 1e-12


def test_closed_route_accepts_only_accurate_general_values():
    # every value the dispatcher's test keeps must be as good as it claims
    rng = random.Random(4211)
    accepted = []
    for _ in range(300):
        m = rng.randint(2, 6)
        p = rng.randint(m + 1, m + 40)
        n = rng.choice((float(rng.randint(-20, 20)), rng.randint(-20, 19) + 0.5,
                        rng.uniform(-20.0, 20.0)))
        x = 1.0 - 10.0 ** rng.uniform(-6.0, math.log10(0.5))
        f, bound = _closed_route(m, n, p, x)
        if _dd.certified(f, bound):
            accepted.append((rel_err(f, mp_ref(m, n, p, x, 50)), (m, n, p, x)))
    assert len(accepted) >= 200
    worst = max(accepted)
    assert worst[0] <= 1e-12, worst


def _closed_points(count, seed):
    """Every closed form: the classifier's pick for m <= 6, p <= m+40, the
    general form and form B of (1, k; k+l+1) and, for (1, 2; p), its own
    form and those two at k = 2; a third of x in each of [1e-3, 1/2],
    [1/2, 0.99] and 1 - [1e-9, 1e-2].  Each point is (m, n, p, x, form):
    form None takes _closed_route, else it is the body and its arguments."""
    rng = random.Random(seed)
    for _ in range(count):
        u = rng.random()
        if u < 1 / 3:
            x = rng.uniform(1e-3, 0.5)
        elif u < 2 / 3:
            x = rng.uniform(0.5, 0.99)
        else:
            x = 1 - 10 ** rng.uniform(-9, -2)
        family = rng.randrange(3)
        if family == 0:
            m = rng.randint(1, 6)
            n = rng.choice((float(rng.randint(-20, 40)), rng.randint(-20, 39) + 0.5,
                            rng.uniform(-20.0, 40.0)))
            yield m, n, rng.randint(m + 1, m + 40), x, None
        elif family == 1:  # (1, k; k+l+1), k != 2
            k = rng.choice((1, 3, 4, 5, 6))
            p = rng.randint(k + 1, k + 41)
            body = rng.choice((_eq_general, _eq_1m_b))
            yield 1, float(k), p, x, _1k_form(body, k, p)
        else:
            p = rng.randint(3, 42)
            body = rng.choice((_eq_12_1, _eq_general, _eq_1m_b))
            yield 1, 2.0, p, x, (body, p - 2) if body is _eq_12_1 else _1k_form(body, 2, p)


def _1k_form(body, k, p):
    """The general form or form B of (1, k; p) with its arguments."""
    return (body, 1, float(k), p) if body is _eq_general else (body, k, p - k - 1)


def _bound_misses(points):
    """(bodies seen, misses): a miss is a closed value off mpmath by more
    than its rounding bound plus half an ulp."""
    bodies, misses = set(), []
    for m, n, p, x, form in points:
        try:
            if form is None:
                f, bound = _closed_route(m, n, p, x)
            else:
                f, bound = _assemble(form[0], x, *form[1:])
        except NotConverged:  # the value passes float range
            continue
        bodies.add(None if form is None else form[0])
        with mp.workdps(50):
            err = abs(mp.mpf(f) - mp.hyp2f1(m, n, p, mp.mpf(x)))
        if err > bound + math.ulp(f) / 2:
            misses.append((m, n, p, x, form, float(err), bound))
    return bodies, misses


def test_closed_route_rounding_bound_is_a_bound():
    # the last point's power integrals carry ~16 units of 2**-104 from their
    # exp argument; a bound that leaves them out predicts 5.2e-16 for its
    # 1.0e-15 error
    points = list(_closed_points(200, 1601))
    points.append((4, 19.04119012493857, 35, 0.596122670041623, None))
    bodies, misses = _bound_misses(points)
    assert bodies == {None, _eq_general, _eq_1m_b, _eq_12_1}
    assert misses == []


@pytest.mark.sweep
def test_closed_route_rounding_bound_is_a_bound_on_a_large_sweep():
    assert _bound_misses(_closed_points(2000, 1602))[1] == []


@pytest.mark.parametrize("m,n,p,x", [
    (1, 60.5, 70, 1 - 1e-9),
    (2, 45.25, 60, 1 - 1e-12),
    (1, 34.4, 40, 1 - 1e-9),  # just below the band: the direct form holds
    (1, 34.8, 40, 1 - 1e-9),
    (2, 34.9, 45, 1 - 1e-9),
    (1, 45.5, 12, 1 - 1e-9),  # the scale alone passes float range
    (1, 53.3, 20, 1 - 1e-9),
    (1, 52.6, 20, 1 - 1e-9),  # the scale passes the range of a dd_mul
    (2, 53.5, 30, 1 - 1e-12),
])
def test_eval_overflowing_power_integral_takes_euler(m, n, p, x, monkeypatch):
    # large n next to x = 1, with the near-1 route on and off.  s = p-m-n
    # is not an integer here, so the near-1 route answers first.  With it
    # off, the general form answers: at the first five points its scale
    # (1-x)**(q+1-n) is a plain double-double, at the last four it passes
    # the range a dd_mul takes, or float range, and is kept apart as
    # 2**E g.  The series, which stops short of the sum there, is never
    # tried.
    want = mp_ref(m, n, p, x, 50)
    assert rel_err(hyp2f1_eval(HypergeomParams(m, n, p), x), want) <= 1e-14
    monkeypatch.setattr(hypergeom, "_X_NEAR", 2.0)
    assert rel_err(hyp2f1_eval(HypergeomParams(m, n, p), x), want) <= 1e-14


def test_public_closed_forms_raise_in_the_non_finite_band():
    # the scale (1-x)**(q+1-n) passes ~1.3e300, past which a dd_mul turns
    # nan, at the first two points: the general form keeps it apart as
    # 2**E g and answers.  At (1, 60.5; 20) the value itself, 1.87e358,
    # passes float range, and the closed form raises
    x = 1 - 1e-9
    for (m, n, p), want in [((1, 52.6, 20), 3.940506602356998e+288),
                            ((2, 61.6, 30), 4.8497893933356375e+286)]:
        got = hyp2f1_closed(HypergeomParams(m, n, p), x)
        assert got == want
        assert rel_err(got, mp_ref(m, n, p, x, 50)) <= 1e-15
    with pytest.raises(NotConverged, match="overflows float range"):
        hyp2f1_closed(HypergeomParams(1, 60.5, 20), x)


@pytest.mark.parametrize("m,n,p,x", [
    (1, 60.5, 70, 1 - 1e-9),
    (2, 45.25, 60, 1 - 1e-12),
    (1, 34.4, 40, 1 - 1e-9),
    (1, 34.8, 40, 1 - 1e-9),
    (2, 34.9, 45, 1 - 1e-9),
])
def test_closed_form_holds_for_large_n_next_to_one(m, n, p, x):
    # the general form's one power is (1-x)**(q+1-n), q+1-n >= 4.2 here,
    # though single terms (1-x)**(i+k+1-n) of its expansion reach 1e300
    want = mp_ref(m, n, p, x, 50)
    assert rel_err(hyp2f1_closed(HypergeomParams(m, n, p), x), want) <= 1e-16


def test_closed_forms_raise_where_an_integer_power_underflows():
    # the value at (5, 900; 6), with its scale (1-x)**-899 kept apart as
    # 2**E g, passes float range as 2**E goes back on; x**-3 of the
    # prefactor divides by a power that underflows to 0.  Both are typed,
    # not OverflowError or ZeroDivisionError
    with pytest.raises(NotConverged, match="overflows float range"):
        hyp2f1_eval(HypergeomParams(5, 900.0, 6), 0.999)
    with pytest.raises(NotConverged, match="overflows float range"):
        hyp2f1_closed(HypergeomParams(2, 1.5, 4), 1e-300)


@pytest.mark.parametrize("m,n,p,x,want", [
    (1, 3.0, 1040, 0.999, 1.002892845962787),  # a coefficient past Dekker's split
    (2, 4.0, 1037, 0.98, 1.0076142110246977),  # the same
    (1, 3.0, 1042, 0.999, 1.0028872720999864),  # a coefficient a/b past float range
])
def test_general_form_declines_where_only_its_coefficients_leave_range(m, n, p, x, want):
    # the value is near 1 and the defining series takes a few terms, but
    # the general form's heads C(q, i) S_i pass what its sums take; it
    # declines, where it once raised as if the value passed float range
    assert _closed_route(m, n, p, x) is None
    with pytest.raises(NotConverged, match="power or coefficients leave float range"):
        hyp2f1_closed(HypergeomParams(m, n, p), x)
    got = hyp2f1_eval(HypergeomParams(m, n, p), x)
    assert got == want
    assert rel_err(got, mp_ref(m, n, p, x, 50)) <= 1.2e-16


def test_general_form_declines_where_its_exponent_leaves_range():
    # u = (q+1-n) log(1-x) passes Dekker's split at |n| past about 1.3e300:
    # it was nan, and _dd._exp_parts' round(nan) raised a bare ValueError
    x = 0.6467903893887852
    assert _closed_route(2, 1e308, 40, x) is None
    with pytest.raises(NotConverged, match="power or coefficients leave float range"):
        hyp2f1_closed(HypergeomParams(2, 1e308, 40), x)
    with pytest.raises(NonFinite):  # the fallback, route 5
        hyp2f1_eval(HypergeomParams(2, 1e308, 40), x)
    with pytest.raises(NonFinite):
        heun_eval(HeunFamilyParams(2, 1e308, 40), x, 37)


def test_eval_fallback_past_float_range_raises():
    # (p-1) log10(1/x) = 23.8 skips the closed form, so the fallback series
    # answers; its terms stay finite, but their sum, like the value
    # (1.8e308), passes float range.  It was returned as inf
    assert hyp2f1_series(1.0, 1462.0, 80.0, 0.5).value == 9.612487652386705e+307
    assert hyp2f1_eval(HypergeomParams(1, 1462.0, 80), 0.5) == 9.612487652386705e+307
    with pytest.raises(NotConverged, match="series fallback passes float range"):
        hyp2f1_eval(HypergeomParams(1, 1463.0, 80), 0.5)


def test_eval_series_below_one_half_at_its_term_cap_raises():
    # n = p/x: the term ratio (n+k) x / (p+k) stays within ~1e-4 of 1 past
    # the cap, so route 1 is not converged and the dispatcher raises
    n, p, x = 2040816326.5306122, 10 ** 9, 0.49
    assert not hyp2f1_series(1.0, n, float(p), x).converged
    with pytest.raises(NotConverged, match="^series did not converge$"):
        hyp2f1_eval(HypergeomParams(1, n, p), x)


def test_closed_form_raises_where_its_prefactor_passes_float_range():
    # x**(p-1) = 1e-318 is subnormal, so 1 / x**(p-1) passes float range and
    # the general form's total turns nan, which _assemble reports as typed;
    # route 1 answers the dispatcher
    params, x = HypergeomParams(1, 0.5, 160), 0.01
    assert math.isnan(_eq_general(1, 0.5, 160, _dd.context(x)).total[0])
    with pytest.raises(NotConverged, match="^closed form overflows float range$"):
        hyp2f1_closed(params, x)
    assert rel_err(hyp2f1_eval(params, x), mp_ref(1, 0.5, 160, x)) <= 1e-15


def test_eval_overflow_band_never_returns_the_series(monkeypatch):
    # from just below where the scale passes the range of a dd_mul
    # (n ~ 52.35) to past where it passes float range (n ~ 53.25), no point
    # falls to the series, with the near-1 route on or off (the general
    # form answers, its scale kept apart as 2**E g)
    calls = _count_calls(monkeypatch, "hyp2f1_series")
    for x_near in (hypergeom._X_NEAR, 2.0):
        monkeypatch.setattr(hypergeom, "_X_NEAR", x_near)
        for k in range(30):
            n = 52.2 + 0.05 * k
            got = hyp2f1_eval(HypergeomParams(1, n, 20), 1 - 1e-9)
            assert rel_err(got, mp_ref(1, n, 20, 1 - 1e-9, 50)) <= 1e-14, (n, x_near)
    assert calls["hyp2f1_series"] == []


def _large_n_points(count, seed):
    """Large n next to x = 1: m <= 10, p <= m+40, n an integer, a
    half-integer or real in [20, 90], 1-x log-uniform in [1e-15, 1e-4]."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 10)
        p = rng.randint(m + 1, m + 40)
        n = rng.choice((float(rng.randint(20, 90)), rng.randint(20, 89) + 0.5,
                        rng.uniform(20.0, 90.0)))
        yield m, n, p, 1.0 - 10.0 ** rng.uniform(-15.0, -4.0)


def test_general_form_bound_holds_where_its_scale_is_kept_apart(monkeypatch):
    # where the scale passes the range of a dd_mul, the general form sums
    # with it as 2**E g (_dd._exp_parts); every certified value, on either
    # side of that switch, is within its bound plus half an ulp of mpmath.
    # The rest raise: their values pass float range
    split = []
    original = hypergeom._exp_parts

    def spy(u):
        split.append(u)
        return original(u)

    monkeypatch.setattr(hypergeom, "_exp_parts", spy)
    certified = raised = 0
    for m, n, p, x in _large_n_points(800, 3401):
        try:
            f, bound = _closed_route(m, n, p, x)
        except NotConverged:
            raised += 1
            continue
        if not _dd.certified(f, bound):
            continue
        certified += 1
        with mp.workdps(60):
            err = abs(mp.mpf(f) - mp.hyp2f1(m, n, p, mp.mpf(x)))
        assert err <= bound + math.ulp(f) / 2, (m, n, p, x, float(err), bound)
    assert (certified, raised, len(split)) == (440, 360, 390)


def _dispatcher_points(count, seed):
    """The dispatcher's whole domain: m <= 10, p <= m+60, n an integer, a
    half-integer or real with |n| <= 40; 30 % of x with 1-x log-uniform in
    [1e-12, 0.1], 20 % log-uniform in [1e-8, 0.1], the rest uniform in
    [0.01, 0.99]."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 10)
        n = rng.choice((float(rng.randint(-40, 40)), rng.randint(-40, 39) + 0.5,
                        rng.uniform(-40.0, 40.0)))
        p = rng.randint(m + 1, m + 60)
        u = rng.random()
        if u < 0.3:
            x = 1.0 - 10.0 ** rng.uniform(-12.0, -1.0)
        elif u < 0.5:
            x = 10.0 ** rng.uniform(-8.0, -1.0)
        else:
            x = rng.uniform(0.01, 0.99)
        yield m, n, p, x


def _dispatcher_sweep(count, seed):
    """(typed errors, points off mpmath by more than 1e-12)."""
    typed, off = 0, []
    for m, n, p, x in _dispatcher_points(count, seed):
        try:
            got = hyp2f1_eval(HypergeomParams(m, n, p), x)
        except (NotConverged, NonFinite):
            typed += 1
            continue
        err = rel_err(got, mp_ref(m, n, p, x, 50))
        if err > 1e-12:
            off.append((m, n, p, x, err))
    return typed, off


@pytest.mark.sweep
def test_eval_assembles_at_most_one_closed_form_on_the_dispatcher_sweep(monkeypatch):
    # one closed form per call, also where its scale passes float range
    calls = _count_calls(monkeypatch, "_closed_route")
    for m, n, p, x in _dispatcher_points(12000, 1712):
        calls["_closed_route"].clear()
        try:
            hyp2f1_eval(HypergeomParams(m, n, p), x)
        except (NotConverged, NonFinite):
            pass
        assert len(calls["_closed_route"]) <= 1, (m, n, p, x)


@pytest.mark.sweep
def test_eval_dispatcher_sweep():
    # the typed errors are pinned: they are the 5 points whose values lie
    # beyond float range.  No point is off by more than 1e-12, though about
    # 430 points still take the unchecked fallback series (route 5): the
    # general closed form certifies those where that series cancels (m >= 8,
    # non-integer n <= -29.5, x <= 0.79)
    typed, off = _dispatcher_sweep(12000, 1712)
    assert typed == 5
    assert off == []
