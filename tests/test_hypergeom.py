"""Closed 2F1 evaluators against the defining series and mpmath."""

import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elemhyp import (
    DomainError, HeunFamilyParams, HypergeomParams, InvalidParams,
    NonFinite, NotConverged, heun_eval, hyp2f1_closed_12, hyp2f1_closed_1m,
    hyp2f1_closed_general, hyp2f1_closed_m1, hyp2f1_eval, hyp2f1_series,
)
from elemhyp import _dd, hypergeom, numcore
from elemhyp.hypergeom import _closed_route


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


@pytest.mark.parametrize("m,n,p", [
    (1, 2.0, 3), (2, 3.75, 3), (2, -2.5, 5), (3, 0.5, 7), (4, 1.0, 8),
])
@pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
def test_closed_general_vs_mpmath(m, n, p, x):
    got = hyp2f1_closed_general(HypergeomParams(m, n, p), x)
    assert math.isclose(got, mp_ref(m, n, p, x), rel_tol=1e-10)


def test_closed_general_known_value():
    got = hyp2f1_closed_general(HypergeomParams(1, 2.0, 3), 0.5)
    assert math.isclose(got, 1.5451774444795625, rel_tol=1e-14)


@pytest.mark.parametrize("n,p", [(-2.5, 2), (0.5, 5), (2.0, 8)])
@pytest.mark.parametrize("x", [0.2, 0.7])
def test_closed_single_sum_form(n, p, x):
    got = hyp2f1_closed_m1(n, p, x)
    assert math.isclose(got, mp_ref(1, n, p, x), rel_tol=1e-11)


def test_closed_single_sum_validation():
    with pytest.raises(InvalidParams):
        hyp2f1_closed_m1(2.5, 1, 0.5)


@pytest.mark.parametrize("m,l", [(1, 0), (2, 1), (3, 0), (4, 3), (6, 6)])
@pytest.mark.parametrize("x", [0.15, 0.6, 0.9])
def test_closed_log_family_both_variants(m, l, x):
    ref = mp_ref(1, m, m + l + 1, x)
    va = hyp2f1_closed_1m(m, l, x, "A")
    vb = hyp2f1_closed_1m(m, l, x, "B")
    assert math.isclose(va, ref, rel_tol=1e-11)
    assert math.isclose(va, vb, rel_tol=1e-12)


@pytest.mark.parametrize("n", [1, 4, 9, 12])
@pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
def test_closed_12_family_all_variants(n, x):
    ref = mp_ref(1, 2, n + 2, x)
    vals = [hyp2f1_closed_12(n, x, v) for v in (1, 2, 3)]
    for v in vals:
        assert math.isclose(v, ref, rel_tol=1e-11)
    assert math.isclose(vals[0], vals[1], rel_tol=1e-12)
    assert math.isclose(vals[0], vals[2], rel_tol=1e-12)


def test_closed_families_chain_together():
    # the two-term general form at its lowest order reduces to the log family,
    # which at its own lowest order reduces to the 12 family
    for n in range(1, 7):
        for x in (0.2, 0.7):
            via_log = hyp2f1_closed_1m(2, n - 1, x, "A")
            via_12 = hyp2f1_closed_12(n, x, 1)
            assert math.isclose(via_log, via_12, rel_tol=1e-12)


def test_closed_variant_validation():
    with pytest.raises(InvalidParams):
        hyp2f1_closed_1m(2, 1, 0.5, "C")
    with pytest.raises(InvalidParams):
        hyp2f1_closed_12(3, 0.5, 4)


@pytest.mark.parametrize("x", [0.0, 1.0, -0.3])
def test_closed_forms_require_open_unit_interval(x):
    with pytest.raises(DomainError):
        hyp2f1_closed_general(HypergeomParams(2, 0.5, 4), x)
    with pytest.raises(DomainError):
        hyp2f1_closed_m1(0.5, 3, x)
    with pytest.raises(DomainError):
        hyp2f1_closed_1m(2, 1, x)
    with pytest.raises(DomainError):
        hyp2f1_closed_12(2, x)


def test_eval_trivial_points():
    assert hyp2f1_eval(HypergeomParams(2, 1.5, 4), 0.0) == 1.0
    assert hyp2f1_eval(HypergeomParams(3, 0.0, 5), 0.7) == 1.0


def test_eval_sums_short_polynomials_exactly():
    # a degree-1 polynomial case that lands exactly on a rounding tie, which
    # the exact sum rounds to even: 1 - 0.3 = 0.7 as in float arithmetic
    assert hyp2f1_eval(HypergeomParams(2, -1.0, 4), 0.6) == 0.7
    got = hyp2f1_eval(HypergeomParams(3, -4.0, 6), 0.55)
    assert math.isclose(got, mp_ref(3, -4, 6, 0.55), rel_tol=1e-15)
    # the float64 series was off by 3.8e-9, 5.9e-10, 1.1e-12 and, below
    # _X_SWITCH where its rounding bound turns it away, 2.0e-12
    for m, n, p, x, want in [
        (6, -16.0, 7, 0.8805719072144087, "2.874726557960010705047293e-5"),
        (4, -15.0, 5, 0.9966777000129244, "2.614551894779879077606124e-4"),
        (6, -15.0, 14, 0.9953351182457846, "4.642742523925244500893505e-3"),
        (6, -15.0, 7, 0.47610766497553914, "1.546217083137754185634574e-3"),
    ]:
        got = hyp2f1_eval(HypergeomParams(m, n, p), x)
        with mp.workdps(30):
            assert abs(got - mp.mpf(want)) <= 1e-15 * mp.mpf(want), (m, n, p, x)


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
    (4, 1.0, 7, 0.4, 1.3070003284664935),  # n = 1 swaps into the 1m family
], ids=["12", "general", "m1", "1m", "swap-1m"])
def test_eval_closed_path_is_bit_stable(m, n, p, x, want):
    assert hyp2f1_eval(HypergeomParams(m, n, p), x) == want


def test_closed_route_forms_each_power_integral_once(monkeypatch):
    # the general form at (3, 2.5; 8) sums 45 power integrals over 7 shifts,
    # and every exponent there takes (1-x)**(1-n), one dd_exp, as its base
    shifts = []
    original = _dd.ClosedFormContext._power_integral

    def counting(self, shift, n):
        shifts.append(shift)
        return original(self, shift, n)

    monkeypatch.setattr(_dd.ClosedFormContext, "_power_integral", counting)
    exps = []
    for name in ("dd_exp", "dd_expm1"):
        def counting_exp(u, _name=name, _original=getattr(_dd, name)):
            exps.append(_name)
            return _original(u)

        monkeypatch.setattr(_dd, name, counting_exp)
    _dd.context.cache_clear()  # an earlier test may have filled x = 0.7
    _closed_route(3, 2.5, 8, 0.7)
    assert sorted(shifts) == list(range(7))
    assert exps == ["dd_exp"]


def test_eval_domain_and_convergence():
    with pytest.raises(DomainError):
        hyp2f1_eval(HypergeomParams(1, 2.0, 3), -0.1)
    with pytest.raises(DomainError):
        hyp2f1_eval(HypergeomParams(1, 2.0, 3), 1.0)
    # the closed form's rounding bound is rejected, and the series fallback
    # is still going at the 100000-term cap
    with pytest.raises(NotConverged):
        hyp2f1_eval(HypergeomParams(4, 37.5, 32), 0.9999981349596648)


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
    (6, 18.5, 24, 0.5033840330246482),  # 4.9e-13 off at tolerance 1e-12
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
])
def test_eval_near_one_points_the_series_could_not_sum(m, n, p, x):
    got = hyp2f1_eval(HypergeomParams(m, n, p), x)
    assert rel_err(got, mp_ref(m, n, p, x, 50)) <= 1e-12


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
    hyp2f1_eval(HypergeomParams(5, 13.5, 13), 0.9998163565145626)
    assert [args[:3] for args in calls["_closed_route"]] == [(5, 13.5, 13)]
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
    """Every family and variant of _closed_route: m <= 6, p <= m+40, a third
    of x in each of [1e-3, 1/2], [1/2, 0.99] and 1 - [1e-9, 1e-2]."""
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
            yield 1, float(k), rng.randint(k + 1, k + 41), x, rng.choice("AB")
        else:
            yield 1, 2.0, rng.randint(3, 42), x, rng.choice((1, 2, 3))


def _bound_misses(points):
    """(variants seen, misses): a miss is a closed value off mpmath by more
    than its rounding bound plus half an ulp."""
    variants, misses = set(), []
    for m, n, p, x, variant in points:
        try:
            f, bound = _closed_route(m, n, p, x, variant)
        except NotConverged:  # the value passes float range
            continue
        variants.add(variant)
        with mp.workdps(50):
            err = abs(mp.mpf(f) - mp.hyp2f1(m, n, p, mp.mpf(x)))
        if err > bound + math.ulp(f) / 2:
            misses.append((m, n, p, x, variant, float(err), bound))
    return variants, misses


def test_closed_route_rounding_bound_is_a_bound():
    # the last point's power integrals carry ~16 units of 2**-104 from their
    # exp argument; a bound that leaves them out predicts 5.2e-16 for its
    # 1.0e-15 error
    points = list(_closed_points(200, 1601))
    points.append((4, 19.04119012493857, 35, 0.596122670041623, None))
    variants, misses = _bound_misses(points)
    assert variants == {None, "A", "B", 1, 2, 3}
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
    (1, 45.5, 12, 1 - 1e-9),  # the Euler scale alone passes float range
])
def test_eval_overflowing_power_integral_takes_euler(m, n, p, x):
    # the direct form's power integrals overflow float range, or turn the
    # double-double products non-finite on their way there; the Euler form
    # (p-m, p-n; p) does not, and the series, which stops short of the sum
    # there, is never tried
    got = hyp2f1_eval(HypergeomParams(m, n, p), x)
    assert rel_err(got, mp_ref(m, n, p, x, 50)) <= 1e-14


def test_public_closed_forms_raise_in_the_non_finite_band():
    # dd products past ~1.3e300 turn these values nan before any
    # OverflowError; the unguarded public forms raise instead of returning it
    with pytest.raises(NotConverged, match="overflows float range"):
        hyp2f1_closed_m1(34.8, 40, 1 - 1e-9)
    with pytest.raises(NotConverged, match="overflows float range"):
        hyp2f1_closed_general(HypergeomParams(2, 34.9, 45), 1 - 1e-9)


def test_closed_forms_raise_where_an_integer_power_underflows():
    # (1-x)**-899 of an integer power integral and x**-2 of the prefactor
    # divide by a power that underflows to 0; both are typed, not
    # ZeroDivisionError
    with pytest.raises(NotConverged, match="overflows float range"):
        hyp2f1_eval(HypergeomParams(5, 900.0, 6), 0.999)
    with pytest.raises(NotConverged, match="overflows float range"):
        hyp2f1_closed_general(HypergeomParams(2, 1.5, 4), 1e-300)


def test_eval_overflow_band_never_returns_the_series(monkeypatch):
    # from just below where the direct form turns non-finite (n ~ 34.52)
    # to past where it overflows (n ~ 35.3), no point falls to the series
    calls = _count_calls(monkeypatch, "hyp2f1_series")
    for k in range(30):
        n = 34.5 + 0.03 * k
        got = hyp2f1_eval(HypergeomParams(1, n, 40), 1 - 1e-9)
        assert rel_err(got, mp_ref(1, n, 40, 1 - 1e-9, 50)) <= 1e-14, n
    assert calls["hyp2f1_series"] == []


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
def test_eval_dispatcher_sweep():
    # the typed errors are pinned; the misses left, 1.1e-12 to 7.9e-11, all
    # have m >= 8 and n <= -29.5, where the closed form's bound is rejected
    # and the fallback series cancels in float64 with no rounding check
    typed, off = _dispatcher_sweep(12000, 1712)
    assert typed == 34
    assert len(off) <= 10, off
