"""Operator moments: closed formulas against direct kernel summation."""

import math

import mpmath as mp
import pytest

from elemhyp import (
    DomainError, EvalPolicy, GmkzParams, InvalidParams, Monomial, gmkz_apply,
    gmkz_e1, gmkz_moment_abel, ln_moment_e2, ln_moment_e2_direct, mkz_moment,
    mkz_moment_e2,
)

TIGHT = EvalPolicy(rel_tol=1e-14)

XGRID = [round(0.1 * i, 1) for i in range(1, 10)]


def classical(n):
    return GmkzParams(n, 1, 0.0, 0.0)


def test_params_validation():
    GmkzParams(2, -1, 0.0, 0.0)  # n + r = 1 still admissible
    with pytest.raises(InvalidParams):
        GmkzParams(0, 1, 0.0, 0.0)
    with pytest.raises(InvalidParams):
        GmkzParams(2, -2, 0.0, 0.0)
    with pytest.raises(InvalidParams):
        GmkzParams(2, 1, 1.0, 2.0)  # beta above alpha
    with pytest.raises(InvalidParams):
        GmkzParams(2, 1, 1.0, -0.5)


def test_monomial():
    assert Monomial(2)(0.5) == 0.25
    assert Monomial(0)(0.9) == 1.0
    with pytest.raises(InvalidParams):
        Monomial(-1)


@pytest.mark.parametrize("n", [1, 4, 10])
@pytest.mark.parametrize("x", [0.2, 0.8])
def test_operator_reproduces_constants_and_identity(n, x):
    e0 = gmkz_apply(classical(n), Monomial(0), x, TIGHT)
    assert e0.converged
    assert math.isclose(e0.value, 1.0, rel_tol=1e-12)
    e1 = gmkz_apply(classical(n), Monomial(1), x, TIGHT)
    assert math.isclose(e1.value, x, rel_tol=1e-12)


def test_operator_kernel_vs_mpmath():
    # non-classical parameters, summed independently at high precision
    n, rop, a, b, x = 2, 3, 2.0, 1.0, 0.4
    got = gmkz_apply(GmkzParams(n, rop, a, b), Monomial(1), x, TIGHT).value
    with mp.workdps(30):
        want = float(mp.nsum(
            lambda k: mp.binomial(n + rop - 1 + k, k) * mp.mpf(1 - x)**(n + rop)
            * mp.mpf(x)**k * (k + b) / (n + k + a), [0, mp.inf]))
    assert math.isclose(got, want, rel_tol=1e-12)


def test_second_moment_closed_value():
    # M_1 e_2 at 1/2 collapses to log(2)/2
    assert math.isclose(mkz_moment_e2(1, 0.5), math.log(2.0) / 2.0,
                        rel_tol=1e-14)
    assert mkz_moment_e2(3, 0.0) == 0.0


@pytest.mark.parametrize("n", [1, 2, 5, 10])
@pytest.mark.parametrize("x", [0.1, 0.5, 0.9])
def test_second_moment_three_routes_agree(n, x):
    closed = mkz_moment_e2(n, x)
    kernel = mkz_moment(n, 2, x)
    direct = gmkz_apply(classical(n), Monomial(2), x, TIGHT).value
    assert math.isclose(closed, kernel, rel_tol=1e-11)
    assert math.isclose(closed, direct, rel_tol=1e-11)


def test_second_moment_dominates_the_square_and_decreases_in_n():
    for x in (0.3, 0.7):
        prev = None
        for n in range(1, 10):
            m2 = mkz_moment_e2(n, x)
            assert m2 > x * x  # positive variance
            if prev is not None:
                assert m2 < prev  # concentration improves with n
            prev = m2


def test_moment_edge_orders():
    assert mkz_moment(4, 0, 0.3) == 1.0
    assert math.isclose(mkz_moment(4, 1, 0.3), 0.3, rel_tol=1e-13)
    with pytest.raises(DomainError):
        mkz_moment(4, 2, 0.0)
    with pytest.raises(InvalidParams):
        mkz_moment(0, 2, 0.5)
    with pytest.raises(InvalidParams):
        mkz_moment(4, -1, 0.5)


@pytest.mark.parametrize("r", [3, 4, 5])
@pytest.mark.parametrize("n", [2, 5, 8])
def test_higher_moments_vs_direct(r, n):
    for x in (0.1, 0.4, 0.8):
        closed = mkz_moment(n, r, x)
        direct = gmkz_apply(classical(n), Monomial(r), x, TIGHT).value
        assert math.isclose(closed, direct, rel_tol=1e-9)


@pytest.mark.parametrize("n", range(1, 9))
def test_log_operator_second_moment(n):
    for x in (0.1, 0.4, 0.8):
        closed = ln_moment_e2(n, x)
        direct = ln_moment_e2_direct(n, x, TIGHT)
        assert math.isclose(closed, direct, rel_tol=1e-10)
    assert ln_moment_e2(n, 0.0) == 0.0


def test_first_moment_affine_form():
    for alpha in range(5):
        for beta in (0.0, alpha / 2.0, float(alpha)):
            for n in (1, 3):
                params = GmkzParams(n, alpha + 1, float(alpha), beta)
                for x in (0.2, 0.6):
                    want = beta / (n + alpha) + (1.0 - beta / (n + alpha)) * x
                    assert math.isclose(gmkz_e1(params, x), want,
                                        rel_tol=1e-13)


def test_first_moment_at_zero_and_validation():
    params = GmkzParams(2, 3, 2.0, 1.0)
    assert gmkz_e1(params, 0.0) == 1.0 / 4.0
    with pytest.raises(InvalidParams):
        gmkz_e1(GmkzParams(2, 3, 1.5, 1.0), 0.5)  # non-integer alpha


@pytest.mark.parametrize("n,alpha,beta", [(2, 1, 0.0), (2, 2, 1.0), (3, 0, 0.0)])
def test_abel_route_vs_direct(n, alpha, beta):
    params = GmkzParams(n, alpha + 1, float(alpha), beta)
    for m in range(5):
        for x in (0.2, 0.5):
            got = gmkz_moment_abel(n, alpha, beta, m, x, TIGHT)
            want = gmkz_apply(params, Monomial(m), x, TIGHT).value
            assert math.isclose(got, want, rel_tol=1e-10)


def test_abel_route_edges():
    assert gmkz_moment_abel(2, 1, 0.0, 0, 0.4) == 1.0
    with pytest.raises(InvalidParams):
        gmkz_moment_abel(2, 1, 2.0, 1, 0.4)  # beta above alpha
    with pytest.raises(InvalidParams):
        gmkz_moment_abel(2, 1, 0.0, -1, 0.4)
    with pytest.raises(DomainError):
        gmkz_moment_abel(2, 1, 0.0, 1, 0.0)


@pytest.mark.parametrize("n,r,x,want", [
    # (1-x)**(n+1) sum_k C(n+k,k) x**k (k/(n+k))**r rewritten exactly as a
    # combination of Li_s(x) of integer order s and evaluated by mpmath at
    # 140 digits (the neg-binomial polylog rewrite of the benchmark oracle)
    (3, 3, 0.99999, 0.999970000449991138744136),
    (4, 4, 1.0 - 1e-6, 0.999996000007999870311186),
])
def test_higher_moments_next_to_one(n, r, x, want):
    assert math.isclose(mkz_moment(n, r, x), want, rel_tol=1e-12)
