"""Operator moments: closed formulas against direct summation and mpmath."""

import functools
import math
import random
import re
import sys
import time
from fractions import Fraction

import mpmath as mp
import pytest

from elemhyp import (
    DomainError, GmkzParams, InvalidParams, Monomial, NotConverged,
    gmkz_apply, gmkz_e1, gmkz_moment_abel, ln_moment_e2, ln_moment_e2_direct,
    mkz_moment, mkz_moment_e2,
)
from elemhyp import _dd
import elemhyp.mkz as mkz
import elemhyp.verify as verify
from elemhyp.basis import _exact_coefficients
from elemhyp.mkz import _gmkz_series
from elemhyp.polylog import _bernoulli, _log_series_coef, _polylog_dd, _zeta


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
    for alpha, beta in ((math.inf, 0.0), (math.inf, math.inf), (math.nan, 0.0),
                        (1.0, math.nan)):
        with pytest.raises(InvalidParams):
            GmkzParams(2, 1, alpha, beta)


def test_monomial():
    assert Monomial(2)(0.5) == 0.25
    assert Monomial(0)(0.9) == 1.0
    with pytest.raises(InvalidParams):
        Monomial(-1)


@pytest.mark.parametrize("n", [1, 4, 10])
@pytest.mark.parametrize("x", [0.2, 0.8])
def test_operator_reproduces_constants_and_identity(n, x):
    e0 = gmkz_apply(classical(n), Monomial(0), x)
    assert e0.converged
    assert math.isclose(e0.value, 1.0, rel_tol=1e-12)
    e1 = gmkz_apply(classical(n), Monomial(1), x)
    assert math.isclose(e1.value, x, rel_tol=1e-12)


def test_operator_kernel_vs_mpmath():
    # non-classical parameters, summed independently at high precision
    n, rop, a, b, x = 2, 3, 2.0, 1.0, 0.4
    got = gmkz_apply(GmkzParams(n, rop, a, b), Monomial(1), x).value
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
    direct = _gmkz_series(classical(n), Monomial(2), x).value
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
    # from mkz._APPLY_CLOSED_FROM up, where the moment is not the series
    for x in (0.9, 0.95, 0.99):
        closed = mkz_moment(n, r, x)
        direct = _gmkz_series(classical(n), Monomial(r), x).value
        assert math.isclose(closed, direct, rel_tol=1e-9)


@pytest.mark.parametrize("n", range(1, 9))
def test_log_operator_second_moment(n):
    for x in (0.1, 0.4, 0.8):
        closed = ln_moment_e2(n, x)
        direct = ln_moment_e2_direct(n, x)
        assert math.isclose(closed, direct, rel_tol=1e-10)
    for z in (0.0, -0.0):  # the formulas and the series give +0.0 at either zero
        for moment in (ln_moment_e2, ln_moment_e2_direct, mkz_moment_e2):
            assert repr(moment(n, z)) == "0.0"


def test_log_operator_second_moment_where_the_closed_form_declines():
    # 2F1(1, 3; 1042; 0.999): a head coefficient of the general form passes
    # float range, so the dispatcher takes the series, where it once raised
    n, x = 1039, 0.999
    with mp.workdps(50):
        want = x * x + 2 * x * (1 - mp.mpf(x)) ** 2 / (n + 2) * mp.hyp2f1(1, 3, n + 3, x)
    got = ln_moment_e2(n, x)
    assert got == 0.99800100192485
    assert abs(got - want) <= 1.2e-16 * want


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
    for z in (0.0, -0.0):  # b/(n+a) from the formula, its 2F1s both 1.0
        assert gmkz_e1(params, z) == 1.0 / 4.0
        # the x term is a signed zero: -0.0 at x = 0.0 where n + r - b < 0,
        # and at x = -0.0 where b = 0 it meets b/(n+a) = 0.0
        assert repr(gmkz_e1(GmkzParams(1, 0, 5.0, 5.0), z)) == repr(5.0 / 6.0)
        assert repr(gmkz_e1(GmkzParams(1, 1, 0.0, 0.0), z)) == "0.0"
    with pytest.raises(InvalidParams):
        gmkz_e1(GmkzParams(2, 3, 1.5, 1.0), 0.5)  # non-integer alpha


@pytest.mark.parametrize("n,alpha,beta", [(2, 1, 0.0), (2, 2, 1.0), (3, 0, 0.0)])
def test_abel_route_vs_direct(n, alpha, beta):
    params = GmkzParams(n, alpha + 1, float(alpha), beta)
    for m in range(5):
        for x in (0.9, 0.95):
            got = gmkz_moment_abel(n, alpha, beta, m, x)
            want = _gmkz_series(params, Monomial(m), x).value
            assert math.isclose(got, want, rel_tol=1e-10)


def test_abel_route_edges():
    assert gmkz_moment_abel(2, 1, 0.0, 0, 0.4) == 1.0
    with pytest.raises(InvalidParams):
        gmkz_moment_abel(2, 1, 2.0, 1, 0.4)  # beta above alpha
    with pytest.raises(InvalidParams):
        gmkz_moment_abel(2, 1, 0.0, -1, 0.4)
    with pytest.raises(DomainError):
        gmkz_moment_abel(2, 1, 0.0, 1, 0.0)


_MOMENT_X = "moment requires 0 <= x < 1"
_OPEN_X = "moment requires 0 < x < 1"
_SERIES_X = "operator series requires 0 <= x < 1"


@pytest.mark.parametrize("call,error,message", [
    (lambda: mkz_moment_e2(0, 0.5), InvalidParams, "n must be >= 1"),
    (lambda: mkz_moment_e2(3, 1.0), DomainError, _MOMENT_X),
    (lambda: mkz_moment_e2(3, -0.1), DomainError, _MOMENT_X),
    (lambda: ln_moment_e2(0, 0.5), InvalidParams, "n must be >= 1"),
    (lambda: ln_moment_e2(3, 1.0), DomainError, _MOMENT_X),
    (lambda: ln_moment_e2_direct(0, 0.5), InvalidParams, "n must be >= 1"),
    (lambda: ln_moment_e2_direct(3, 1.0), DomainError, _MOMENT_X),
    (lambda: gmkz_e1(GmkzParams(2, 3, 2.0, 1.0), 1.0), DomainError, _MOMENT_X),
    (lambda: gmkz_moment_abel(0, 1, 0.0, 2, 0.5), InvalidParams, "n must be >= 1"),
    (lambda: gmkz_moment_abel(2, -1, 0.0, 2, 0.5), InvalidParams, "alpha must be >= 0"),
    (lambda: mkz_moment(0, 2, 0.5), InvalidParams, "n must be >= 1"),
    (lambda: mkz_moment(3, -1, 0.5), InvalidParams, "moment order must be >= 0"),
    (lambda: mkz_moment(3, 2.5, 0.5), InvalidParams, "r must be an integer, got 2.5"),
    (lambda: mkz_moment(3, 2, 0.0), DomainError, _OPEN_X),
    (lambda: mkz_moment(3, 2, 1.0), DomainError, _OPEN_X),
    (lambda: gmkz_apply(classical(3), Monomial(2), 1.0), DomainError, _SERIES_X),
    (lambda: gmkz_apply(classical(3), Monomial(2), -0.5), DomainError, _SERIES_X),
    (lambda: _gmkz_series(classical(3), Monomial(2), 1.0), DomainError, _SERIES_X),
], ids=["e2-n", "e2-x1", "e2-xneg", "ln-n", "ln-x", "ln-direct-n", "ln-direct-x",
        "e1-x", "abel-n", "abel-alpha", "mkz-n", "mkz-r", "mkz-r-float", "mkz-x0",
        "mkz-x1", "apply-x1", "apply-xneg", "series-x"])
def test_moment_argument_checks(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("n,r,x,want", [
    # (1-x)**(n+1) sum_k C(n+k,k) x**k (k/(n+k))**r rewritten exactly as a
    # combination of Li_s(x) of integer order s and evaluated by mpmath at
    # 140 digits (the neg-binomial polylog rewrite of the benchmark oracle)
    (3, 3, 0.99999, 0.999970000449991138744136),
    (4, 4, 1.0 - 1e-6, 0.999996000007999870311186),
])
def test_higher_moments_next_to_one(n, r, x, want):
    assert math.isclose(mkz_moment(n, r, x), want, rel_tol=1e-12)


def test_higher_moment_past_the_log_series_orders():
    # the closed form asks for Li_s(0.95), s = 1..172; once the log series
    # took orders up to 167, and from s = 168 its (s-1)! passed Dekker's
    # split and the sum never stopped.  From order 40 on, each Li_s is a few
    # power-series terms: with the log series up to 167 this took 0.64 s
    for cache in (_polylog_dd, _log_series_coef, _zeta, _bernoulli,
                  mkz._closed_coefficients, _dd.context):
        cache.cache_clear()
    start = time.perf_counter()
    got = mkz_moment(5, 172, 0.95)
    assert time.perf_counter() - start < 0.1
    assert got == 0.0029777100374039174
    want = _gmkz_series(classical(5), Monomial(172), 0.95).value
    assert abs(got - want) <= 1e-12 * want


# Drawn once with random.Random(20261018): n in 1..10, alpha in 0..3,
# beta = u * alpha, m in 1..10, x uniform in [0.99, 0.9995].  References:
# the polylog rewrite of the benchmark oracle at 140 digits, as above.
_ABEL_NEAR_ONE = [
    (6, 1, 0.7809474771005647, 8, 0.994772095974885, 0.9635376722852448636848931),
    (4, 0, 0.0, 10, 0.992590112197645, 0.9290614432743716327269146),
    (9, 1, 0.5080338338214567, 1, 0.9922760019728067, 0.992668407205825178546216),
    (2, 1, 0.07598259738564417, 4, 0.9957655644837837, 0.9836427323373559705692994),
    (9, 1, 0.5013582487619903, 2, 0.9964754849270195, 0.9933168264650069071912276),
    (1, 3, 2.463836165009767, 9, 0.9909721680249665, 0.9693619627041590019072716),
    (2, 1, 0.6255272595807096, 1, 0.9953969157808662, 0.9963567006666041908652397),
    (6, 0, 0.0, 2, 0.9985717016666913, 0.9971458505034338172016135),
    (10, 0, 0.0, 8, 0.9949211695989169, 0.9601612682676872249072641),
    (8, 3, 1.5374976361382324, 7, 0.9949317801622839, 0.9699162158316598159817919),
    (8, 0, 0.0, 4, 0.991876468956194, 0.9679545387636678000903822),
    (3, 0, 0.0, 5, 0.9938431782164748, 0.9697715580093288613866703),
    (1, 1, 0.8944787830702114, 6, 0.9935518228090066, 0.9789737501995080085173937),
    (4, 3, 2.3154494341261618, 10, 0.990723641774868, 0.9398944417172186675533034),
    (3, 1, 0.18863331903539948, 10, 0.9907591011783049, 0.916377216391065769804584),
    (10, 2, 1.3745941403168564, 7, 0.9948405218667925, 0.9684943139785764842168169),
    (10, 1, 0.45544579212209857, 4, 0.9976870547364747, 0.9911636591899082649839988),
    (7, 2, 0.9389801150274086, 6, 0.9907387309350527, 0.951373128996683230435156),
    (4, 1, 0.04220697666417461, 10, 0.9952632435563639, 0.9542459745996483642016292),
    (5, 1, 0.9941081731249508, 1, 0.9947476817095579, 0.9956179104662882197782545),
]


def test_abel_route_next_to_one():
    # the closed route of gmkz_apply; polylog_derivative_series, which stopped
    # on small terms, was off by up to 1.1e-11 on these points
    for n, alpha, beta, m, x, want in _ABEL_NEAR_ONE:
        got = gmkz_moment_abel(n, alpha, beta, m, x)
        assert math.isclose(got, want, rel_tol=1e-14), (n, alpha, beta, m, x)


@pytest.mark.parametrize("n,alpha,beta,m,x,want", [
    # references: the benchmark oracle's exact fixed-point sum (x < 0.99)
    (9, 3, 2.905256833410118, 5, 0.0010327091697470347, 0.0008536129963456992282294577),
    (10, 3, 1.409406125773775, 3, 0.0027129899516081532, 0.001422110950329322242292193),
])
def test_abel_route_at_small_x(n, alpha, beta, m, x, want):
    # the operator series; the kernel combos, whose x**(-d) prefactor
    # cancels, put these off by 5e10 and 3e7
    assert math.isclose(gmkz_moment_abel(n, alpha, beta, m, x), want, rel_tol=1e-14)


@pytest.mark.parametrize("n,r,x,want", [
    # the Baseline reproducers, negative (-2.3e-3 and -27.3) from the combos;
    # references from the benchmark oracle's exact fixed-point sum
    (12, 10, 0.02, 6.925643100357863059777546e-10),
    (20, 12, 0.1, 4.971325695101199312732332e-9),
])
def test_higher_moments_at_small_x(n, r, x, want):
    # the operator series; the float64 kernel sum over j ended near 1e-9
    # from terms of up to ~5e2 and kept about 5 digits
    got = mkz_moment(n, r, x)
    assert math.isclose(got, want, rel_tol=1e-14)


# Moments against references of 25 digits: the exact fixed-point sum below
# 0.99 and the polylog rewrite at 0.995 (_moment_direct, _moment_mp).  The x
# cover both routes of gmkz_apply.  The third column is the float of the
# deleted kernel-sum assembly (off by up to 1.4e-10), which this test pinned
# bit for bit before; it keeps the case ids and bounds the error from above.
_KERNEL_PINS = [
    ("mkz", (3, 5, 0.3), 0.017766660775230536,
     "0.01776666077523207886036239"),
    ("mkz", (9, 12, 0.3), 4.809601555759435e-05,
     "0.00004809601555064358345019317"),
    ("mkz", (16, 8, 0.3), 0.00035908379897822695,
     "0.0003590837989837531420837758"),
    ("abel", (4, 2, 1.25, 10, 0.3), 0.002062218591679519,
     "0.002062218591682392898379228"),
    ("abel", (7, 0, 0.0, 12, 0.3), 8.311976693897716e-05,
     "0.00008311976694088293698991329"),
    ("mkz", (3, 5, 0.55), 0.10119303082684289,
     "0.1011930308268428723078873"),
    ("mkz", (9, 12, 0.55), 0.0035058203542808544,
     "0.003505820354284401105770925"),
    ("mkz", (16, 8, 0.55), 0.01377031687633403,
     "0.01377031687633463130709439"),
    ("abel", (4, 2, 1.25, 10, 0.55), 0.027393353718359038,
     "0.02739335371835825141778458"),
    ("abel", (7, 0, 0.0, 12, 0.55), 0.004480325985232588,
     "0.004480325985243381109220958"),
    ("mkz", (3, 5, 0.7), 0.22924553639588213,
     "0.2292455363958818732556839"),
    ("mkz", (9, 12, 0.7), 0.026574451150264928,
     "0.0265744511502662520854428"),
    ("mkz", (16, 8, 0.7), 0.07004072272672077,
     "0.07004072272672064247045564"),
    ("abel", (4, 2, 1.25, 10, 0.7), 0.09693143453082229,
     "0.09693143453082251662985073"),
    ("abel", (7, 0, 0.0, 12, 0.7), 0.030116457903024627,
     "0.03011645790302655884755552"),
    ("mkz", (3, 5, 0.995), 0.9753679946533529,
     "0.9753679946533528184651568"),
    ("mkz", (9, 12, 0.995), 0.9418159064146024,
     "0.9418159064146024608374645"),
    ("mkz", (16, 8, 0.995), 0.9607379418327975,
     "0.9607379418327975785138284"),
    ("abel", (4, 2, 1.25, 10, 0.995), 0.9612485565963287,
     "0.9612485565963286868789825"),
    ("abel", (7, 0, 0.0, 12, 0.995), 0.9418791903188898,
     "0.9418791903188898083211503"),
]


@pytest.mark.parametrize(
    "kind,args,kernel_sum,ref", _KERNEL_PINS,
    ids=[f"{kind}-args{i}-{kernel_sum!r}"
         for i, (kind, _, kernel_sum, _) in enumerate(_KERNEL_PINS)])
def test_kernel_moment_is_bit_stable(kind, args, kernel_sum, ref):
    # an accuracy pin: within 2e-15 of the reference, and never farther from
    # it than the kernel sum
    moment = mkz_moment if kind == "mkz" else gmkz_moment_abel
    got = moment(*args)
    with mp.workdps(30):
        want = mp.mpf(ref)
        err = abs(got - want)
        assert err <= 2e-15 * want, (kind, args)
        assert err <= abs(kernel_sum - want), (kind, args)


# gmkz_apply's closed route (a Monomial with integer alpha, from
# mkz._APPLY_CLOSED_FROM up).  The pins are benchmark oracle values (its
# polylog rewrite at 140 digits); the series was off by 1.2e-9 and 1.1e-9
# at the first two and raised NotConverged at the third.
@pytest.mark.parametrize("n,r,alpha,beta,m,x,want", [
    (11, 3, 0.0, 0.0, 7, 0.9988417162831607, 0.993159889587186),
    (6, -1, 3.0, 0.6121395091438062, 8, 0.9989819822355902, 0.9831186825602073),
    (4, 2, 2.0, 1.5, 5, 1 - 1e-6, 0.9999955000112498),
])
def test_apply_closed_route_pins(n, r, alpha, beta, m, x, want):
    got = gmkz_apply(GmkzParams(n, r, alpha, beta), Monomial(m), x)
    assert got.trunc_err_est == 0.0 and got.converged
    assert abs(got.value - want) <= 1e-14 * want


@functools.lru_cache(maxsize=None)
def _polylog_mp(s, x):
    return mp.polylog(s, mp.mpf(x))


def _moment_mp(N, c, beta, m, x):
    """(1-x)**N sum_k C(N+k-1,k) x**k ((k+beta)/(k+c))**m at 80 digits.

    With u = k + c the summand is a Laurent polynomial sum_e a_e u**e,
    formed here in mpmath, and sum_k x**k (k+c)**e is
    x**(-c) (Li_{-e}(x) - sum_{0<u<c} u**e x**u), mpmath's polylog of
    integer order (a rational function for e >= 0).
    """
    with mp.workdps(80):
        xm = mp.mpf(x)
        d = mp.mpf(beta) - c
        poly = [mp.mpf(1)]  # prod_{t=1}^{N-1} (u - c + t), ascending powers
        for t in range(1, N):
            poly = [up + (t - c) * same for up, same in zip([0] + poly, poly + [0])]
        coefs = {}
        for i, p in enumerate(poly):
            for l in range(m + 1):
                e = i + l - m
                coefs[e] = coefs.get(e, 0) + p * mp.binomial(m, l) * d ** (m - l)
        total = mp.fsum(
            a * (_polylog_mp(-e, x) - mp.fsum(mp.mpf(u) ** e * xm ** u for u in range(1, c)))
            for e, a in coefs.items())
        return (1 - xm) ** N * total / xm ** c / mp.factorial(N - 1)


def _moment_direct(N, c, beta, m, x):
    """The sum of _moment_mp summed term by term in 400-bit integer fixed
    point, for x < 0.99: each step truncates by less than 2**-400, and it
    stops once the weight falls below 2**-160 of the partial sum."""
    bn, bd = Fraction(beta).as_integer_ratio()
    xn, xd = x.as_integer_ratio()
    bits = 400
    w = ((xd - xn) ** N << bits) // xd ** N
    total, k = 0, 0
    while not (k > N and w << 160 < total):
        total += w * (k * bd + bn) ** m // ((k + c) * bd) ** m
        w = w * (N + k) * xn // ((k + 1) * xd)
        k += 1
    with mp.workdps(50):
        return mp.mpf(total) / mp.mpf(2) ** bits


def _moment_ref(kind, args):
    """mkz_moment or gmkz_moment_abel's value, to ~40 digits."""
    if kind == "mkz":
        n, r, x = args
        N, c, beta, m = n + 1, n, 0.0, r
    else:
        n, alpha, beta, m, x = args
        N, c = n + alpha + 1, n + alpha
    if x < 0.99:
        return _moment_direct(N, c, beta, m, x)
    return _moment_mp(N, c, beta, m, x)


@pytest.mark.parametrize("x", [mkz._APPLY_CLOSED_FROM, 0.99, 0.999, 1 - 1e-6])
@pytest.mark.parametrize("m", [0, 1, 4, 8])
def test_apply_closed_route_vs_mpmath(x, m):
    n, alpha = 3, 2
    c = n + alpha
    for N in (1, c - 1, c + 1, c + 3):
        for beta in (0.0, alpha / 2, float(alpha)):
            got = gmkz_apply(GmkzParams(n, N - n, float(alpha), beta), Monomial(m), x)
            assert got.trunc_err_est == 0.0, (N, beta)  # the closed route
            if m == 0:
                assert abs(got.value - 1.0) <= 1e-16
            want = _moment_mp(N, c, beta, m, x)
            assert abs(got.value - want) <= 1e-14 * want, (N, beta)


def test_apply_closed_route_vs_series():
    rng = random.Random(20261018)
    for _ in range(30):
        n, alpha = rng.randint(1, 12), rng.randint(0, 3)
        params = GmkzParams(n, 1 - n + rng.randint(0, n + 2), float(alpha),
                            rng.random() * alpha)
        f = Monomial(rng.randint(0, 8))
        x = rng.uniform(mkz._APPLY_CLOSED_FROM, 0.98)
        closed = gmkz_apply(params, f, x)
        assert closed.trunc_err_est == 0.0
        series = _gmkz_series(params, f, x)
        assert math.isclose(closed.value, series.value, rel_tol=1e-12), (params, f, x)


def test_apply_closed_route_rounding_bound():
    # far below the switch the Bernstein and polylog parts cancel: at
    # (N, c, beta, m) = (12, 14, 1.5, 8), x = 0.05, sum |term| / |value| is
    # 9e32 and the unguarded value is off by a factor ~10; the bound rejects
    # it, and keeps (8, 5, 2.0, 8) at x = 0.1 (ratio 8e8)
    assert not _dd.certified(*mkz._gmkz_closed(12, 14, 1.5, 8, 0.05))
    value, bound = mkz._gmkz_closed(8, 5, 2.0, 8, 0.1)
    assert _dd.certified(value, bound)
    want = _moment_mp(8, 5, 2.0, 8, 0.1)
    assert abs(value - want) <= 1e-15 * want


def test_apply_closed_rounding_bound_is_a_bound():
    # every kept closed value is within its rounding bound plus half an ulp
    # of the exact sum; the SeriesResult that _closed_route (and gmkz_apply
    # from 0.9 up) makes of it keeps that bound as
    # terms_used * abs_sum * 2**-53, to the two roundings of abs_sum's
    # division and that product
    rng = random.Random(7301)
    kept, misses = 0, []
    for _ in range(50):
        N, c, m = rng.randint(1, 16), rng.randint(1, 16), rng.randint(0, 10)
        beta = rng.choice((0.0, float(rng.randint(0, c - 1)), rng.uniform(0, c - 1)))
        u = rng.random()
        if u < 0.3:
            x = rng.uniform(0.05, 0.9)
        elif u < 0.6:
            x = rng.uniform(0.9, 0.98)
        else:
            x = 1 - 10 ** rng.uniform(-6, -2)
        pair = mkz._gmkz_closed(N, c, beta, m, x)
        params = GmkzParams(1, N - 1, float(c - 1), beta)  # (N, c) = (n+r, n+alpha)
        res = mkz._closed_route(params, m, x)
        if pair is None or not _dd.certified(*pair):
            assert res is None
            continue
        kept += 1
        value, bound = pair
        assert res.value == value and res.terms_used == (N + m + c - 1 if m else N)
        assert math.isclose(res.terms_used * res.abs_sum * 2.0 ** -53, bound,
                            rel_tol=2.0 ** -52)
        if x >= mkz._APPLY_CLOSED_FROM:
            assert gmkz_apply(params, Monomial(m), x) == res
        ref = _moment_direct if x < 0.98 else _moment_mp
        with mp.workdps(50):
            err = abs(mp.mpf(value) - ref(N, c, beta, m, x))
        if err > bound + math.ulp(value) / 2:
            misses.append((N, c, beta, m, x, float(err), bound))
    assert kept >= 45 and misses == []


def _coefficients_by_differences(N, c, m, beta):
    """Reference for _closed_coefficients by another route: the integer
    Laurent coefficients of prod_{t<N} (u-c+t) (bd u + dn)**m in powers of
    u = k + c, the polynomial part evaluated at k = 0..N-1 by Horner and
    forward-differenced, the cut-off weights by Horner on the u**(-s) part."""
    def horner(coefs, u):
        v = 0
        for a in reversed(coefs):
            v = v * u + a
        return v

    poly = [1]
    for t in range(1, N):
        poly = [up + (t - c) * same for up, same in zip([0] + poly, poly + [0])]
    bn, bd = float(beta).as_integer_ratio()
    dn = bn - c * bd
    binom = [math.comb(m, l) * dn ** (m - l) * bd ** l for l in range(m + 1)]
    A = [0] * (N + m)
    for i, p in enumerate(poly):
        for l, q in enumerate(binom):
            A[i + l] += p * q
    den = bd ** m * math.factorial(N - 1)
    values = [horner(A[m:], c + k) for k in range(N)]
    bern = []
    for _ in range(N):
        bern.append(_dd.dd_from_ratio(values[0], den))
        values = [v1 - v0 for v0, v1 in zip(values, values[1:])]
    neg = [_dd.dd_from_ratio(A[m - s], den) for s in range(1, m + 1)]
    head = [_dd.dd_from_ratio(horner(A[:m], u), den * u ** m)
            for u in range(1, c)] if m else []
    return tuple(bern), tuple(neg), tuple(head)


def test_closed_coefficients_match_the_differenced_laurent_form():
    # the binomial-basis recurrence gives the same exact rationals, each
    # rounded once, as the Laurent-Horner-difference construction
    rng = random.Random(2025)
    grid = [(1, 1, 0, 0.0), (1, 1, 3, 0.5), (1, 7, 2, 2.0), (2, 5, 0, 1.25),
            (3, 9, 4, 0.1), (5, 1, 6, 3.0), (40, 3, 5, 2.5), (60, 61, 12, 0.7),
            (1, 1, 2, 1e200), (3, 2, 2, 1e160)]  # the last two pass float range
    for _ in range(300):
        N, c = rng.choice((1, rng.randint(1, 30))), rng.randint(1, 40)
        m = rng.randint(0, 10)
        beta = rng.choice((0.0, float(rng.randint(0, 12)), rng.randint(0, 96) / 16,
                           rng.uniform(0, 12)))
        grid.append((N, c, m, beta))
    assert any(c > N for N, c, _, _ in grid)
    overflows = 0
    for args in grid:
        try:
            want = _coefficients_by_differences(*args)
        except OverflowError:
            overflows += 1
            with pytest.raises(OverflowError):
                mkz._closed_coefficients.__wrapped__(*args)
            continue
        assert mkz._closed_coefficients.__wrapped__(*args) == want, args
    assert overflows >= 2


def test_closed_coefficients_at_large_n():
    # (N+m) m exact integer steps: a cold build at N = 1000 takes well under
    # a second (~0.06 s; the differenced Laurent form takes ~1 s)
    start = time.perf_counter()
    bern, neg, head = mkz._closed_coefficients.__wrapped__(1000, 999, 4, 0.0)
    assert time.perf_counter() - start < 0.5
    assert (len(bern), len(neg), len(head)) == (1000, 4, 998)


def test_exact_coefficients_lose_the_top_pole_order_where_c_is_a_root():
    # (N-1)! C(N+k-1, k) = prod_{t<N} (k+t) has the factor k+c once where
    # 1 <= c <= N-1, so a_{-m} is exactly 0 there and a_{-(m-1)} is not;
    # elsewhere a_{-m} is not 0 (beta < c: no factor of (k+beta)**m cancels)
    rng = random.Random(4001)
    for _ in range(300):
        N, c, m = rng.randint(1, 30), rng.randint(1, 40), rng.randint(1, 10)
        beta = rng.choice((0.0, float(rng.randint(0, c - 1)),
                           rng.randint(0, 16 * c - 1) / 16, rng.uniform(0.0, c - 1)))
        _, neg, _ = _exact_coefficients(N, c, m, m, beta)
        if c <= N - 1:
            assert neg[-1] == 0 and (m == 1 or neg[-2] != 0), (N, c, m, beta)
        else:
            assert neg[-1] != 0, (N, c, m, beta)


def test_closed_moment_forms_no_li_s_for_a_zero_coefficient(monkeypatch):
    # mkz_moment(5, 3, 0.95): (N, c) = (6, 5), so a_{-3} = 0 and Li_3 is
    # not formed only to be multiplied by 0
    orders = []

    def spy(s, x):
        orders.append(s)
        return _polylog_dd(s, x)

    monkeypatch.setattr(mkz, "_polylog_dd", spy)
    value, bound = mkz._gmkz_closed(6, 5, 0.0, 3, 0.95)
    assert orders == [2]
    assert _dd.certified(value, bound)
    want = _gmkz_series(GmkzParams(5, 1, 0.0, 0.0), Monomial(3), 0.95).value
    assert math.isclose(value, want, rel_tol=1e-13)


# mkz_moment(n, 4, x) at 40 digits: (1-x)**(n+1) sum_k C(n+k,k) x**k
# (k/(n+k))**4 summed term by term by mpmath at 50 digits, past the mode
# until a term is below 1e-45 of the sum
_LARGE_N = [
    (600, 0.9, "0.656172966357359817410167136934738441969"),
    (600, 0.95, "0.8145277118956085366362493780197185915557"),
    (600, 0.99, "0.9605969818432174942262153354820459000391"),
    (1000, 0.9, "0.6561437638912109103243242975888087319971"),
    (1000, 0.95, "0.814519120529171952862277011013094512343"),
    (1000, 0.99, "0.9605965927349825371535442497478936824652"),
]


@pytest.mark.parametrize("n,x,want", _LARGE_N)
def test_moments_at_large_n(n, x, want):
    # the series' weight (1-x)**(n+1) underflows here, and a step gate
    # (N**2 + c(m+1) <= 1e5) kept the closed form from N = 314 on: both
    # routes raised NotConverged
    with mp.workdps(40):
        assert abs(mkz_moment(n, 4, x) - mp.mpf(want)) <= 1e-14 * mp.mpf(want)


def test_closed_gate_is_the_float_range_of_the_bernstein_coefficients(monkeypatch):
    # the closed form is tried while C(N-1, (N-1)//2), its middle Bernstein
    # coefficient at m = 0, is within float range (N <= 1030), and while
    # it has at most numcore._MAX_TERMS terms
    tried = []
    monkeypatch.setattr(mkz, "_gmkz_closed", lambda N, c, *rest: tried.append((N, c)))
    for N in range(1, 2100):
        mkz._closed_route(GmkzParams(N, 0, 0.0, 0.0), 4, 0.95)
    assert [N for N, _ in tried] == [
        N for N in range(1, 2100) if math.comb(N - 1, (N - 1) // 2) <= sys.float_info.max]
    assert tried[-1] == (1030, 1030)
    top = mkz._CLOSED_MAX_N
    assert math.comb(top - 1, (top - 1) // 2) <= sys.float_info.max \
        < math.comb(top, top // 2)
    tried.clear()
    for alpha in (99986.0, 99987.0):  # N + m + c - 1 = 14 + alpha
        mkz._closed_route(GmkzParams(5, 1, alpha, 0.0), 4, 0.999)
    assert tried == [(6, 99991)]


def test_closed_moment_of_order_zero_counts_its_n_terms():
    # at m = 0 the form is its N Bernstein terms alone, with no Li_s part
    # and no head: counted as N + m + c - 1 = 100002 terms, it was past the
    # term cap here, and the series raised NotConverged at the cap
    res = gmkz_apply(GmkzParams(1, 1, 100000.0, 0.0), Monomial(0), 0.99999)
    assert (res.value, res.terms_used, res.converged) == (1.0, 2, True)


def test_moment_past_the_gate_raises_at_once():
    # with no gate, n = 5000 spent 4.8 s on a build whose coefficients pass
    # float range; the series' weight 0.05**5001 underflows
    start = time.perf_counter()
    with pytest.raises(NotConverged):
        mkz_moment(5000, 4, 0.95)
    assert time.perf_counter() - start < 0.05


def test_closed_moment_where_x_to_the_c_underflows():
    # x**(-c) passes float range: not certified, where a bare
    # ZeroDivisionError escaped
    assert mkz._gmkz_closed(6, 5, 0.0, 3, 1e-200) is None


def test_closed_moment_declines_where_a_coefficient_passes_float_range():
    # the Laurent coefficients of (1 - c/u)**m, about C(m, s) c**s, pass
    # float range at c = 1005, m = 110; the series answers gmkz_apply
    with pytest.raises(OverflowError):
        mkz._closed_coefficients(6, 1005, 110, 0.0)
    assert mkz._gmkz_closed(6, 1005, 0.0, 110, 0.95) is None
    params = GmkzParams(5, 1, 1000.0, 0.0)
    assert gmkz_apply(params, Monomial(110), 0.95) == \
        mkz._gmkz_series(params, Monomial(110), 0.95)


def test_closed_moment_underflow_gate_changes_no_verdict(monkeypatch):
    # c log x is tested against the normal float range before anything is
    # built, and the form declines.  Next to that edge, where x**c is
    # subnormal but not 0, the full build with the test off gives the same
    # verdicts: its Li_s tail is ~x**c and cancels past any certified bound
    rng = random.Random(2804)
    points = []
    for _ in range(24):
        x = rng.uniform(0.3, 0.7)
        edge = math.log(sys.float_info.min) / math.log(x)  # c with x**c at the edge
        points.append((rng.randint(1, 12), int(edge * rng.uniform(0.9, 1.04)),
                       rng.choice((0.0, 0.5, 2.0)), rng.randint(1, 5), x))
    def kept(pair):
        return pair is not None and _dd.certified(*pair)

    gated = [mkz._gmkz_closed(*pt) for pt in points]
    monkeypatch.setattr(mkz, "_LOG_FLOAT_MIN", -math.inf)
    built = [mkz._gmkz_closed(*pt) for pt in points]
    assert list(map(kept, gated)) == list(map(kept, built)) == [False] * len(points)


def test_closed_moment_skips_the_build_where_x_to_the_c_underflows():
    # c = 99010: 0.95**c underflows, so the closed form declines before
    # building 99009 cut-off weights (0.7 s), and the series answers
    mkz._closed_coefficients.cache_clear()
    start = time.perf_counter()
    res = gmkz_apply(GmkzParams(10, 1, 99000.0, 0.0), Monomial(4), 0.95)
    assert time.perf_counter() - start < 0.05
    assert res.value == 3.293237602572787e-11


def test_apply_route_guard(monkeypatch):
    # a routing slip would turn a sub-millisecond closed call into a series
    # of ~(N+50)/(1-x) terms; at x = 0.999 only a monomial with integer
    # alpha may skip the series
    def boom(*args):
        raise AssertionError("series reached")

    monkeypatch.setattr(mkz, "_gmkz_series", boom)
    x = 0.999
    gmkz_apply(GmkzParams(5, 2, 3.0, 1.5), Monomial(6), x)
    with pytest.raises(AssertionError, match="series reached"):
        gmkz_apply(GmkzParams(5, 2, 1.5, 1.5), Monomial(6), x)
    with pytest.raises(AssertionError, match="series reached"):
        gmkz_apply(GmkzParams(5, 2, 3.0, 1.5), lambda t: t ** 6, x)


@pytest.mark.parametrize("x", [0.05, 0.1, 0.5])
def test_series_function_zero_at_first_node(x):
    # t**2 is 0 at the first node (beta = 0), so the largest |f| met there
    # bounds nothing: the tail test waits for a nonzero f and the sum
    # matches Monomial(2)'s, whose bound is F = 1
    params = GmkzParams(3, 0, 0.0, 0.0)
    got = gmkz_apply(params, lambda t: t * t, x).value
    want = gmkz_apply(params, Monomial(2), x).value
    assert got > 0.0
    assert math.isclose(got, want, rel_tol=1e-15)
    assert abs(got - _moment_mp(3, 3, 0.0, 2, x)) <= 1e-15 * want


def test_series_zero_function_raises():
    with pytest.raises(NotConverged):
        # no bound ever, and at 0.999 the weights stay normal past the cap
        _gmkz_series(GmkzParams(3, 0, 0.0, 0.0), lambda t: 0.0, 0.999)


def test_series_tail_bound_meets_its_tolerance():
    # the small-term stop missed 1e-12 by 1.2e-9 with these parameters at
    # x = 0.99884, and by up to 4e-11 on the benchmark's [0.5, 0.99) band;
    # the tail bound stops it within 1e-17
    params, f = GmkzParams(11, 3, 0.0, 0.0), Monomial(7)
    for x in (0.6, 0.9, 0.97):
        res = _gmkz_series(params, f, x)
        assert res.trunc_err_est <= 1e-17 * abs(res.value)
        want = _moment_mp(14, 11, 0.0, 7, x)
        assert abs(res.value - want) <= 1e-12 * want


@pytest.mark.parametrize("x", [0.3, 0.89, mkz._APPLY_CLOSED_FROM, 0.95, 0.999])
def test_moments_are_gmkz_apply_on_a_monomial(x):
    # one engine: the classical operator is (r, alpha, beta) = (1, 0, 0),
    # the Abel one (alpha+1, alpha, beta); equal bit for bit on both routes
    for n in (1, 7, 20):
        for r in (1, 5, 12):
            want = gmkz_apply(classical(n), Monomial(r), x).value
            assert mkz_moment(n, r, x) == want, (n, r)
            for alpha, beta in ((0, 0.0), (2, 1.25), (3, 3.0)):
                params = GmkzParams(n, alpha + 1, float(alpha), beta)
                want = gmkz_apply(params, Monomial(r), x).value
                got = gmkz_moment_abel(n, alpha, beta, r, x)
                assert got == want, (n, alpha, beta, r)


def test_moment_vs_direct_checks_take_the_closed_route(monkeypatch):
    # their oracle is the operator series, so the moment must come from the
    # closed form, or the check compares the series with itself; the grids of
    # test_higher_moments_vs_direct, test_abel_route_vs_direct and acceptance
    # criteria 5 and 6 are subsets of these
    entries = [e for e in verify.suite_mkz() if e["operation"] in
               ("mkz_moment_vs_direct", "gmkz_abel_vs_direct")]
    assert len(entries) == 63 + 30

    def no_series(*args, **kwargs):
        raise AssertionError("operator series route")

    monkeypatch.setattr(mkz, "_gmkz_series", no_series)
    for e in entries:
        p = e["inputs"]
        if "r" in p:
            got = mkz_moment(p["n"], p["r"], p["x"])
        else:
            got = gmkz_moment_abel(p["n"], p["alpha"], p["beta"], p["m"], p["x"])
        assert got == e["result"], p


def _sweep_points():
    """300 moments: mkz with n <= 20, r <= 12 and Abel with n <= 20,
    alpha <= 3, m <= 10, x log-spread over [1e-3, 1/2] and 1 - 10**u over
    [1/2, 1 - 1e-6], in equal shares."""
    rng = random.Random(20261019)
    points = []
    for i in range(300):
        if i % 2 == 0:
            x = 10 ** rng.uniform(-3, math.log10(0.5))
        else:
            x = 1 - 10 ** rng.uniform(math.log10(0.5), -6)
        if i % 4 < 2:
            points.append(("mkz", (rng.randint(1, 20), rng.randint(1, 12), x)))
        else:
            alpha = rng.randint(0, 3)
            points.append(("abel", (rng.randint(1, 20), alpha, rng.random() * alpha,
                                    rng.randint(1, 10), x)))
    return points


# The Baseline reproducers, then points where the kernel-sum assembly
# returned 990, 20.7, 1.9e-2 and 7.3e-7 relative off.
_MOMENT_REPRODUCERS = [
    ("mkz", (12, 10, 0.02)),
    ("mkz", (20, 12, 0.1)),
    ("abel", (10, 0, 0.0, 10, 0.05)),
    ("mkz", (19, 12, 0.0012311740691808512)),
    ("mkz", (20, 12, 0.2)),
    ("mkz", (20, 12, 0.25)),
    ("mkz", (16, 10, 0.2)),
]


def test_moments_sweep_vs_mpmath():
    # the kernel-sum assembly was off by up to 1.4e2 on these points
    for kind, args in _sweep_points() + _MOMENT_REPRODUCERS:
        moment = mkz_moment if kind == "mkz" else gmkz_moment_abel
        got = moment(*args)
        want = _moment_ref(kind, args)
        assert abs(got - want) <= 1e-14 * want, (kind, args)
