"""Operator moments: closed formulas against direct summation and mpmath."""

import functools
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from elemhyp import (
    DomainError, GmkzParams, InvalidParams, Monomial, NotConverged,
    gmkz_apply, gmkz_e1, gmkz_moment_abel, ln_moment_e2, ln_moment_e2_direct,
    mkz_moment, mkz_moment_e2,
)
import elemhyp.mkz as mkz
import elemhyp.verify as verify
from elemhyp.mkz import _gmkz_series


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


@pytest.mark.parametrize("n,r,x,want", [
    # (1-x)**(n+1) sum_k C(n+k,k) x**k (k/(n+k))**r rewritten exactly as a
    # combination of Li_s(x) of integer order s and evaluated by mpmath at
    # 140 digits (the neg-binomial polylog rewrite of the benchmark oracle)
    (3, 3, 0.99999, 0.999970000449991138744136),
    (4, 4, 1.0 - 1e-6, 0.999996000007999870311186),
])
def test_higher_moments_next_to_one(n, r, x, want):
    assert math.isclose(mkz_moment(n, r, x), want, rel_tol=1e-12)


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
    assert mkz._gmkz_closed(12, 14, 1.5, 8, 0.05) is None
    kept = mkz._gmkz_closed(8, 5, 2.0, 8, 0.1)
    want = _moment_mp(8, 5, 2.0, 8, 0.1)
    assert abs(kept.value - want) <= 1e-15 * want


def test_apply_closed_rounding_bound_is_a_bound():
    # every kept closed value is within its rounding bound,
    # terms_used * abs_sum * 2**-53, plus half an ulp of the exact sum
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
        res = mkz._gmkz_closed(N, c, beta, m, x)
        if res is None:
            continue
        kept += 1
        bound = res.terms_used * res.abs_sum * 2.0 ** -53
        ref = _moment_direct if x < 0.98 else _moment_mp
        with mp.workdps(50):
            err = abs(mp.mpf(res.value) - ref(N, c, beta, m, x))
        if err > bound + math.ulp(res.value) / 2:
            misses.append((N, c, beta, m, x, float(err), bound))
    assert kept >= 45 and misses == []


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
