"""Polylogarithm Li_k and its termwise-differentiated series.

There is one Li_k: the double-double core _polylog_dd, which the public
polylog rounds once (Li_1 = -log(1-x) is closed form).  The derivative
(Li_j)^(d) is d! times the moment kernel f_{d,j}: the closed base
kernels for j <= 1, and for j >= 2 basis's exact combo from x = 1/2 up,
basis.fnj_series below.

The double-double core has one rule.  From order k = _POWER_SERIES_FROM on
it sums x**j / j**k at every 0 <= x <= 1: its terms fall at least as fast
as j**-k, so seven or fewer meet 1e-33.  Below that order it takes zeta(k)
at x = 1, the power series below x = _LOG_SERIES_FROM, which needs about
76/|log x| terms for 1e-33, and from there up to 1 the expansion around
mu = log x (DLMF Sec. 25.12(ii); Crandall, "Note on fast polylogarithm
computation", 2006),

    Li_k(e**mu) = sum_{j != k-1} zeta(k-j) mu**j / j!
                  + mu**(k-1) / (k-1)! * (H_{k-1} - log(-mu)),   |mu| < 2 pi,

whose terms fall like (|mu| / 2 pi)**j, so a few dozen terms suffice however
close x is to 1.  The zeta values are exact rationals rounded once to
double-double, both from one table of Bernoulli numbers:
zeta(-n) = (-1)**n B_{n+1} / (n+1), and zeta(s), s >= 2, by Euler-Maclaurin
summation (DLMF 25.2.9).  Both are filled lazily, up to the orders the
series reaches.

The parts that depend on x alone (mu = log x, log(-mu), and the tables of
x**j and mu**j, grown one dd_mul at a time) come from _dd.context(x), the
per-x context the closed forms at that x share, so the orders k at one x
form them once; a power-series term is x**j from the table divided by
j**k.  A value does not depend on which orders were asked for before it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from ._dd import (
    DD, context, dd, dd_add, dd_div, dd_from_ratio, dd_mul, dd_sub,
    dd_to_float,
)
from .numcore import (
    DomainError, InvalidParams, NonFinite, NotConverged, require_ints,
)

# polylog_derivative_series takes the kernel combos (j >= 2) from here up,
# where the series needs ~1/(1-x) terms to meet its tail bound.
_COMBOS_FROM = 0.5

# Below order _POWER_SERIES_FROM, _polylog_dd sums the log series from here
# up: |log x| <= 0.511, so its terms fall at least 12-fold per order, while
# the power series would still need ~150 terms at this x and ~76/(1-x)
# closer to 1.
_LOG_SERIES_FROM = 0.6

# From this order on, _polylog_dd takes the power series at every x: it
# needs at most seven terms (j**-40 < 1e-33 from j = 7), where the log
# series runs past j = k.
_POWER_SERIES_FROM = 40

# zeta(s), s >= 2, by Euler-Maclaurin: the head sum to _ZETA_HEAD and
# _ZETA_CORRECTIONS Bernoulli terms leave under 3e-39 (s = 2; less above).
_ZETA_HEAD = 30
_ZETA_CORRECTIONS = 15


def polylog(k: int, x: float) -> float:
    """Li_k(x) for integer k >= 1 and -1 <= x <= 1 (x < 1 for k = 1).

    Li_1 is -log(1-x).  For k >= 2 it is the double-double core rounded
    once on [0, 1], and below 0 the duplication formula
    Li_k(x) = 2**(1-k) Li_k(x**2) - Li_k(-x) on the same core.
    """
    require_ints(k=k)
    if k < 1:
        raise InvalidParams("order k must be >= 1")
    if not -1.0 <= x <= 1.0 or (k == 1 and x == 1.0):
        raise DomainError("polylog requires -1 <= x <= 1, and x < 1 for k = 1")
    if k == 1:
        return -math.log1p(-x)
    if x >= 0.0:
        return dd_to_float(_polylog_dd(k, x))
    y, e = dd_mul(dd(x), dd(x))  # x*x and its exact error
    square = _polylog_dd(k, y)
    if e:  # x**2 = y + e exactly: Li_k(x**2) to first order in e
        square = dd_add(square, dd(e * polylog(k - 1, y) / y))
    return dd_to_float(dd_sub(dd_mul(dd(2.0 ** (1 - k)), square),
                              _polylog_dd(k, -x)))


def polylog_derivative_series(j: int, d: int, x: float) -> float:
    """d-th derivative of Li_j at x: d! * f_{d,j}(x).

    Termwise, Li_j^(d)(x) = sum_k d! C(d+k,k) x**k / (d+k)**j, the kernel
    series times d!.  j <= 1 takes the closed base kernels (Li_0(x) :=
    x/(1-x), so j = 0 gives d!/(1-x)**(d+1), and j = 1 gives
    (d-1)!/(1-x)**d; a (1-x)**d below the smallest normal float needs
    d >= 20, where that passes float range).  For j >= 2 the kernel is
    the exact combo from _COMBOS_FROM up, where the series would need
    ~1/(1-x) terms, and the series below it, where the combo's x**(-d)
    prefactor cancels.  At every j, NotConverged is raised where d! times
    the kernel passes float range.  Nothing in the package calls it: the
    moments are mkz.gmkz_apply on a Monomial, which needs no kernel f_{d,j}.
    """
    from .basis import combo_eval, fnj_combo, fnj_series  # basis imports this module

    require_ints(j=j, d=d)
    if j < 0:
        raise InvalidParams("j must be >= 0")
    if d < 1:
        raise InvalidParams("d must be >= 1")
    if not 0.0 <= x < 1.0:
        raise DomainError("derivative series requires 0 <= x < 1")
    # a power, a series weight, a combo coefficient or d! passes float range,
    # or (1-x)**d is 0
    try:
        if j == 0:
            kernel = (1.0 - x) ** (-(d + 1))
        elif j == 1:
            kernel = 1.0 / (d * (1.0 - x) ** d)
        elif x >= _COMBOS_FROM:
            kernel = combo_eval(fnj_combo(d, j), x)
        else:
            kernel = fnj_series(d, j, x).value
        value = math.factorial(d) * kernel
    except (OverflowError, ZeroDivisionError, NonFinite):
        value = math.inf
    if not math.isfinite(value):
        raise NotConverged("derivative overflows float range")
    return value


@lru_cache(maxsize=4096)
def _polylog_dd(k: int, x: float) -> DD:
    """Li_k(x) in double-double to about 1e-31 relative, the package's one
    Li_k, for 0 <= x <= 1 and k >= 2, by the one rule of the module
    docstring: from order _POWER_SERIES_FROM on the power series at every
    x; below it zeta(k) at 1, the log series from _LOG_SERIES_FROM up and
    the power series below."""
    if k < _POWER_SERIES_FROM:
        if x == 1.0:
            z = _zeta(k)
            return dd_from_ratio(z.numerator, z.denominator)
        if x >= _LOG_SERIES_FROM:
            return _polylog_log_series(k, x)
    return _polylog_power_series(k, x)


def _polylog_power_series(k: int, x: float) -> DD:
    """Li_k(x) from sum x**j / j**k: where _polylog_dd takes it, 7 terms at
    most from order 40 on and 131 below x = 0.6 (k = 2 just below 0.6).

    The exponent test k*(bit_length(j) - 1) > 996 ends the sum before a
    j**k past 2**996, which Dekker's split cannot take (that term and every
    later one is below 2**-996 x, far under the stop rule): at j = 2 it
    stops every k > 996, and the sum reaches j >= 3 only where term j-1
    exceeded 1e-33 of it, so (j-1)**k < 1e33, k < 110 and j**k < 2**174.
    """
    ctx = context(x)
    total = dd(0.0)
    j = 1
    while True:
        if k * (j.bit_length() - 1) > 996:
            return total
        term = dd_div(ctx.xpows(j)[j], dd_from_ratio(j ** k, 1))
        total = dd_add(total, term)
        if abs(term[0]) <= 1e-33 * abs(total[0]):
            return total
        j += 1


def _polylog_log_series(k: int, x: float) -> DD:
    """Li_k(x) from the series in mu = log x; any 0 < x < 1 with |log x| < 2 pi."""
    ctx = context(x)
    total = dd(0.0)
    j = 0
    while True:
        c = _log_series_coef(k, j)
        if j == k - 1:
            c = dd_sub(c, dd_div(ctx.log_neg_mu, dd_from_ratio(math.factorial(j), 1)))
        if c[0] != 0.0:  # zeta(-n) vanishes for even n >= 2
            term = dd_mul(c, ctx.mupows(j)[j])
            total = dd_add(total, term)
            # from j = k on, the nonzero terms shrink monotonically
            if j >= k and abs(term[0]) <= 1e-33 * abs(total[0]):
                return total
        j += 1


@lru_cache(maxsize=None)
def _log_series_coef(k: int, j: int) -> DD:
    """Rational part of the mu**j coefficient of Li_k(e**mu), rounded once.

    zeta(k-j) / j!, and H_{k-1} / (k-1)! at j = k-1, where the log(-mu) part
    is added by the caller.
    """
    if j == k - 1:
        q = sum(Fraction(1, i) for i in range(1, k))
    else:
        q = _zeta(k - j)
    q /= math.factorial(j)
    return dd_from_ratio(q.numerator, q.denominator)


@lru_cache(maxsize=None)
def _zeta(s: int) -> Fraction:
    """zeta(s) for integer s != 1: exact for s <= 0, within 3e-39 for s >= 2.

    For s >= 2, Euler-Maclaurin (DLMF 25.2.9) at n = _ZETA_HEAD:
    sum_{j<n} j**-s + n**-s / 2 + n**(1-s) / (s-1)
    + sum_{i=1}^{_ZETA_CORRECTIONS} C(s+2i-2, 2i-1) B_{2i} / (2i) n**(1-s-2i).
    """
    if s <= 0:
        return (-1) ** -s * _bernoulli(1 - s) / (1 - s)
    n = _ZETA_HEAD
    return (sum(Fraction(1, j ** s) for j in range(1, n))
            + Fraction(s - 1 + 2 * n, 2 * (s - 1) * n ** s)
            + sum(math.comb(s + 2 * i - 2, 2 * i - 1) * _bernoulli(2 * i)
                  / (2 * i * n ** (s + 2 * i - 1))
                  for i in range(1, _ZETA_CORRECTIONS + 1)))


@lru_cache(maxsize=None)
def _bernoulli(n: int) -> Fraction:
    """B_n (B_1 = -1/2) from sum_{j <= n} C(n+1, j) B_j = 0.

    Odd indices above 1 vanish, so only the even ones are formed and summed;
    each call reads the ones below it from the cache.
    """
    if n == 0:
        return Fraction(1)
    if n > 1 and n % 2:
        return Fraction(0)
    return -sum(math.comb(n + 1, j) * _bernoulli(j)
                for j in range(n) if j < 2 or j % 2 == 0) / (n + 1)
