"""Polylogarithm Li_k and its termwise-differentiated series.

There is one Li_k: the double-double core _polylog_dd, which the public
polylog rounds once (Li_1 = -log(1-x) is closed form).  The derivative
(Li_j)^(d) is d! times the moment kernel f_{d,j}, from basis: the closed
base kernels for j <= 1, and for j >= 2 the exact combo from x = 1/2 up,
basis.fnj_series below.

The double-double core has two branches.  Below x = _LOG_SERIES_FROM it
sums x**j / j**k, which needs about 76/|log x| terms for 1e-33.  From there
up to 1 it sums the expansion around mu = log x (DLMF Sec. 25.12(ii);
Crandall, "Note on fast polylogarithm computation", 2006),

    Li_k(e**mu) = sum_{j != k-1} zeta(k-j) mu**j / j!
                  + mu**(k-1) / (k-1)! * (H_{k-1} - log(-mu)),   |mu| < 2 pi,

whose terms fall like (|mu| / 2 pi)**j, so a few dozen terms suffice however
close x is to 1.  The zeta values come from exact rationals rounded once to
double-double: zeta(-n) = (-1)**n B_{n+1} / (n+1) from Bernoulli numbers,
and zeta(s), s >= 2, from Borwein's alternating-series algorithm.  Both are
filled lazily, up to the orders the series reaches.

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
    DD, _two_prod, context, dd, dd_add, dd_div, dd_from_int,
    dd_from_ratio, dd_mul, dd_sub, dd_to_float,
)
from .numcore import DomainError, InvalidParams, NotConverged, require_ints

# polylog_derivative_series takes the kernel combos (j >= 2) from here up,
# where the series needs ~1/(1-x) terms to meet its tail bound.
_COMBOS_FROM = 0.5

# _polylog_dd sums the log series from here up: |log x| <= 0.511, so its
# terms fall at least 12-fold per order, while the power series would still
# need ~150 terms at this x and ~76/(1-x) closer to 1.
_LOG_SERIES_FROM = 0.6

# Borwein, "An efficient algorithm for the Riemann zeta function" (2000),
# algorithm 2: truncation error below 3 / (3 + sqrt 8)**48 / (1 - 2**(1-s)),
# about 1e-36, well under the double-double rounding of the result.
_BORWEIN_N = 48


def polylog(k: int, x: float) -> float:
    """Li_k(x) for integer k >= 1 and -1 <= x <= 1 (x < 1 for k = 1).

    Li_1 is -log(1-x).  For k >= 2 it is the double-double core rounded
    once: zeta(k) at x = 1 from the exact rational behind the core's zeta
    table, _polylog_dd on [0, 1), and below 0 the duplication formula
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
        return dd_to_float(_unit_polylog_dd(k, x))
    y, e = _two_prod(x, x)
    square = _unit_polylog_dd(k, y)
    if e:  # x**2 = y + e exactly: Li_k(x**2) to first order in e
        square = dd_add(square, dd(e * polylog(k - 1, y) / y))
    return dd_to_float(dd_sub(dd_mul(dd(2.0 ** (1 - k)), square),
                              _unit_polylog_dd(k, -x)))


def _unit_polylog_dd(k: int, x: float) -> DD:
    """Li_k(x) in double-double for 0 <= x <= 1, k >= 2: zeta(k) at 1."""
    if x == 1.0:
        z = _zeta(k)
        return dd_from_ratio(z.numerator, z.denominator)
    return _polylog_dd(k, x)


def polylog_derivative_series(j: int, d: int, x: float) -> float:
    """d-th derivative of Li_j at x: d! * f_{d,j}(x).

    Termwise, Li_j^(d)(x) = sum_k d! C(d+k,k) x**k / (d+k)**j, the kernel
    series times d!.  j <= 1 takes the closed base kernels of
    basis.fnj_base (Li_0(x) := x/(1-x), so j = 0 gives d!/(1-x)**(d+1), and
    j = 1 gives (d-1)!/(1-x)**d), raising NotConverged where they pass float
    range.  For j >= 2 the kernel is the exact combo from _COMBOS_FROM up,
    where the series would need ~1/(1-x) terms, and the series below it,
    where the combo's x**(-d) prefactor cancels.  Nothing in the package
    calls it: the moments are mkz.gmkz_apply on a Monomial, which needs no
    kernel f_{d,j}.
    """
    from .basis import combo_eval, fnj_base, fnj_combo, fnj_series  # basis imports this module

    require_ints(j=j, d=d)
    if j < 0:
        raise InvalidParams("j must be >= 0")
    if d < 1:
        raise InvalidParams("d must be >= 1")
    if not 0.0 <= x < 1.0:
        raise DomainError("derivative series requires 0 <= x < 1")
    if j <= 1:
        try:
            value = math.factorial(d) * fnj_base(d, j)(x)
            if value != math.inf:
                return value
        except (OverflowError, ZeroDivisionError):  # (1-x)**d leaves float range
            pass
        raise NotConverged("derivative overflows float range")
    if x >= _COMBOS_FROM:
        return math.factorial(d) * combo_eval(fnj_combo(d, j), x)
    return math.factorial(d) * fnj_series(d, j, x).value


@lru_cache(maxsize=4096)
def _polylog_dd(k: int, x: float) -> DD:
    """Li_k(x) in double-double, the package's one Li_k.  0 <= x < 1, k >= 2.

    Below _LOG_SERIES_FROM: the power series x**j / j**k.  From there on:
    the series in mu = log x with the double-double zeta table (see the
    module docstring).  Either meets about 1e-31 relative.
    """
    if x >= _LOG_SERIES_FROM:
        return _polylog_log_series(k, x)
    return _polylog_power_series(k, x)


def _polylog_power_series(k: int, x: float) -> DD:
    """Li_k(x) from sum x**j / j**k; below _LOG_SERIES_FROM, ~150 terms or fewer."""
    ctx = context(x)
    total = dd(0.0)
    j = 1
    while True:
        term = dd_div(ctx.xpows(j)[j], dd_from_int(j ** k))
        total = dd_add(total, term)
        if abs(term[0]) <= 1e-33 * abs(total[0]):
            return total
        j += 1
        if j > 2000000:
            raise NotConverged("double-double polylog series stalled")


def _polylog_log_series(k: int, x: float) -> DD:
    """Li_k(x) from the series in mu = log x; any 0 < x < 1 with |log x| < 2 pi."""
    ctx = context(x)
    total = dd(0.0)
    j = 0
    while True:
        c = _log_series_coef(k, j)
        if j == k - 1:
            c = dd_sub(c, dd_div(ctx.log_neg_mu, dd_from_int(math.factorial(j))))
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
    """zeta(s) for integer s != 1: exact for s <= 0, within ~1e-36 for s >= 2."""
    if s <= 0:
        return (-1) ** -s * _bernoulli(1 - s) / (1 - s)
    d = _borwein_d()
    alt = sum(Fraction((-1) ** i * (d[i] - d[-1]), (i + 1) ** s)
              for i in range(_BORWEIN_N))
    return -alt * 2 ** (s - 1) / (d[-1] * (2 ** (s - 1) - 1))


@lru_cache(maxsize=None)
def _borwein_d() -> tuple:
    """Borwein's partial sums d_0..d_N, N = _BORWEIN_N (all integers)."""
    n = _BORWEIN_N
    d, acc = [], 0
    for i in range(n + 1):
        acc += (n * math.factorial(n + i - 1) * 4 ** i
                // (math.factorial(n - i) * math.factorial(2 * i)))
        d.append(acc)
    return tuple(d)


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
