"""Meyer-Konig-Zeller type operators and their moments.

gmkz_apply applies the generalized operator

    (M_{n,r}^{a,b} f)(x) = (1-x)**(n+r) * sum_k C(n+r+k-1, k) x**k f((k+b)/(n+k+a))

with the classical operator at (r, a, b) = (1, 0, 0).  Two routes:

  1. the series, summed by sum_series until a bound on its tail is within
     1e-17 of the sum (_gmkz_series, also the direct-summation oracle of
     the tests and of verify);
  2. from x = _APPLY_CLOSED_FROM up, for a Monomial(m) with integer a, the
     exact combination of elementary functions and Li_s(x), s = 1..m, of
     _gmkz_closed: N + m + c - 1 double-double terms (N = n + r,
     c = n + a) where the series needs ~(N+50)/(1-x).  A closed value
     whose rounding bound _dd.certified rejects goes to the series.

The higher moments of the classical operator (mkz_moment) and of
M_{n,alpha+1}^{alpha,beta} (gmkz_moment_abel) are gmkz_apply on a
Monomial, so they take the same two routes.  The other moment formulas here
are closed or semi-closed and tested against the series: second moments
through the 2F1 dispatcher and the first moment of the generalized
operator.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import count

from ._dd import (
    BoundedSum, certified, context, dd_div, dd_from_ratio,
    dd_mul, dd_neg, dd_to_float,
)
from .hypergeom import HypergeomParams, hyp2f1_eval
from .numcore import (
    DomainError, InvalidParams, NotConverged, SeriesResult, require_ints,
    sum_series,
)
from .polylog import _polylog_dd

# From this x up, gmkz_apply takes a Monomial with integer alpha through the
# closed form of _gmkz_closed, whose cost does not grow with 1/(1-x).  Below
# it the full-precision series, ~(N+50)/(1-x) terms at ~0.9 us each, costs
# less than the closed form's ~0.6 ms with the polylogs at a new x (0.25 ms
# with them cached): the two cold costs cross at about 0.9.
_APPLY_CLOSED_FROM = 0.9

# The closed form's coefficients take ~N**2 + c*(m+1) Python-int steps
# (~0.15 s cold at N = c = 310); past this many it is not tried.  The
# series cannot stand in there: its weights (1-x)**N underflow from
# N = 310 at x = 0.9.
_CLOSED_MAX_STEPS = 100000


@dataclass(frozen=True)
class GmkzParams:
    """Generalized operator parameters: integer n >= 1, integer r with
    n + r >= 1, finite reals alpha >= beta >= 0."""

    n: int
    r: int
    alpha: float
    beta: float

    def __post_init__(self):
        require_ints(n=self.n, r=self.r)
        if self.n < 1:
            raise InvalidParams("n must be >= 1")
        if self.n + self.r < 1:
            raise InvalidParams("n + r must be >= 1")
        if not (self.alpha >= self.beta >= 0 and math.isfinite(self.alpha)):
            raise InvalidParams("need finite alpha >= beta >= 0")


@dataclass(frozen=True)
class Monomial:
    """e_r(t) = t**r."""

    r: int

    def __post_init__(self):
        require_ints(r=self.r)
        if self.r < 0:
            raise InvalidParams("exponent must be >= 0")

    def __call__(self, t: float) -> float:
        return t ** self.r


def gmkz_apply(params: GmkzParams, f, x: float) -> SeriesResult:
    """Apply the generalized operator to f at x.

    A Monomial(m) with integer alpha, from x = _APPLY_CLOSED_FROM up, takes
    the closed form of _gmkz_closed: N + m + c - 1 double-double terms
    (N = n + r, c = n + alpha) in place of the ~(N+50)/(1-x) terms of the
    series.  Its SeriesResult has terms_used = that term count,
    converged True, trunc_err_est 0.0 (the form is exact), and abs_sum such
    that terms_used * abs_sum * 2**-53, a series result's rounding bound, is
    the closed form's running bound.  It is kept where _dd.certified accepts
    that bound and every coefficient is within float range, and is tried only
    where its coefficients take at most _CLOSED_MAX_STEPS steps
    (~N**2 + c*(m+1)).  Every other case is summed by _gmkz_series.
    """
    if not 0.0 <= x < 1.0:
        raise DomainError("operator series requires 0 <= x < 1")
    a = params.alpha
    if x >= _APPLY_CLOSED_FROM and isinstance(f, Monomial) \
            and float(a).is_integer():
        N, c, m = params.n + params.r, params.n + int(a), f.r
        if N * N + c * (m + 1) <= _CLOSED_MAX_STEPS:
            res = _gmkz_closed(N, c, params.beta, m, x)
            if res is not None:
                return res
    return _gmkz_series(params, f, x)


def _gmkz_series(params: GmkzParams, f, x: float) -> SeriesResult:
    """The operator series summed term by term, stopped by a tail bound.

    The weights w_k = (1-x)**N C(N+k-1, k) x**k, N = n + r, step by
    x (N+k)/(k+1), which falls with k; so once rho = x (N+k+1)/(k+2) < 1
    everything after term k is at most F w_{k+1} / (1 - rho), F a bound on
    |f| at the later nodes (k+b)/(n+k+a) in [0, 1).  sum_series stops once
    that bound is at most 1e-17 times the partial sum, and returns it as
    trunc_err_est.  F = 1 for a Monomial.  For any other f, F is the
    largest |f| met so far: a bound only where |f| at the later nodes,
    which tend to 1, stays below it; until some f is nonzero there is no
    bound, so an f that is 0 at every node sums until the weights underflow
    to 0.  Raises NotConverged at sum_series' term cap, or where (1-x)**N
    leaves the normal float range.
    """
    if not 0.0 <= x < 1.0:
        raise DomainError("operator series requires 0 <= x < 1")
    n, r, a, b = params.n, params.r, params.alpha, params.beta
    N = n + r
    monomial = isinstance(f, Monomial)
    w = (1.0 - x) ** N
    if w < sys.float_info.min:
        raise NotConverged("operator weights underflow float range")

    w_k, bound = w, 1.0 if monomial else 0.0

    def terms():
        nonlocal w_k, bound
        for k in count():
            fk = f((k + b) / (n + k + a))
            if not monomial:
                bound = max(bound, abs(fk))
            term = w_k * fk
            w_k *= (N + k) / (k + 1.0) * x  # w_(k+1), which tail reads
            yield term

    def tail(k, term):
        rho = x * (N + k + 1) / (k + 2.0)
        if w_k == 0.0:
            return 0.0
        return bound * w_k / (1.0 - rho) if rho < 1.0 and bound > 0.0 else math.inf

    res = sum_series(terms(), tail)
    if not res.converged:
        raise NotConverged("operator series did not converge")
    return res


def _gmkz_closed(N: int, c: int, beta: float, m: int, x: float):
    """(1-x)**N sum_k C(N+k-1,k) x**k ((k+beta)/(k+c))**m in closed form.

    With u = k + c, C(N+k-1,k) (k+beta)**m / (k+c)**m is the Laurent
    polynomial Q(u) = prod_{t=1}^{N-1} (u-c+t) (u+beta-c)**m / (u**m (N-1)!),
    with exact rational coefficients (_closed_coefficients).  Its polynomial
    part sums in Bernstein form, (1-x)**N sum_k x**k p(k) =
    sum_i Delta**i p(0) x**i (1-x)**(N-1-i) (Newton's forward differences of
    p(k) = Q_+(k+c) and sum_k C(k,i) x**k = x**i / (1-x)**(i+1)), with no
    division by 1-x.  Its part in u**(-s), s = 1..m, sums to
    x**(-c) (Li_s(x) - sum_{u<c} x**u / u**s): Li_1 = -log(1-x) from the
    per-x _dd.context(x), Li_s from _polylog_dd.  Everything is assembled
    in a _dd.BoundedSum, whose bound counts table depth and Li_s, and
    rounded once.

    Returns the SeriesResult gmkz_apply describes, or None where a
    coefficient passes float range or the rounding bound is not certified.
    """
    try:
        bern, neg, head = _closed_coefficients(N, c, m, beta)
    except OverflowError:
        return None
    ctx = context(x)
    xp = ctx.xpows(max(N, c))
    op = ctx.ompows(N)
    acc = BoundedSum()
    for i, g in enumerate(bern):
        acc.add(dd_mul(g, dd_mul(xp[i], op[N - 1 - i])), N + 1)
    if m:
        tail = BoundedSum()
        for s, a in enumerate(neg, 1):
            tail.add(dd_mul(a, dd_neg(ctx.log) if s == 1 else _polylog_dd(s, x)), 2)
        for u, h in enumerate(head, 1):
            tail.add(dd_neg(dd_mul(h, xp[u])), u + 1)
        tail.mul(dd_div(op[N], xp[c]), N + c + 1)  # (1-x)**N x**(-c)
        acc.add_sum(tail)
    value = dd_to_float(acc.total)
    if not certified(value, acc.bound):
        return None
    terms = len(bern) + len(neg) + len(head)
    return SeriesResult(value=value, terms_used=terms, converged=True,
                        trunc_err_est=0.0, abs_sum=acc.bound * 2.0 ** 53 / terms)


@lru_cache(maxsize=1024)
def _closed_coefficients(N: int, c: int, m: int, beta: float):
    """The coefficients of _gmkz_closed, exact rationals each rounded once.

    beta - c = dn / bd exactly (bd a power of two), and D = bd**m (N-1)!.
    A[e+m] = D a_e, e = -m..N-1, are the integer Laurent coefficients of
    prod_{t=1}^{N-1} (u-c+t) * (bd u + dn)**m.  Returns, each over D:
    the Bernstein coefficients Delta**i p(0), i = 0..N-1, of
    p(k) = sum_{e>=0} A[e+m] (k+c)**e; a_{-s}, s = 1..m; and the cut-off
    weights sum_s a_{-s} / u**s, u = 1..c-1 (none for m = 0).  Raises
    OverflowError where a coefficient passes float range.
    """
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
    values = [_horner(A[m:], c + k) for k in range(N)]
    bern = []
    for _ in range(N):
        bern.append(dd_from_ratio(values[0], den))
        values = [v1 - v0 for v0, v1 in zip(values, values[1:])]
    neg = [dd_from_ratio(A[m - s], den) for s in range(1, m + 1)]
    # sum_s A[m-s] / u**s = sum_{j<m} A[j] u**j / u**m
    head = [dd_from_ratio(_horner(A[:m], u), den * u ** m)
            for u in range(1, c)] if m else []
    return tuple(bern), tuple(neg), tuple(head)


def _horner(coefs: list, u: int) -> int:
    """sum_j coefs[j] u**j in integers."""
    v = 0
    for a in reversed(coefs):
        v = v * u + a
    return v


def mkz_moment_e2(n: int, x: float) -> float:
    """Second moment of the classical operator: x**2 plus a 2F1 correction."""
    require_ints(n=n)
    if n < 1:
        raise InvalidParams("n must be >= 1")
    if not 0.0 <= x < 1.0:
        raise DomainError("moment requires 0 <= x < 1")
    if x == 0.0:
        return 0.0
    f = hyp2f1_eval(HypergeomParams(1, 2.0, n + 2), x)
    return x * x + x * (1.0 - x) ** 2 / (n + 1) * f


def mkz_moment(n: int, r: int, x: float) -> float:
    """r-th moment M_n e_r(x) of the classical operator, 0 < x < 1.

    The operator at (r, alpha, beta) = (1, 0, 0), so this is
    gmkz_apply(GmkzParams(n, 1, 0.0, 0.0), Monomial(r), x).value:
    the closed form from x = _APPLY_CLOSED_FROM up, the full-precision
    series below it.  Order 0 is exactly 1.0.
    """
    require_ints(n=n, r=r)
    if n < 1:
        raise InvalidParams("n must be >= 1")
    if r < 0:
        raise InvalidParams("moment order must be >= 0")
    if not 0.0 < x < 1.0:
        raise DomainError("moment requires 0 < x < 1")
    if r == 0:
        return 1.0
    return gmkz_apply(GmkzParams(n, 1, 0.0, 0.0), Monomial(r), x).value


def ln_moment_e2(n: int, x: float) -> float:
    """Second moment of the integral-type variant L_n, closed form."""
    require_ints(n=n)
    if n < 1:
        raise InvalidParams("n must be >= 1")
    if not 0.0 <= x < 1.0:
        raise DomainError("moment requires 0 <= x < 1")
    if x == 0.0:
        return 0.0
    f = hyp2f1_eval(HypergeomParams(1, 3.0, n + 3), x)
    return x * x + 2.0 * x * (1.0 - x) ** 2 / (n + 2) * f


def ln_moment_e2_direct(n: int, x: float) -> float:
    """Direct-summation oracle for the L_n second moment.

    The Beta-integral moments of the basis weights reduce to
    k(k+1)/((n+k)(n+k+1)) at order 2, so the oracle sums
    sum_{k>=1} C(n+k,k) x**k (1-x)**(n+1) * k(k+1)/((n+k)(n+k+1))
    with no quadrature involved.  Its last factor is at most 1, so past term
    k the weights' bound (1-x)**(n+1) w_(k+1) / (1 - rho),
    rho = x (n+k+2)/(k+2), bounds the tail.
    """
    require_ints(n=n)
    if n < 1:
        raise InvalidParams("n must be >= 1")
    if not 0.0 <= x < 1.0:
        raise DomainError("moment requires 0 <= x < 1")
    if x == 0.0:
        return 0.0
    pref = (1.0 - x) ** (n + 1)
    w = (n + 1) * x  # C(n+k, k) x**k at k = 1

    def terms():
        nonlocal w
        for k in count(1):
            term = pref * w * (k * (k + 1.0)) / ((n + k) * (n + k + 1.0))
            w *= (n + k + 1) / (k + 1.0) * x  # the weight of the next term
            yield term

    def tail(i, term):  # term i of the source is k = i + 1
        rho = x * (n + i + 3) / (i + 3.0)
        return pref * w / (1.0 - rho) if rho < 1.0 else math.inf

    res = sum_series(terms(), tail)
    if not res.converged:
        raise NotConverged("moment series did not converge")
    return res.value


def gmkz_e1(params: GmkzParams, x: float) -> float:
    """First moment of the generalized operator, via two 2F1 closed forms.

    Requires integer alpha: the moment formula's 2F1 triples are
    (1, alpha-r; n+1+alpha) and (1, alpha-r+1; n+2+alpha), and the closed
    forms need integer lower parameters.
    """
    n, r, a, b = params.n, params.r, params.alpha, params.beta
    if a != int(a):
        raise InvalidParams("alpha must be a nonnegative integer here")
    a = int(a)
    if not 0.0 <= x < 1.0:
        raise DomainError("moment requires 0 <= x < 1")
    if x == 0.0:
        return b / (n + a)
    f1 = hyp2f1_eval(HypergeomParams(1, float(a - r), n + 1 + a), x)
    f2 = hyp2f1_eval(HypergeomParams(1, float(a - r + 1), n + 2 + a), x)
    return b / (n + a) * f1 + (n + r - b) / (n + 1 + a) * x * f2


def gmkz_moment_abel(n: int, alpha: int, beta: float, m: int, x: float) -> float:
    """m-th moment of M_{n,alpha+1}^{alpha,beta}, integer alpha, 0 < x < 1.

    gmkz_apply(GmkzParams(n, alpha+1, alpha, beta), Monomial(m), x).value,
    so the same routes as mkz_moment.  Order 0 is exactly 1.0.
    """
    require_ints(n=n, alpha=alpha, m=m)
    if n < 1:
        raise InvalidParams("n must be >= 1")
    if alpha < 0:
        raise InvalidParams("alpha must be >= 0")
    if not (alpha >= beta >= 0):
        raise InvalidParams("need alpha >= beta >= 0")
    if m < 0:
        raise InvalidParams("moment order must be >= 0")
    if not 0.0 < x < 1.0:
        raise DomainError("moment requires 0 < x < 1")
    if m == 0:
        return 1.0
    params = GmkzParams(n, alpha + 1, float(alpha), beta)
    return gmkz_apply(params, Monomial(m), x).value
