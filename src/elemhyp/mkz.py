"""Meyer-Konig-Zeller type operators and their moments.

gmkz_apply applies the generalized operator

    (M_{n,r}^{a,b} f)(x) = (1-x)**(n+r) * sum_k C(n+r+k-1, k) x**k f((k+b)/(n+k+a))

with the classical operator at (r, a, b) = (1, 0, 0).  Two routes:

  1. the series, summed by the flat loop of numcore._weight_series until
     a bound on its tail is within 1e-17 of the sum (_gmkz_series, also
     the direct-summation oracle of the tests and of verify);
  2. from x = _APPLY_CLOSED_FROM up, for a Monomial(m) with integer a, the
     exact combination of elementary functions and Li_s(x), s = 1..m, of
     _gmkz_closed: N + m + c - 1 double-double terms, N at m = 0 (N = n + r,
     c = n + a), where the series needs ~(N+50)/(1-x).  _closed_route
     judges its (value, bound) once; a rejected value goes to the series.

The higher moments of M_{n,alpha+1}^{alpha,beta} (gmkz_moment_abel, and
mkz_moment at alpha = beta = 0) are gmkz_apply on a Monomial, so they take
the same two routes.  The other moment formulas here are closed or
semi-closed and tested against the series: the second moments of M_n and
L_n, one formula through the 2F1 dispatcher, and the first moment of the
generalized operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ._dd import (
    BoundedSum, certified, context, dd_div, dd_from_ratio,
    dd_mul, dd_neg, dd_to_float,
)
from .basis import _exact_coefficients
from .hypergeom import HypergeomParams, hyp2f1_eval
from .numcore import (
    _LOG_FLOAT_MIN, _MAX_TERMS, _weight_series, DomainError,
    InvalidParams, SeriesResult, require_ints,
)
from .polylog import _polylog_dd

# From this x up, gmkz_apply takes a Monomial with integer alpha through the
# closed form of _gmkz_closed, whose cost does not grow with 1/(1-x).  Below
# it the full-precision series, ~(N+50)/(1-x) terms at ~0.3 us each, costs
# less than the closed form's 0.13-0.65 ms with nothing cached at a new x
# (N + m from 8 to 55; 0.02-0.1 ms with the polylogs and coefficients
# cached): the two cold costs cross between 0.87 and 0.92.
_APPLY_CLOSED_FROM = 0.9

# The largest N with C(N-1, (N-1)//2) within sys.float_info.max: past it
# the closed form's Bernstein coefficients at m = 0 leave float range.
_CLOSED_MAX_N = 1030


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
    the closed form of _gmkz_closed: N + m + c - 1 double-double terms at
    m >= 1 and N at m = 0 (N = n + r, c = n + alpha), in place of the
    ~(N+50)/(1-x) terms of the series.  Its SeriesResult has terms_used =
    that term count, converged True, trunc_err_est 0.0 (the form is exact),
    and abs_sum such that terms_used * abs_sum * 2**-53, a series result's
    rounding bound, is the closed form's running bound.  _closed_route keeps
    it where _dd.certified accepts that bound and every coefficient is within
    float range, and tries it only where its coefficients can be
    (N <= _CLOSED_MAX_N); its exact coefficients take (N+m) m integer steps
    each way, and the whole form ~0.1-0.2 s cold at N = 1000, m = 4.  Every
    other case is summed by _gmkz_series.
    """
    if not 0.0 <= x < 1.0:
        raise DomainError("operator series requires 0 <= x < 1")
    if x >= _APPLY_CLOSED_FROM and isinstance(f, Monomial) \
            and float(params.alpha).is_integer():
        res = _closed_route(params, f.r, x)
        if res is not None:
            return res
    return _gmkz_series(params, f, x)


def _closed_route(params: GmkzParams, m: int, x: float):
    """_gmkz_closed for Monomial(m) and an integer alpha, behind its gate,
    judged here, once, by _dd.certified: gmkz_apply's SeriesResult, or None
    where the gate, _gmkz_closed or the judge rejects it.

    The gate is float range and the term cap.  At m = 0 the Bernstein
    coefficients are C(N-1, i) (at m >= 1 and c = N-1 the largest is about
    2**-m times the middle one), so past N = _CLOSED_MAX_N they pass float
    range, and the exact build (0.05-0.1 s at N = 1000, 4.8 s at N = 5000)
    is not tried; nor is a form of more than numcore._MAX_TERMS terms, the
    series' own cap.  The series cannot stand in past _CLOSED_MAX_N either:
    its weight (1-x)**N underflows there for every x >= 1/2.
    """
    N, c = params.n + params.r, params.n + int(params.alpha)
    terms = N + m + c - 1 if m else N  # at m = 0 no Li_s part and no head
    if N > _CLOSED_MAX_N or terms > _MAX_TERMS:
        return None
    pair = _gmkz_closed(N, c, params.beta, m, x)
    if pair is None or not certified(*pair):
        return None
    return SeriesResult(pair[0], terms, True, 0.0, pair[1] * 2.0 ** 53 / terms)


def _gmkz_series(params: GmkzParams, f, x: float) -> SeriesResult:
    """The operator series, numcore._weight_series with w0 = (1-x)**N,
    N = n + r, and g(k) = f at the node (k+b)/(n+k+a) in [0, 1).

    Past term k the tail is at most F w_(k+1) / (1 - rho), F a bound on |f|
    at the later nodes; the loop stops once that is at most 1e-17 times
    the partial sum, and returns it as trunc_err_est.  F = 1 for a
    Monomial.  For any other f, F is the largest |f| met so far: a bound
    only where |f| at the later nodes, which tend to 1, stays below it;
    until some f is nonzero there is no bound (math.inf), so an f that is
    0 at every node sums until the weights underflow (to 0, or from
    x = 1/2 up to a subnormal they stop at: ~15000 terms at x = 0.95, past
    the term cap at 0.999).  Raises NotConverged at the term cap, or where
    (1-x)**N leaves the normal float range.
    """
    if not 0.0 <= x < 1.0:
        raise DomainError("operator series requires 0 <= x < 1")
    n, r, a, b = params.n, params.r, params.alpha, params.beta
    if isinstance(f, Monomial):  # t**m inline: a call per term costs ~50 %
        g, G = (n, a, b, f.r), (lambda k: 1.0)
    else:
        largest = 0.0

        def g(k):
            nonlocal largest
            fk = f((k + b) / (n + k + a))
            largest = max(largest, abs(fk))
            return fk

        G = lambda k: largest or math.inf
    return _weight_series(n + r, x, (1.0 - x) ** (n + r), g, G)


def _gmkz_closed(N: int, c: int, beta: float, m: int, x: float):
    """(1-x)**N sum_k C(N+k-1,k) x**k ((k+beta)/(k+c))**m in closed form.

    With u = k + c, C(N+k-1,k) (k+beta)**m / (k+c)**m is the Laurent
    polynomial Q(u) = prod_{t=1}^{N-1} (u-c+t) (u+beta-c)**m / (u**m (N-1)!),
    with exact rational coefficients (_closed_coefficients, (N+m) m integer
    steps).  Its polynomial part sums in Bernstein form,
    (1-x)**N sum_k x**k p(k) = sum_i Delta**i p(0) x**i (1-x)**(N-1-i)
    (p(k) = Q_+(k+c) = sum_i Delta**i p(0) C(k, i) and
    sum_k C(k,i) x**k = x**i / (1-x)**(i+1)), with no division by 1-x.
    Its part in u**(-s), s = 1..m, sums to
    x**(-c) (Li_s(x) - sum_{u<c} x**u / u**s): Li_1 = -log(1-x) from the
    per-x _dd.context(x), Li_s from _polylog_dd.  Everything is assembled
    in a _dd.BoundedSum, whose bound counts table depth and Li_s, and
    rounded once.

    Returns (value, bound), the bound for _closed_route to judge, or None
    where the form cannot be built: a coefficient passes float range, or
    x**c leaves the normal float range (tested by c log x before anything
    is built: the Li_s tail it scales is then ~x**c and cancels past any
    certified bound).
    """
    if m and c * math.log(x) < _LOG_FLOAT_MIN:
        return None
    try:
        bern, neg, head = _closed_coefficients(N, c, m, beta)
    except OverflowError:
        return None
    ctx = context(x)
    xp = ctx.xpows(max(N, c) if m else N)
    op = ctx.ompows(N)
    acc = BoundedSum()
    for i, g in enumerate(bern):
        acc.add(dd_mul(g, dd_mul(xp[i], op[N - 1 - i])), N + 1)
    if m:
        tail = BoundedSum()
        for s, a in enumerate(neg, 1):
            if a[0]:  # a_{-m} is 0 where 1 <= c <= N-1: no Li_m for it
                tail.add(dd_mul(a, dd_neg(ctx.log) if s == 1 else _polylog_dd(s, x)), 2)
        for u, h in enumerate(head, 1):
            tail.add(dd_neg(dd_mul(h, xp[u])), u + 1)
        tail.mul(dd_div(op[N], xp[c]), N + c + 1)  # (1-x)**N x**(-c)
        acc.add_sum(tail)
    return dd_to_float(acc.total), acc.bound


@lru_cache(maxsize=1024)
def _closed_coefficients(N: int, c: int, m: int, beta: float):
    """The coefficients of _gmkz_closed, exact rationals each rounded once.

    basis._exact_coefficients at (N, c, a, b) = (N, c, m, m), over its D:
    Delta**i p(0), i = 0..N-1; a_{-s}, s = 1..m; and the cut-off weights
    sum_s a_{-s} / u**s, u = 1..c-1 (none for m = 0).  Raises OverflowError
    where a coefficient passes float range.
    """
    bern, neg, den = _exact_coefficients(N, c, m, m, beta)
    # sum_s a_{-s} / u**s = sum_s D a_{-s} u**(m-s) / (D u**m)
    head = tuple(dd_from_ratio(sum(a * u ** (m - s) for s, a in enumerate(neg, 1)),
                               den * u ** m) for u in range(1, c)) if m else ()
    return (tuple(dd_from_ratio(v, den) for v in bern),
            tuple(dd_from_ratio(a, den) for a in neg), head)


def _e2_args(n: int, x: float) -> None:
    """The second moments' argument check: integer n >= 1, 0 <= x < 1."""
    require_ints(n=n)
    if n < 1:
        raise InvalidParams("n must be >= 1")
    if not 0.0 <= x < 1.0:
        raise DomainError("moment requires 0 <= x < 1")


def _second_moment(n: int, k: int, x: float) -> float:
    """x**2 + k x (1-x)**2 / (n+k) 2F1(1, k+1; n+k+1; x), the second moment
    of M_n at k = 1 and of L_n at k = 2 (k x is exact for both); 0.0 at
    x = 0, where the 2F1 is 1."""
    _e2_args(n, x)
    f = hyp2f1_eval(HypergeomParams(1, float(k + 1), n + k + 1), x)
    return x * x + k * x * (1.0 - x) ** 2 / (n + k) * f


def mkz_moment_e2(n: int, x: float) -> float:
    """Second moment of the classical operator: x**2 plus a 2F1 correction."""
    return _second_moment(n, 1, x)


def mkz_moment(n: int, r: int, x: float) -> float:
    """r-th moment M_n e_r(x) of the classical operator, 0 < x < 1: the
    case alpha = beta = 0 of gmkz_moment_abel, with its checks and routes."""
    require_ints(n=n, r=r)  # names r, where gmkz_moment_abel says m
    return gmkz_moment_abel(n, 0, 0.0, r, x)


def ln_moment_e2(n: int, x: float) -> float:
    """Second moment of the integral-type variant L_n, closed form."""
    return _second_moment(n, 2, x)


def ln_moment_e2_direct(n: int, x: float) -> float:
    """Direct-summation oracle for the L_n second moment.

    The Beta-integral moments of the basis weights reduce to
    k(k+1)/((n+k)(n+k+1)) at order 2, so the oracle sums
    sum_k C(n+k,k) x**k (1-x)**(n+1) * k(k+1)/((n+k)(n+k+1))
    with no quadrature involved: numcore._weight_series with N = n + 1,
    whose bound G = 1 holds since the last factor is at most 1 (at x = 0
    its first term, 0, ends it).  Raises NotConverged where (1-x)**(n+1)
    leaves the normal float range.
    """
    _e2_args(n, x)
    return _weight_series(n + 1, x, (1.0 - x) ** (n + 1),
                          lambda k: k * (k + 1.0) / ((n + k) * (n + k + 1.0)),
                          lambda k: 1.0).value


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
    f1 = hyp2f1_eval(HypergeomParams(1, float(a - r), n + 1 + a), x)
    f2 = hyp2f1_eval(HypergeomParams(1, float(a - r + 1), n + 2 + a), x)
    return b / (n + a) * f1 + (n + r - b) / (n + 1 + a) * x * f2


def gmkz_moment_abel(n: int, alpha: int, beta: float, m: int, x: float) -> float:
    """m-th moment of M_{n,alpha+1}^{alpha,beta}, integer alpha, 0 < x < 1.

    gmkz_apply(GmkzParams(n, alpha+1, alpha, beta), Monomial(m), x).value;
    mkz_moment is its case alpha = beta = 0.  Order 0 is exactly 1.0.
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
