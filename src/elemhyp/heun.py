"""A Heun-equation family whose solutions expand in Gauss 2F1 functions.

The family fixes the singular point a = 1/2 and ties all seven Heun
parameters to a triple (m, n, p).  The expansion

    u(x) = sum_k c_k * 2F1(m, n; p+2k; x)

has Pochhammer-ratio coefficients c_k.  For special n the coefficients
vanish identically from some index r on (heun_termination finds it), and
only then is the sum the Heun solution: a finite, exact representation.  For
every other member the two-term recurrence of c_k does not fit the equation
(true 2F1 expansions of Heun functions, DLMF 31.11, need three-term
recurrences), so the infinite sum is a different function.  heun_eval still
returns its partial sums there, never claiming convergence, and
heun_normalization raises.  The independent cross-check is a power-series
oracle built from the three-term recurrence of the equation itself, trusted
on |x| < 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, islice

from .hypergeom import HypergeomParams, _routes
from .numcore import (
    DomainError, InvalidParams, NonFinite, SeriesResult, require_ints,
)


@dataclass(frozen=True)
class HeunSpec:
    """Canonical-form equation parameters.

    u'' + (gamma/x + delta/(x-1) + epsilon/(x-a)) u'
       + (alpha*beta*x - q) / (x(x-1)(x-a)) u = 0
    """

    alpha: float
    beta: float
    gamma: float
    delta: float
    epsilon: float
    a: float
    q: float

    def __post_init__(self):
        if self.a in (0.0, 1.0):
            raise InvalidParams("singular point a must avoid 0 and 1")
        fuchs = self.alpha + self.beta + 1.0 - (self.gamma + self.delta + self.epsilon)
        if not abs(fuchs) <= 1e-9:  # a nan or inf among them too
            raise InvalidParams("parameters must be finite and satisfy "
                                "alpha+beta+1 = gamma+delta+epsilon")


@dataclass(frozen=True)
class HeunFamilyParams:
    """The (m, n, p) triple: integer m >= 1, finite real n != 0, integer
    p >= m+1."""

    m: int
    n: float
    p: int

    def __post_init__(self):
        HypergeomParams(self.m, self.n, self.p)  # the checks of a 2F1 triple
        if self.n == 0:
            raise InvalidParams("n must be nonzero")


def heun_params_from(fp: HeunFamilyParams) -> HeunSpec:
    """Equation parameters for the family member (m, n, p); a is always 1/2."""
    m, n, p = fp.m, fp.n, fp.p
    return HeunSpec(
        alpha=float(m),
        beta=float(n),
        gamma=p + 1.0 - m - n,
        delta=m + n - p + 1.0,
        epsilon=m + n - 1.0,
        a=0.5,
        q=(m * n - (m + n - p) * (m + n - 1.0)) / 2.0,
    )


def _coeffs(fp: HeunFamilyParams):
    """c_0 = 1, c_1, ..., each the last times the ratio
    ((m+n-1)/2+k) ((p-m)/2+k) ((p-n)/2+k) / ((k+1) (p/2+k) ((p+1)/2+k)),
    up to the last nonzero one: every later coefficient is zero too."""
    m, n, p = fp.m, fp.n, fp.p
    # the shifts once per call, and k as an exact float: the same floats
    a1, a2, a3 = (m + n - 1.0) / 2.0, (p - m) / 2.0, (p - n) / 2.0
    b2, b3 = p / 2.0, (p + 1.0) / 2.0
    c = 1.0
    for k in count(0.0):
        yield c
        c *= (a1 + k) * (a2 + k) * (a3 + k) / ((k + 1.0) * (b2 + k) * (b3 + k))
        if c == 0.0:
            return


def heun_coeff(fp: HeunFamilyParams, k: int) -> float:
    """Coefficient c_k of the 2F1(m, n; p+2k; x) leaf; c_0 = 1.

    A zero Pochhammer base makes every later coefficient exactly zero, and
    the float iteration preserves that exactly.  A c_k past float range
    raises NonFinite, as the sums of heun_eval and heun_normalization do.
    """
    require_ints(k=k)
    if k < 0:
        raise InvalidParams("k must be >= 0")
    c = next(islice(_coeffs(fp), k, None), 0.0)
    if not math.isfinite(c):
        raise NonFinite(f"coefficient c_{k} passes float range")
    return c


def heun_termination(fp: HeunFamilyParams):
    """Smallest r >= 1 with c_k = 0 for all k >= r, or None.

    The two vanishing conditions are m+n = 3-2r and n-p = 2r-2, taken
    exactly: an n that misses them by any amount does not terminate.  Both
    need an integer n, so they are checked in integers, where a float sum
    such as 2 + 2**52 - 0.5 would round to one.
    """
    if not float(fp.n).is_integer():
        return None
    n = int(fp.n)
    return min((twice // 2 for twice in (3 - fp.m - n, n - fp.p + 2)
                if twice >= 2 and twice % 2 == 0), default=None)


def heun_eval(fp: HeunFamilyParams, x: float, K: int) -> SeriesResult:
    """Partial sum of the 2F1 expansion, K terms (fewer if it terminates).

    Each leaf is hyp2f1_eval of (m, n; p+2k), at full precision, past the
    checks HeunFamilyParams and this function made (hypergeom._routes).
    Below x = 1/2 the leaves share one list of the term-ratio factors of
    their defining series, which depend on m and n alone
    (hypergeom._leaf_series).  A
    member that terminates at r gives the exact finite sum for any K >= r,
    with converged True and trunc_err_est 0.0.  Any other partial sum,
    K < r or a member that never terminates, is returned as it is, with
    converged False and trunc_err_est math.inf (no bound on the rest is
    known, as sum_series reports it).  The terms c_k * leaf are summed by
    _finite_sum: rounded once, and an inf or nan term raises NonFinite.
    """
    require_ints(K=K)
    if K < 1:
        raise InvalidParams("K must be >= 1")
    if not 0.0 <= x < 1.0:
        raise DomainError("expansion requires 0 <= x < 1")
    r = heun_termination(fp)
    kmax = min(K, r) if r is not None else K
    total = _finite_sum(_leaf_terms(fp, x, kmax, 0))
    terminated = r is not None and r <= K
    return SeriesResult(value=total, terms_used=kmax, converged=terminated,
                        trunc_err_est=0.0 if terminated else math.inf)


def _leaf_terms(fp: HeunFamilyParams, x: float, kmax: int, s: int) -> list:
    """c_k * 2F1(m+s, n+s; p+2k+s; x) for k < kmax, each leaf by _routes on
    one list of term-ratio factors (hypergeom._leaf_series): s = 0 gives the
    terms of the expansion, s = 1 those of its derivative (DLMF 15.5.1)."""
    m, n, p, ratios = fp.m + s, float(fp.n) + s, fp.p + s, []
    return [c * _routes(m, n, p + 2 * k, x, ratios)
            for k, c in zip(range(kmax), _coeffs(fp))]


def heun_normalization(fp: HeunFamilyParams) -> float:
    """u(0) = sum_{k<r} c_k, the value the oracle comparisons normalize by.

    Defined only for a member that terminates at r: any other member raises
    DomainError, since its expansion is not the Heun solution; the first
    c_k past float range raises NonFinite (_finite_sum), as in heun_eval.
    """
    r = heun_termination(fp)
    if r is None:
        raise DomainError("the expansion does not terminate: no value at 0")
    return _finite_sum(c for _, c in zip(range(r), _coeffs(fp)))


def heun_series_oracle(spec: HeunSpec, x: float) -> float:
    """Independent power-series solution around 0, normalized to u(0) = 1.

    Coefficients follow the three-term recurrence obtained by substituting
    sum d_j x**j into the equation multiplied through by x(x-1)(x-a).
    Trusted only inside |x| < min(1, |a|), the distance to the nearest other
    singular point.  gamma at 0 or a negative integer makes the recurrence
    division singular (the series solution is not unique there).  The
    value is the partial sum of the first 401 terms by definition, summed by
    _finite_sum: rounded once, and an inf or nan term, or a divisor
    a (j+1) (j+gamma) that underflows to 0, raises NonFinite.
    """
    if not abs(x) < min(1.0, abs(spec.a)):  # nan too
        raise DomainError("oracle trusted only for |x| < min(1, |a|)")
    g = spec.gamma
    if g <= 0.0 and abs(g - round(g)) < 1e-12:
        raise DomainError("gamma at a nonpositive integer: series solution not unique")
    al, be, de, ep, a, q = spec.alpha, spec.beta, spec.delta, spec.epsilon, spec.a, spec.q
    mid1 = 1.0 + a
    midj = g * (1.0 + a) + de * a + ep

    terms = [1.0]
    d_prev, d_cur = 0.0, 1.0
    for j in range(400):
        lhs = a * (j + 1.0) * (j + g)
        mid = (mid1 * j * (j - 1.0) + midj * j + q) * d_cur
        d_next = (mid - (j - 1.0 + al) * (j - 1.0 + be) * d_prev) / lhs if lhs else math.inf
        terms.append(d_next * x ** (j + 1))
        d_prev, d_cur = d_cur, d_next
    return _finite_sum(terms)


def _finite_sum(terms) -> float:
    """math.fsum of finitely many terms, correctly rounded; the first inf or
    nan term raises NonFinite (fsum would return inf, nan or raise)."""
    checked = []
    for i, t in enumerate(terms):
        if not math.isfinite(t):
            raise NonFinite(f"non-finite term at index {i}")
        checked.append(t)
    return math.fsum(checked)


def heun_ode_residual(fp: HeunFamilyParams, x: float, K: int) -> float:
    """Relative residual of the expansion in the equation, its derivatives
    read from the leaves.

    With q_k = p+2k and G_k = 2F1(m+1, n+1; q_k+1; x), DLMF 15.5.1 gives
    u' = m n sum c_k G_k / q_k, and each leaf's own equation (DLMF 15.10.1)
    gives x(1-x) u'' = (m+n+1) x u' - m n sum c_k G_k + m n u, over the
    leaves heun_eval sums (_coeffs ends at the termination index).  The
    equation is taken times x(x-1)(x-a), so that its three terms need no
    division, and the residual is the magnitude of their sum over the sum
    of their magnitudes: the rounding of the leaves and of the sums is its
    floor.  x must lie in 0 < x < 1 away from the singular point 1/2.
    A term or their scale past float range (q of a huge n) raises NonFinite.
    """
    if not (0.0 < x < 1.0 and x != 0.5):  # nan too
        raise DomainError("x must lie in (0, 1) away from the singular point 1/2")
    u, mn = heun_eval(fp, x, K).value, fp.m * float(fp.n)
    g = _leaf_terms(fp, x, K, 1)
    d1 = mn * _finite_sum([t / (fp.p + 2 * k) for k, t in enumerate(g)])
    s = heun_params_from(fp)
    t2 = (s.a - x) * ((fp.m + fp.n + 1.0) * x * d1 - mn * _finite_sum(g) + mn * u)
    t1 = d1 * (s.gamma * (x - 1.0) * (x - s.a) + s.delta * x * (x - s.a)
               + s.epsilon * x * (x - 1.0))
    t0 = (s.alpha * s.beta * x - s.q) * u
    scale = abs(t2) + abs(t1) + abs(t0)
    if not math.isfinite(scale):  # an inf or nan term too
        raise NonFinite("the equation's terms leave float range")
    return abs(t2 + t1 + t0) / scale if scale else 0.0
