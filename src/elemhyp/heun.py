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

from .hypergeom import HypergeomParams, hyp2f1_eval
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
        if abs(fuchs) > 1e-9:
            raise InvalidParams("parameters must satisfy alpha+beta+1 = gamma+delta+epsilon")


@dataclass(frozen=True)
class HeunFamilyParams:
    """The (m, n, p) triple: integer m >= 1, finite real n != 0, integer
    p >= m+1."""

    m: int
    n: float
    p: int

    def __post_init__(self):
        require_ints(m=self.m, p=self.p)
        if not math.isfinite(self.n):
            raise InvalidParams("n must be finite")
        if self.m < 1:
            raise InvalidParams("m must be a positive integer")
        if self.p < self.m + 1:
            raise InvalidParams("p must be >= m+1")
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


def _coeff_ratio(fp: HeunFamilyParams, k: int) -> float:
    m, n, p = fp.m, fp.n, fp.p
    num = ((m + n - 1.0) / 2.0 + k) * ((p - m) / 2.0 + k) * ((p - n) / 2.0 + k)
    den = (k + 1.0) * (p / 2.0 + k) * ((p + 1.0) / 2.0 + k)
    return num / den


def heun_coeff(fp: HeunFamilyParams, k: int) -> float:
    """Coefficient c_k of the 2F1(m, n; p+2k; x) leaf; c_0 = 1.

    A zero Pochhammer base makes every later coefficient exactly zero, and
    the float iteration preserves that exactly.
    """
    require_ints(k=k)
    if k < 0:
        raise InvalidParams("k must be >= 0")
    c = 1.0
    for i in range(k):
        c *= _coeff_ratio(fp, i)
        if c == 0.0:
            return 0.0
    return c


def heun_termination(fp: HeunFamilyParams):
    """Smallest r >= 1 with c_k = 0 for all k >= r, or None.

    The two vanishing conditions are m+n = 3-2r and n-p = 2r-2; n is a float
    input, so integer intent is recovered within 1e-12 (5e-13 after the
    factor of two).
    """
    candidates = []
    for raw in ((3.0 - fp.m - fp.n) / 2.0, (fp.n - fp.p + 2.0) / 2.0):
        r = round(raw)
        if r >= 1 and abs(raw - r) <= 5e-13:
            candidates.append(r)
    return min(candidates) if candidates else None


def heun_eval(fp: HeunFamilyParams, x: float, K: int) -> SeriesResult:
    """Partial sum of the 2F1 expansion, K terms (fewer if it terminates).

    Each leaf is hyp2f1_eval, at full precision.  A member that terminates
    at r gives the exact finite sum for any K >= r, with converged True and
    trunc_err_est 0.0.  Any other partial sum, K < r or a member that never
    terminates, is returned as it is, with converged False and
    trunc_err_est math.inf (no bound on the rest is known, as sum_series
    reports it).  The terms c_k * leaf are summed by _finite_sum: rounded
    once, and an inf or nan term raises NonFinite.
    """
    require_ints(K=K)
    if K < 1:
        raise InvalidParams("K must be >= 1")
    if not 0.0 <= x < 1.0:
        raise DomainError("expansion requires 0 <= x < 1")
    r = heun_termination(fp)
    kmax = min(K, r) if r is not None else K
    terms = []
    c = 1.0
    for k in range(kmax):
        if c == 0.0:
            break
        leaf = hyp2f1_eval(HypergeomParams(fp.m, float(fp.n), fp.p + 2 * k), x)
        terms.append(c * leaf)
        c *= _coeff_ratio(fp, k)
    total = _finite_sum(terms)
    terminated = r is not None and r <= K
    return SeriesResult(value=total, terms_used=kmax, converged=terminated,
                        trunc_err_est=0.0 if terminated else math.inf)


def heun_normalization(fp: HeunFamilyParams) -> float:
    """u(0) = sum_{k<r} c_k, the value the oracle comparisons normalize by.

    Defined only for a member that terminates at r: any other member raises
    DomainError, since its expansion is not the Heun solution.
    """
    r = heun_termination(fp)
    if r is None:
        raise DomainError("the expansion does not terminate: no value at 0")
    return math.fsum(heun_coeff(fp, k) for k in range(r))


def heun_series_oracle(spec: HeunSpec, x: float, N: int) -> float:
    """Independent power-series solution around 0, normalized to u(0) = 1.

    Coefficients follow the three-term recurrence obtained by substituting
    sum d_j x**j into the equation multiplied through by x(x-1)(x-a).
    Trusted only inside |x| < min(1, |a|), the distance to the nearest other
    singular point.  gamma at 0 or a negative integer makes the recurrence
    division singular (the series solution is not unique there).  The
    value is the partial sum of all N+1 terms by definition, summed by
    _finite_sum: rounded once, and an inf or nan term raises NonFinite.
    """
    require_ints(N=N)
    if N < 2:
        raise InvalidParams("N must be >= 2")
    if abs(x) >= min(1.0, abs(spec.a)):
        raise DomainError("oracle trusted only for |x| < min(1, |a|)")
    g = spec.gamma
    if g <= 0.0 and abs(g - round(g)) < 1e-12:
        raise DomainError("gamma at a nonpositive integer: series solution not unique")
    al, be, de, ep, a, q = spec.alpha, spec.beta, spec.delta, spec.epsilon, spec.a, spec.q
    mid1 = 1.0 + a
    midj = g * (1.0 + a) + de * a + ep

    terms = [1.0]
    d_prev, d_cur = 0.0, 1.0
    for j in range(N):
        lhs = a * (j + 1.0) * (j + g)
        mid = (mid1 * j * (j - 1.0) + midj * j + q) * d_cur
        d_next = (mid - (j - 1.0 + al) * (j - 1.0 + be) * d_prev) / lhs
        terms.append(d_next * x ** (j + 1))
        d_prev, d_cur = d_cur, d_next
    return _finite_sum(terms)


def _finite_sum(terms: list) -> float:
    """math.fsum of a finite list of terms, correctly rounded; an inf or
    nan term raises NonFinite (fsum would return inf, nan or raise)."""
    for i, t in enumerate(terms):
        if not math.isfinite(t):
            raise NonFinite(f"non-finite term at index {i}")
    return math.fsum(terms)


def heun_ode_residual(fp: HeunFamilyParams, x: float, h: float, K: int) -> float:
    """Relative residual of the expansion in the equation, by 5-point stencils.

    The residual is |u'' + c1 u' + c0 u| scaled by the sum of the three
    magnitudes, so finite-difference noise of order h**2 (plus rounding of
    order eps/h**2) is the accuracy floor, not the equation itself.
    """
    if not 1e-5 <= h <= 1e-3:
        raise InvalidParams("step must lie in [1e-5, 1e-3]")
    if not 2.0 * h < x < 0.5 - 2.0 * h:
        raise DomainError("x must keep clear of the singular points 0 and 1/2")
    u = [heun_eval(fp, x + i * h, K).value for i in (-2, -1, 0, 1, 2)]
    d1 = (u[0] - 8.0 * u[1] + 8.0 * u[3] - u[4]) / (12.0 * h)
    d2 = (-u[0] + 16.0 * u[1] - 30.0 * u[2] + 16.0 * u[3] - u[4]) / (12.0 * h * h)
    s = heun_params_from(fp)
    c1 = s.gamma / x + s.delta / (x - 1.0) + s.epsilon / (x - s.a)
    c0 = (s.alpha * s.beta * x - s.q) / (x * (x - 1.0) * (x - s.a))
    num = abs(d2 + c1 * d1 + c0 * u[2])
    scale = abs(d2) + abs(c1 * d1) + abs(c0 * u[2])
    if scale == 0.0:
        return 0.0
    return num / scale
