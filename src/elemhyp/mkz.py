"""Meyer-Konig-Zeller type operators and their moments.

gmkz_apply is the direct-summation oracle for the generalized operator

    (M_{n,r}^{a,b} f)(x) = (1-x)**(n+r) * sum_k C(n+r+k-1, k) x**k f((k+b)/(n+k+a))

with the classical operator at (r, a, b) = (1, 0, 0).  Everything else here
is a closed or semi-closed moment formula tested against that oracle:
second-moment formulas through the 2F1 dispatcher, the first moment of the
generalized operator, and the higher moments of the classical operator and
of M_{n,alpha+1}^{alpha,beta} (the Abel-summation formula) as one sum of the
kernels f_{d,j}(x) = sum_k C(d+k,k) x**k / (d+k)**j (see _kernel_moment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ._dd import ClosedFormContext
from .basis import fnj_base, fnj_eval, fnj_series
from .hypergeom import _SERIES_REL_TOL, HypergeomParams, hyp2f1_eval
from .numcore import (
    DEFAULT_POLICY, DomainError, EvalPolicy, InvalidParams, NotConverged,
    SeriesResult, sum_series,
)

# Below this x the moment kernels f_{d,j}, j >= 2, come from their series
# (term ratio tending to x), from it up from the exact combos, whose x**(-d)
# prefactor cancels digits at small x (see _kernel_moment).
_KERNEL_SERIES_BELOW = 0.2


@dataclass(frozen=True)
class GmkzParams:
    """Generalized operator parameters: integer n >= 1, integer r with
    n + r >= 1, reals alpha >= beta >= 0."""

    n: int
    r: int
    alpha: float
    beta: float

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParams("n must be >= 1")
        if self.n + self.r < 1:
            raise InvalidParams("n + r must be >= 1")
        if not (self.alpha >= self.beta >= 0):
            raise InvalidParams("need alpha >= beta >= 0")


@dataclass(frozen=True)
class Monomial:
    """e_r(t) = t**r."""

    r: int

    def __post_init__(self):
        if self.r < 0:
            raise InvalidParams("exponent must be >= 0")

    def __call__(self, t: float) -> float:
        return t ** self.r


def gmkz_apply(params: GmkzParams, f, x: float,
               policy: EvalPolicy = DEFAULT_POLICY) -> SeriesResult:
    """Apply the generalized operator to f at x by direct summation."""
    if not 0.0 <= x < 1.0:
        raise DomainError("operator series requires 0 <= x < 1")
    n, r, a, b = params.n, params.r, params.alpha, params.beta

    def terms():
        w = (1.0 - x) ** (n + r)
        k = 0
        while True:
            yield w * f((k + b) / (n + k + a))
            w *= (n + r + k) / (k + 1.0) * x
            k += 1

    res = sum_series(terms(), policy)
    if not res.converged:
        raise NotConverged("operator series did not converge")
    return res


def mkz_moment_e2(n: int, x: float) -> float:
    """Second moment of the classical operator: x**2 plus a 2F1 correction."""
    if n < 1:
        raise InvalidParams("n must be >= 1")
    if not 0.0 <= x < 1.0:
        raise DomainError("moment requires 0 <= x < 1")
    if x == 0.0:
        return 0.0
    f = hyp2f1_eval(HypergeomParams(1, 2.0, n + 2), x)
    return x * x + x * (1.0 - x) ** 2 / (n + 1) * f


def mkz_moment(n: int, r: int, x: float,
               policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """r-th moment of the classical operator as a sum of kernels f_{n,j}.

    M_n e_r(x) = 1 + (1-x)**(n+1) * sum_{j=1}^{r} C(r,j) (-n)**j f_{n,j}(x),
    assembled by _kernel_moment (see there for where each kernel comes from).
    """
    if n < 1:
        raise InvalidParams("n must be >= 1")
    if r < 0:
        raise InvalidParams("moment order must be >= 0")
    if not 0.0 < x < 1.0:
        raise DomainError("moment requires 0 < x < 1")
    if r == 0:
        return 1.0
    return _kernel_moment(n, n, r, x, policy)


def ln_moment_e2(n: int, x: float) -> float:
    """Second moment of the integral-type variant L_n, closed form."""
    if n < 1:
        raise InvalidParams("n must be >= 1")
    if not 0.0 <= x < 1.0:
        raise DomainError("moment requires 0 <= x < 1")
    if x == 0.0:
        return 0.0
    f = hyp2f1_eval(HypergeomParams(1, 3.0, n + 3), x)
    return x * x + 2.0 * x * (1.0 - x) ** 2 / (n + 2) * f


def ln_moment_e2_direct(n: int, x: float,
                        policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Direct-summation oracle for the L_n second moment.

    The Beta-integral moments of the basis weights reduce to
    k(k+1)/((n+k)(n+k+1)) at order 2, so the oracle sums
    sum_{k>=1} C(n+k,k) x**k (1-x)**(n+1) * k(k+1)/((n+k)(n+k+1))
    with no quadrature involved.
    """
    if n < 1:
        raise InvalidParams("n must be >= 1")
    if not 0.0 <= x < 1.0:
        raise DomainError("moment requires 0 <= x < 1")
    if x == 0.0:
        return 0.0
    pref = (1.0 - x) ** (n + 1)

    def terms():
        w = (n + 1) * x  # C(n+1, 1) * x**1
        k = 1
        while True:
            yield pref * w * (k * (k + 1.0)) / ((n + k) * (n + k + 1.0))
            w *= (n + k + 1) / (k + 1.0) * x
            k += 1

    res = sum_series(terms(), policy)
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


def gmkz_moment_abel(n: int, alpha: int, beta: float, m: int, x: float,
                     policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """m-th moment of M_{n,alpha+1}^{alpha,beta} by the Abel-type expansion.

    With d = n + alpha, expanding ((k+beta)/(k+d))**m in powers of
    (d-beta)/(k+d) turns the operator sum into mkz_moment's kernel sum,
    1 + (1-x)**(d+1) * sum_{j=1}^{m} C(m,j) (-(d-beta))**j f_{d,j}(x).
    """
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
    return _kernel_moment(n + alpha, n + alpha - beta, m, x, policy)


def _kernel_moment(d: int, w: float, r: int, x: float,
                   policy: EvalPolicy) -> float:
    """1 + (1-x)**(d+1) * sum_{j=1}^{r} C(r,j) (-w)**j f_{d,j}(x).

    f_{d,1} is closed form; f_{d,j>=2} is summed from its series below
    _KERNEL_SERIES_BELOW (at hyp2f1_eval's full-precision tolerance) and
    taken from the exact combos from there up.  The combos all read one
    ClosedFormContext(x), so log(1-x) and each pow ratio are formed once
    per call, not once per j.
    """
    omx_pow = (1.0 - x) ** (d + 1)
    series = replace(policy, rel_tol=min(policy.rel_tol, _SERIES_REL_TOL))
    ctx = ClosedFormContext(x)
    total = 1.0
    for j in range(1, r + 1):
        if j == 1:
            fnj = fnj_base(d, 1)(x)
        elif x < _KERNEL_SERIES_BELOW:
            fnj = fnj_series(d, j, x, series).value
        else:
            fnj = fnj_eval(d, j, ctx)
        total += omx_pow * math.comb(r, j) * float((-w) ** j) * fnj
    return total
