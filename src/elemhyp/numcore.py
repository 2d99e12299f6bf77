"""Shared numerical kernel.

The typed errors, the integer-argument check, the series summation engine
(sum_series) and the one weight series of the operators and kernels
(_weight_series), a flat loop that does sum_series' float operations, as
hypergeom._series does for the 2F1 series (and hypergeom._leaf_series, the
same operations, for the leaves of one Heun sum).
Every series in the package is summed to one precision: it stops once a
bound on its tail is within _dd._SERIES_REL_TOL (1e-17, float64 accuracy) of
its partial sum, and is cut, not converged, after _MAX_TERMS terms.
Everything here is pure float64; the double-double internals live in _dd
and are not part of this surface.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass

from ._dd import _SERIES_REL_TOL


class DomainError(ValueError):
    """Argument outside an operation's stated domain."""


class InvalidParams(ValueError):
    """Structured parameters violate their invariants."""


class NonFinite(ArithmeticError):
    """A series produced an inf or nan term."""


class NotConverged(RuntimeError):
    """No value can be vouched for: a series hit its term cap before meeting
    tolerance, a rounding bound failed _dd.certified (combo_eval,
    hyp2f1_closed), or a closed form or product passed float range."""


def require_ints(**values) -> None:
    """Raise InvalidParams unless every value is an integer, by what
    operator.index accepts: int, bool or an integer type such as numpy's,
    but no float, even an integral one."""
    for name, value in values.items():
        try:
            operator.index(value)
        except TypeError:
            got = "a non-finite float" if isinstance(value, float) \
                and not math.isfinite(value) else repr(value)
            raise InvalidParams(f"{name} must be an integer, got {got}") from None


_MAX_TERMS = 100000

# logs of the largest and of the smallest normal float: a value whose log
# is above the first is past float range, below the second subnormal
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_LOG_FLOAT_MIN = math.log(sys.float_info.min)


@dataclass
class SeriesResult:
    value: float
    terms_used: int
    converged: bool
    trunc_err_est: float
    abs_sum: float = 0.0  # sum of |term|: bounds the rounding of the sum


def sum_series(term_source: Iterable,
               tail: Callable[[int, float], float]) -> SeriesResult:
    """Kahan-compensated accumulation that stops on a bound on its tail.

    tail(k, term_k) returns a bound on |sum of the terms after term k|
    (k counts from 0), or math.inf where none is known.  It is asked only
    once |term_k| <= tol * |partial sum|, tol = _dd._SERIES_REL_TOL
    (1e-17, float64 accuracy), and the sum stops once the bound is within
    tol * |partial sum|; trunc_err_est is that bound.  A source that runs
    out of terms, within _MAX_TERMS, is an exact finite sum (converged,
    trunc_err_est 0); one with a term left after _MAX_TERMS is not
    converged, and its trunc_err_est is math.inf, as is one whose partial
    sum passes float range.  abs_sum, the sum of the absolute values of the
    terms, bounds the rounding error of the sum together with terms_used.
    """
    s = 0.0
    c = 0.0
    abs_sum = 0.0
    terms_used = 0
    converged = False
    for term in term_source:
        if terms_used >= _MAX_TERMS:  # still going at the cap
            bound = math.inf
            break
        term = float(term)
        if not math.isfinite(term):
            raise NonFinite(f"non-finite term at index {terms_used}")
        y = term - c
        t = s + y
        c = (t - s) - y
        s = t
        abs_sum += abs(term)
        terms_used += 1
        lim = _SERIES_REL_TOL * abs(s)
        if abs(term) <= lim:
            if lim == math.inf:  # the sum passed float range
                bound = math.inf
                break
            bound = tail(terms_used - 1, term)
            if bound <= lim:
                converged = True
                break
    else:
        converged = True  # exhausted source: exact finite sum
        bound = 0.0
    return SeriesResult(value=s, terms_used=terms_used, converged=converged,
                        trunc_err_est=bound, abs_sum=abs_sum)


def _weight_series(N: int, x: float, w0: float, g: Callable[[int], float] | tuple,
                   G: Callable[[int], float]) -> SeriesResult:
    """sum_k w_k g(k), w_k = w0 C(N+k-1, k) x**k, 0 <= x < 1, in one loop.

    The weights of the MKZ operators and of the f_{n,j} kernels.  They step
    by w_(k+1) = w_k (N+k)/(k+1) x, whose factor falls with k; so once
    rho = x (N+k+1)/(k+2) < 1, everything after term k is at most
    G(k) w_(k+1) / (1 - rho), G(k) a bound on |g| past k (math.inf where
    none is known), and 0 once the weights underflow: to 0, or, from
    x = 1/2 up, where a factor above 1/2 rounds the smallest subnormal back
    to itself and they never reach 0, to a subnormal w that the next step,
    with rho < 1, leaves unchanged.

    g is a callable, or for an operator's Monomial(m) the node parameters
    (n, a, b, m) of g(k) = ((k+b)/(n+k+a))**m, which the loop evaluates
    inline and in that order: (n+a)+k rounds apart from (n+k)+a for a real
    a.  The loop does sum_series' float operations in its order, with this
    term source and tail bound inline: bit for bit sum_series'
    SeriesResult (the tests keep that composition as the reference), its
    sums Python floats for numpy arguments.  Raises NotConverged where w0
    is below the normal float range, at the term cap or where the sum
    passes float range, NonFinite at an inf or nan term.
    """
    x, w = float(x), float(w0)
    if w < sys.float_info.min:
        raise NotConverged("series weights underflow float range")
    node = not callable(g)
    if node:
        n, a, b, m = map(float, g)
    s = comp = abs_sum = 0.0
    inf, tol, tiny = math.inf, _SERIES_REL_TOL, sys.float_info.min
    # k and N+k as exact floats: float-int arithmetic is CPython's slow path
    fk, fN = 0.0, float(N)
    for k in range(_MAX_TERMS):
        t = w * ((fk + b) / ((fk + n) + a)) ** m if node else w * float(g(k))
        w *= (fN + fk) / (fk + 1.0) * x  # w_(k+1), which the tail bound reads
        at = t if t >= 0.0 else -t
        if not at < inf:  # an inf or nan term
            raise NonFinite(f"non-finite term at index {k}")
        y = t - comp
        u = s + y
        comp = (u - s) - y
        s = u
        abs_sum += at
        lim = tol * (s if s >= 0.0 else -s)
        if at <= lim:
            if lim == inf:  # the sum passed float range
                break
            rho = x * (fN + fk + 1.0) / (fk + 2.0)
            if w == 0.0 or (w < tiny and x >= 0.5 and rho < 1.0
                            and w * ((fN + fk + 1.0) / (fk + 2.0) * x) == w):
                bound = 0.0  # underflowed, or stuck at a subnormal
            else:
                bound = float(G(k)) * w / (1.0 - rho) if rho < 1.0 else inf
            if bound <= lim:
                return SeriesResult(s, k + 1, True, bound, abs_sum)
        fk += 1.0
    raise NotConverged("series did not converge")
