"""Shared numerical kernel.

Pochhammer symbols, generalized binomials, the series summation engine
(every series stops on a bound on its tail), and a float64 power integral
(the closed forms use _dd.power_integral_dd).  Everything here is pure
float64; the double-double internals live in _dd and are not part of this
surface.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable


class DomainError(ValueError):
    """Argument outside an operation's stated domain."""


class InvalidParams(ValueError):
    """Structured parameters violate their invariants."""


class NonFinite(ArithmeticError):
    """A series produced an inf or nan term."""


class NotConverged(RuntimeError):
    """A series hit its term cap before meeting tolerance."""


@dataclass(frozen=True)
class EvalPolicy:
    """Knobs for every series evaluation in the package.

    rel_tol: a series stops once a bound on its tail is within rel_tol of
        its partial sum.
    max_terms: hard cap on summed terms.
    """

    rel_tol: float = 1e-12
    max_terms: int = 100000

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise InvalidParams("rel_tol must be positive")
        if self.max_terms < 1:
            raise InvalidParams("max_terms must be >= 1")


DEFAULT_POLICY = EvalPolicy()


@dataclass
class SeriesResult:
    value: float
    terms_used: int
    converged: bool
    trunc_err_est: float
    abs_sum: float = 0.0  # sum of |term|: bounds the rounding of the sum


def pochhammer(r: float, m: int) -> float:
    """Rising factorial r(r+1)...(r+m-1); 1 for m == 0."""
    if m < 0:
        raise InvalidParams("pochhammer order must be >= 0")
    out = 1.0
    for i in range(m):
        out *= r + i
    return out


def gen_binomial(a: float, k: int) -> float:
    """Generalized binomial a(a-1)...(a-k+1)/k!, any real a."""
    if k < 0:
        raise InvalidParams("gen_binomial order must be >= 0")
    return pochhammer(a - k + 1, k) / math.factorial(k)


def sum_series(term_source: Iterable, tail: Callable[[int, float], float],
               policy: EvalPolicy = DEFAULT_POLICY) -> SeriesResult:
    """Kahan-compensated accumulation that stops on a bound on its tail.

    tail(k, term_k) returns a bound on |sum of the terms after term k|
    (k counts from 0), or math.inf where none is known.  It is asked only
    once |term_k| <= rel_tol * |partial sum|, and the sum stops once the
    bound is within rel_tol * |partial sum|; trunc_err_est is that bound.
    A source that runs out of terms, within max_terms, is an exact finite
    sum (converged, trunc_err_est 0); one with a term left after max_terms
    is not converged, and its trunc_err_est is math.inf.  abs_sum, the sum
    of the absolute values of the terms, bounds the rounding error of the
    sum together with terms_used.
    """
    s = 0.0
    c = 0.0
    abs_sum = 0.0
    terms_used = 0
    converged = False
    rel_tol = policy.rel_tol
    for term in term_source:
        if terms_used >= policy.max_terms:  # still going at the cap
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
        if abs(term) <= rel_tol * abs(s):
            bound = tail(terms_used - 1, term)
            if bound <= rel_tol * abs(s):
                converged = True
                break
    else:
        converged = True  # exhausted source: exact finite sum
        bound = 0.0
    return SeriesResult(value=s, terms_used=terms_used, converged=converged,
                        trunc_err_est=bound, abs_sum=abs_sum)


def power_integral(e: float, x: float) -> float:
    """Integral of s**e over [1-x, 1] for x in (0, 1).

    Equals (1 - (1-x)**(e+1))/(e+1) away from e = -1 and -log(1-x) at the
    branch.  -expm1(t)/w, w = e+1 and t = w log(1-x), is accurate for every
    normal t, however close to the branch; the log form serves the rest
    (w == 0, or a subnormal t at tiny x, where it is within |t|).  Where
    (1-x)**(e+1) passes float range it raises NotConverged.
    """
    if not 0.0 < x < 1.0:
        raise DomainError("power_integral requires 0 < x < 1")
    log1mx = math.log1p(-x)
    t = (e + 1.0) * log1mx
    if abs(t) < sys.float_info.min:
        return -log1mx
    # expm1 overflows only for |e+1| > 19 (|log(1-x)| < 37 for a float x), so
    # the quotient of a finite expm1 stays finite
    try:
        return -math.expm1(t) / (e + 1.0)
    except OverflowError:
        raise NotConverged("power integral overflows float range") from None
