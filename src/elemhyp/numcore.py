"""Shared numerical kernel.

Pochhammer symbols, generalized binomials, a convergence-controlled series
summation engine, and a float64 power integral (the closed forms use
_dd.power_integral_dd).  Everything here is pure float64; the double-double
internals live in _dd and are not part of this surface.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable


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

    rel_tol: relative tolerance for convergence detection.
    max_terms: hard cap on summed terms.
    consecutive_small: successive negligible terms required to stop; protects
        against transient zero terms (e.g. terminating numerators).
    """

    rel_tol: float = 1e-12
    max_terms: int = 100000
    consecutive_small: int = 3

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise InvalidParams("rel_tol must be positive")
        if self.max_terms < 1:
            raise InvalidParams("max_terms must be >= 1")
        if self.consecutive_small < 1:
            raise InvalidParams("consecutive_small must be >= 1")


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


def sum_series(term_source: Iterable[float], policy: EvalPolicy = DEFAULT_POLICY) -> SeriesResult:
    """Kahan-compensated accumulation with small-term stopping.

    Stops once policy.consecutive_small successive terms each satisfy
    |term| <= rel_tol * |partial sum|, or at max_terms (converged False).
    A source that simply runs out of terms counts as converged (finite
    support is an exact sum).  abs_sum, the sum of the absolute values of
    the terms, bounds the rounding error of the sum together with
    terms_used.
    """
    s = 0.0
    c = 0.0
    abs_sum = 0.0
    small_run = 0
    terms_used = 0
    last = 0.0
    converged = False
    for term in term_source:
        term = float(term)
        if not math.isfinite(term):
            raise NonFinite(f"non-finite term at index {terms_used}")
        y = term - c
        t = s + y
        c = (t - s) - y
        s = t
        abs_sum += abs(term)
        terms_used += 1
        last = term
        if abs(term) <= policy.rel_tol * abs(s):
            small_run += 1
            if small_run >= policy.consecutive_small:
                converged = True
                break
        else:
            small_run = 0
        if terms_used >= policy.max_terms:
            break
    else:
        converged = True  # exhausted source: exact finite sum
    return SeriesResult(value=s, terms_used=terms_used, converged=converged,
                        trunc_err_est=abs(last), abs_sum=abs_sum)


def power_integral(e: float, x: float) -> float:
    """Integral of s**e over [1-x, 1] for x in (0, 1).

    Equals (1 - (1-x)**(e+1))/(e+1) away from e = -1 and -log(1-x) at the
    branch.  -expm1(t)/w, w = e+1 and t = w log(1-x), is accurate for every
    normal t, however close to the branch; the log form serves the rest
    (w == 0, or a subnormal t at tiny x, where it is within |t|).
    """
    if not 0.0 < x < 1.0:
        raise DomainError("power_integral requires 0 < x < 1")
    log1mx = math.log1p(-x)
    t = (e + 1.0) * log1mx
    if abs(t) < sys.float_info.min:
        return -log1mx
    return -math.expm1(t) / (e + 1.0)
