"""Shared numerical kernel.

Pochhammer symbols, generalized binomials and the series summation engine.
Every series in the package is summed to one precision: it stops once a
bound on its tail is within _dd._SERIES_REL_TOL (1e-17, float64 accuracy) of
its partial sum, and is cut, not converged, after _MAX_TERMS terms.
Everything here is pure float64; the double-double internals live in _dd
and are not part of this surface.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable

from ._dd import _SERIES_REL_TOL


class DomainError(ValueError):
    """Argument outside an operation's stated domain."""


class InvalidParams(ValueError):
    """Structured parameters violate their invariants."""


class NonFinite(ArithmeticError):
    """A series produced an inf or nan term."""


class NotConverged(RuntimeError):
    """A series hit its term cap before meeting tolerance."""


def require_ints(**values) -> None:
    """Raise InvalidParams unless every value is an integer, by what
    operator.index accepts: int, bool or an integer type such as numpy's,
    but no float, even an integral one."""
    for name, value in values.items():
        try:
            operator.index(value)
        except TypeError:
            raise InvalidParams(f"{name} must be an integer, got {value!r}") from None


_MAX_TERMS = 100000


@dataclass
class SeriesResult:
    value: float
    terms_used: int
    converged: bool
    trunc_err_est: float
    abs_sum: float = 0.0  # sum of |term|: bounds the rounding of the sum


def pochhammer(r: float, m: int) -> float:
    """Rising factorial r(r+1)...(r+m-1); 1 for m == 0."""
    require_ints(m=m)
    if m < 0:
        raise InvalidParams("pochhammer order must be >= 0")
    out = 1.0
    for i in range(m):
        out *= r + i
    return out


def gen_binomial(a: float, k: int) -> float:
    """Generalized binomial a(a-1)...(a-k+1)/k!, any real a."""
    require_ints(k=k)
    if k < 0:
        raise InvalidParams("gen_binomial order must be >= 0")
    return pochhammer(a - k + 1, k) / math.factorial(k)


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
    converged, and its trunc_err_est is math.inf.  abs_sum, the sum
    of the absolute values of the terms, bounds the rounding error of the
    sum together with terms_used.
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
        if abs(term) <= _SERIES_REL_TOL * abs(s):
            bound = tail(terms_used - 1, term)
            if bound <= _SERIES_REL_TOL * abs(s):
                converged = True
                break
    else:
        converged = True  # exhausted source: exact finite sum
        bound = 0.0
    return SeriesResult(value=s, terms_used=terms_used, converged=converged,
                        trunc_err_est=bound, abs_sum=abs_sum)

