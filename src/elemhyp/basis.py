"""Exact symbolic basis for the moment kernels f_{n,j}.

x**n * f_{n,j}(x) is a linear combination, with exact rational coefficients,
of the basis functions

    pow_ratio(i) = (1 - (1-x)**i) / (1-x)**i      (i >= 1)
    log          = log(1-x)
    polylog(k)   = Li_k(x)                        (k >= 2)

The j = 2 combo is seeded directly; each step j -> j+1 applies the linear
integration map T induced by integrating basis elements against dt/t:

    T(pow_ratio(i)) = sum_{w=1}^{i-1} pow_ratio(w)/w - log
    T(log)          = -polylog(2)
    T(polylog(k))   = polylog(k+1)

so pow_ratio(w) of the image takes (1/w) * sum_{i>w} c_i, one running
suffix sum over the pow_ratio coefficients c_i: O(n) per step.

Coefficients stay exact Fractions throughout; only evaluation is floating
point (double-double internally).  The combo for every (n, j) has exactly n
terms, which the tests pin down case by case.

combo_eval reads log(1-x) and 1-x powers from the per-x _dd.context(x)
and Li_k from polylog._polylog_dd, whose x-only parts come from the same
context, so every basis value at one x shares one set of tables.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict

from ._dd import (
    _GUARD_REL, BoundedSum, certified, context, dd, dd_from_ratio, dd_mul,
    dd_neg, dd_npow, dd_to_float,
)
from .numcore import (
    _weight_series, DomainError, InvalidParams, NotConverged, SeriesResult,
    require_ints,
)
from .polylog import _polylog_dd

_KINDS = ("pow_ratio", "log", "polylog")
_KIND_RANK = {k: r for r, k in enumerate(_KINDS)}


@dataclass(frozen=True)
class BasisFunction:
    """One basis element; index is i for pow_ratio, k for polylog, 0 for log."""

    kind: str
    index: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidParams(f"unknown basis kind {self.kind!r}")
        if self.kind == "pow_ratio" and self.index < 1:
            raise InvalidParams("pow_ratio index must be >= 1")
        if self.kind == "log" and self.index != 0:
            raise InvalidParams("log term carries no index")
        if self.kind == "polylog" and self.index < 2:
            raise InvalidParams("polylog order must be >= 2")

    def sort_key(self):
        return (_KIND_RANK[self.kind], self.index)


LOG_TERM = BasisFunction("log", 0)


def pow_ratio(i: int) -> BasisFunction:
    return BasisFunction("pow_ratio", i)


def poly(k: int) -> BasisFunction:
    return BasisFunction("polylog", k)


@dataclass(frozen=True)
class SymbolicCombo:
    """x**(-n) times a rational combination of basis functions; equals f_{n,j}.

    terms maps BasisFunction -> Fraction with no zero coefficients stored.
    Treat instances as immutable.
    """

    n: int
    j: int
    terms: Dict[BasisFunction, Fraction]

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParams("n must be >= 1")
        if self.j < 2:
            raise InvalidParams("combos exist for j >= 2 only")

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())


def fnj_base(n: int, j: int) -> Callable[[float], float]:
    """Closed-form evaluators for the two pre-recurrence kernels j = 0, 1,
    f_{n,0} = (1-x)**-(n+1) and f_{n,1} = 1 / (n (1-x)**n), for x < 1.

    The evaluator raises NotConverged where its value passes float range:
    where the power overflows, or (j = 1) where (1-x)**n is below the
    smallest normal float, so that its reciprocal is near or past float
    range and has lost digits.
    """
    require_ints(n=n, j=j)
    if n < 1:
        raise InvalidParams("n must be >= 1")
    if j not in (0, 1):
        raise InvalidParams("closed base forms exist for j in {0, 1} only")

    def base(x: float) -> float:
        if not x < 1.0:
            raise DomainError("closed base kernels require x < 1")
        if j == 0:
            try:
                return (1.0 - x) ** (-(n + 1))
            except OverflowError:
                raise NotConverged(f"f_{{{n},0}} overflows float range") from None
        pw = (1.0 - x) ** n
        if pw < sys.float_info.min:
            raise NotConverged(f"f_{{{n},1}} overflows float range")
        return 1.0 / (n * pw)

    return base


def _seed(n: int) -> Dict[BasisFunction, Fraction]:
    # j = 2 coefficients read off the closed form of f_{n,2}
    terms: Dict[BasisFunction, Fraction] = {}
    for i in range(1, n):
        c = Fraction((-1) ** (n - 1 + i) * math.comb(n - 1, i), n * i)
        if c != 0:
            terms[pow_ratio(i)] = c
    terms[LOG_TERM] = Fraction(-((-1) ** (n - 1)), n)
    return terms


def _apply_t(terms: Dict[BasisFunction, Fraction]) -> Dict[BasisFunction, Fraction]:
    ratios = {b.index: c for b, c in terms.items() if b.kind == "pow_ratio"}
    out: Dict[BasisFunction, Fraction] = {}
    tail = Fraction(0)
    for w in range(max(ratios, default=1) - 1, 0, -1):
        tail += ratios.get(w + 1, 0)
        out[pow_ratio(w)] = tail / w
    if ratios:
        out[LOG_TERM] = -sum(ratios.values())
    for b, c in terms.items():
        if b.kind == "log":
            out[poly(2)] = -c
        elif b.kind == "polylog":
            out[poly(b.index + 1)] = c
    return {b: c for b, c in out.items() if c != 0}


@lru_cache(maxsize=None, typed=True)  # typed: a float n or j misses, and is rejected
def fnj_combo(n: int, j: int) -> SymbolicCombo:
    """Exact combo for f_{n,j}, n >= 2, j >= 2 (n = 1 degenerates gracefully).

    Built once per (n, j) and memoized; moments walk all j up to their order.
    The orders are built upward in a loop, each once, so no call recurses.
    """
    require_ints(n=n, j=j)
    if n < 1:
        raise InvalidParams("n must be >= 1")
    if j < 2:
        raise InvalidParams("j must be >= 2")
    for i in range(2, j + 1):
        combo = _combo_step(n, i)
    return combo


@lru_cache(maxsize=None)
def _combo_step(n: int, j: int) -> SymbolicCombo:
    """f_{n,j}'s combo: the seed at j = 2, else T of the memoized order j - 1."""
    terms = _seed(n) if j == 2 else _apply_t(_combo_step(n, j - 1).terms)
    return SymbolicCombo(n=n, j=j, terms=terms)


def combo_eval(c: SymbolicCombo, x: float) -> float:
    """Numerical value of f_{n,j} from its combo.  0 < x < 1.

    Evaluation runs in a _dd.BoundedSum on the per-x context(x), with c's
    coefficients rounded to double-double, and is rounded once.  The x**(-n)
    prefactor cancels digits at small x (3e113 relative at (19, 8, 4.7e-8)),
    where fnj_series is the accurate route: NotConverged is raised where
    _dd.certified rejects the rounding bound, which counts the cancellation
    inside each pow_ratio, and where (1-x)**i or x**n leaves float range.
    """
    if not 0.0 < x < 1.0:
        raise DomainError("combo evaluation requires 0 < x < 1")
    ctx = context(x)
    acc = BoundedSum()
    try:
        for b, q in c.sorted_terms():
            cd = dd_from_ratio(q.numerator, q.denominator)
            if b.kind == "pow_ratio":  # (1 - (1-x)**i) / (1-x)**i
                pw = ctx.ompows(b.index)[b.index]
                term = BoundedSum((dd(1.0), 0.0), (dd_neg(pw), b.index))
                term.div(pw, b.index)
                term.mul(cd)
                acc.add_sum(term)
            else:
                val = ctx.log if b.kind == "log" else _polylog_dd(b.index, x)
                acc.add(dd_mul(cd, val), 2)
        acc.div(dd_npow(dd(x), c.n), c.n)
    except ZeroDivisionError:  # (1-x)**i or x**n underflows to 0
        raise NotConverged("combo evaluation: a power underflows float range") from None
    value = dd_to_float(acc.total)
    if not certified(value, acc.bound):
        raise NotConverged(f"combo evaluation: rounding bound {acc.bound:.3g} "
                           f"exceeds {_GUARD_REL:g} of its value")
    return value


def fnj_series(n: int, j: int, x: float) -> SeriesResult:
    """Direct summation oracle: f_{n,j}(x) = sum C(n+k,k) x**k / (n+k)**j.

    numcore._weight_series with N = n + 1, w0 = 1 and g(k) = (n+k)**-j,
    which falls with k, so G = g(k+1) bounds it past term k.
    """
    require_ints(n=n, j=j)
    if n < 1:
        raise InvalidParams("n must be >= 1")
    if j < 0:
        raise InvalidParams("j must be >= 0")
    if not 0.0 <= x < 1.0:
        raise DomainError("series requires 0 <= x < 1")
    return _weight_series(n + 1, x, 1.0, lambda k: float(n + k) ** -j,
                          lambda k: float(n + k + 1) ** -j)


def combo_json_dict(c: SymbolicCombo) -> dict:
    """JSON-ready document: numerators and denominators as decimal strings."""
    entries = []
    for b, coef in c.sorted_terms():
        e: dict = {"basis": b.kind}
        if b.kind == "pow_ratio":
            e["i"] = b.index
        elif b.kind == "polylog":
            e["k"] = b.index
        e["num"] = str(coef.numerator)
        e["den"] = str(coef.denominator)
        entries.append(e)
    return {"n": c.n, "j": c.j, "terms": entries}
