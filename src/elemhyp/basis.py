"""Exact symbolic basis for the moment kernels f_{n,j}.

x**n * f_{n,j}(x) is a linear combination, with exact rational coefficients,
of the basis functions

    pow_ratio(i) = (1 - (1-x)**i) / (1-x)**i      (i >= 1)
    log          = log(1-x)
    polylog(k)   = Li_k(x)                        (k >= 2)

The coefficients come from _exact_coefficients, the exact build that also
gives the closed moments of mkz.  In u = n + k, f_{n,j} is
x**(-n) sum_{u>=1} C(u, n) x**u / u**j (its terms u < n vanish): the
polynomial part of C(u, n) / u**j sums to pow_ratio terms, since
sum_{u>=1} C(u+i-1, i-1) x**u = pow_ratio(i), and its u**(-s) parts to
Li_s(x), Li_1 = -log(1-x).  By upper negation, k = -u-1 turns C(u+i, i)
into (-1)**i C(k, i), the basis of the build, which then runs at
(N, c) = (n+1, 1) with no multiplication and j divisions: O(n j) exact
integer steps.

Coefficients stay exact Fractions throughout; only evaluation is floating
point (double-double internally).  The combo for every (n, j) has exactly n
terms, which the tests pin down case by case.

combo_eval reads log(1-x) and 1-x powers from the per-x _dd.context(x)
and Li_k from polylog._polylog_dd, whose x-only parts come from the same
context, so every basis value at one x shares one set of tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
    terms: dict[BasisFunction, Fraction]

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParams("n must be >= 1")
        if self.j < 2:
            raise InvalidParams("combos exist for j >= 2 only")

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())


def _exact_coefficients(N: int, c: int, a: int, b: int, beta: float):
    """Exact coefficients of C(N+k-1, k) (k+beta)**a / (k+c)**b in k.

    beta = bn / bd exactly (bd a power of two), and D = bd**a (N-1)!.  In the
    basis C(k, i), (N-1)! C(N+k-1, k) = (N-1)! sum_i C(N-1, i) C(k, i) is
    multiplied a times by bd k + bn, then divided b times by k + c, both by
    (k+c) C(k, i) = (i+1) C(k, i+1) + (i+c) C(k, i), the division reading it
    from the top: each remainder is the next D a_{-s}, s = b down to 1 (0 once
    the quotient is spent), and the quotient's coefficients are D Delta**i p(0)
    of the polynomial part p.  (N+a) (a+b) exact integer steps.  Every //
    is exact: in powers of k the numerator has integer coefficients, and so
    has each quotient by the monic k + c, and an integer polynomial has
    integer differences at 0.  Returns the integers Delta**i p(0),
    i = 0..N+a-b-1, and a_{-s}, s = 1..b, and D.
    """
    bn, bd = float(beta).as_integer_ratio()
    f = math.factorial(N - 1)
    p = [f * math.comb(N - 1, i) for i in range(N)]
    for _ in range(a):  # times bd k + bn
        p = [bd * i * lo + (bd * i + bn) * hi
             for i, (lo, hi) in enumerate(zip([0] + p, p + [0]))]
    rem = []
    for _ in range(b):  # divided by k + c: quotient in p[1:], remainder
        q = 0
        for i in range(len(p) - 1, 0, -1):
            q = p[i] = (p[i] - (i + c) * q) // i
        rem.append(p.pop(0) - c * q if p else 0)
    return p, rem[::-1], bd ** a * f


@lru_cache(maxsize=None, typed=True)  # typed: a float n or j misses, and is rejected
def fnj_combo(n: int, j: int) -> SymbolicCombo:
    """Exact combo for f_{n,j}, n >= 1, j >= 2 (at n = 1, Li_(j-1)(x) / x).

    Built once per (n, j) and memoized, by _exact_coefficients at
    (N, c, a, b) = (n+1, 1, 0, j): with u = -(k+1), C(u, n) / u**j is
    (-1)**(n+j) C(n+k, k) / (k+1)**j; C(k, i) = (-1)**i C(u+i, i), whose
    sum over u >= 1 against x**u is pow_ratio(i+1), and
    1 / (k+1)**s = (-1)**s / u**s, whose sum is Li_s(x).
    """
    require_ints(n=n, j=j)
    if n < 1:
        raise InvalidParams("n must be >= 1")
    if j < 2:
        raise InvalidParams("j must be >= 2")
    bern, neg, den = _exact_coefficients(n + 1, 1, 0, j, 0.0)
    terms = {pow_ratio(i + 1): (-1) ** i * g for i, g in enumerate(bern) if g}
    if neg[0]:
        terms[LOG_TERM] = neg[0]  # log(1-x) = -Li_1(x)
    terms.update((poly(s), (-1) ** s * a) for s, a in enumerate(neg[1:], 2) if a)
    sign = (-1) ** (n + j)
    return SymbolicCombo(n=n, j=j, terms={b: Fraction(sign * v, den)
                                          for b, v in terms.items()})


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
    except OverflowError:  # dd_from_ratio: a coefficient past float range
        raise NotConverged("combo evaluation: a coefficient passes float range") from None
    value = dd_to_float(acc.total)
    if not certified(value, acc.bound):  # a finite bound has a finite value
        raise NotConverged(f"combo evaluation: rounding bound {acc.bound:.3g} exceeds "
                           f"{_GUARD_REL:g} of its value" if math.isfinite(acc.bound)
                           else "combo evaluation: the rounding bound is not finite")
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
