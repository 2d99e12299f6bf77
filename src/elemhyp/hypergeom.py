"""Gauss 2F1 with integer parameters: series oracle and elementary closed forms.

The series evaluator is the trusted oracle.  The closed forms have four
public entries, by shape of the parameter triple (m, n; p):

  hyp2f1_closed_general  any integer m >= 1, real n, integer p >= m+1
                         (one binomial sum over power integrals)
  hyp2f1_closed_m1       m = 1, real n (the general sum at m = 1)
  hyp2f1_closed_1m       (1, m; m+l+1), two log-basis variants A and B
  hyp2f1_closed_12       (1, 2; n+2), three variants

All closed forms assemble in double-double and round once at the end.  One
classifier, _closed_route, picks the family (and variant) for a shape; the
per-x _dd.context(x) forms 1-x, log(1-x), the x and 1-x power tables and
the power integrals once per x, each power integral once per (shift, n).  A
power integral whose exponent w = shift+1-n is not an integer and has
|w log(1-x)| >= 1/2 takes (1-x)**w as (1-x)**(1-n), one dd_exp per n,
times (1-x)**shift from the power table; the others keep one dd_expm1 (or
an integer power) each.  Each form sums in a _dd.BoundedSum, whose bound
counts term roundings, table depth and power-integral errors.

The dispatcher hyp2f1_eval tries three routes in order; the first two are
kept only where _dd.certified finds their rounding bound within 1e-13:

  1. below _X_SWITCH = 1/2, the defining series, where it needs few terms
     and the x**(1-p) prefactor makes closed forms cancel; its bound is
     terms * sum|term| * 2**-53;
  2. the classifier's closed form for (m, n; p), with its BoundedSum bound;
  3. the defining series, with no rounding check.

Both series routes sum one series per call, to numcore's one precision.

A short terminating polynomial (n a nonpositive integer >= -16) that route
1 does not keep is summed exactly in integers and rounded once instead of
routes 2 and 3.  Points whose a-priori digit loss (p-1)*log10(1/x) exceeds
_MAX_DIGIT_LOSS skip route 2.  Where the closed form of route 2 overflows
float range or comes out non-finite (large n next to x = 1), route 3 is not
taken: the closed form of the Euler-transformed triple (p-m, p-n; p)
(DLMF 15.8.1), if certified, times (1-x)**(p-m-n) answers instead, or
NotConverged is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count

from ._dd import (
    DD, BoundedSum, ClosedFormContext, certified, context,
    dd, dd_div, dd_from_int, dd_from_ratio, dd_mul, dd_neg, dd_npow, dd_to_float,
)
from .numcore import (
    DomainError, InvalidParams, NotConverged, SeriesResult, require_ints,
    sum_series,
)


@dataclass(frozen=True)
class HypergeomParams:
    """Parameter triple for 2F1(m, n; p; x): integer m, finite real n,
    integer p."""

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


def hyp2f1_series(a: float, b: float, c: float, x: float) -> SeriesResult:
    """Defining series, summed by the term ratio recurrence.

    This is the oracle every closed form is tested against.  Past term k,
    while c+k+1 > 0, the factors |(a+i)/(i+1)| and |(b+i)/(c+i)| of the
    later term ratios are monotone in i and tend to 1, so
    rho = |x| max(1, |(a+k+1)/(k+2)|) max(1, |(b+k+1)/(c+k+1)|) bounds every
    one of them and |t_(k+1)| / (1 - rho) the tail.  A terminating series
    (a or b a nonpositive integer) has tail 0 once its terms hit exact zero.
    """
    if abs(x) >= 1.0:
        raise DomainError("series requires |x| < 1")
    if c <= 0 and float(c).is_integer():
        raise DomainError("lower parameter must not be zero or a negative integer")

    def terms():
        t = 1.0
        for j in count():
            yield t
            t *= (a + j) * (b + j) / ((c + j) * (j + 1)) * x

    def tail(k, t):
        nxt = t * (a + k) * (b + k) / ((c + k) * (k + 1)) * x
        if nxt == 0.0:
            return 0.0
        if c + k + 1 <= 0:
            return math.inf
        rho = abs(x) * max(1.0, abs((a + k + 1) / (k + 2))) \
            * max(1.0, abs((b + k + 1) / (c + k + 1)))
        return abs(nxt) / (1.0 - rho) if rho < 1.0 else math.inf

    return sum_series(terms(), tail)


def _eq_general(m: int, n: float, p: int, ctx: ClosedFormContext) -> BoundedSum:
    """One sum over (k, i) of power integrals.

    The binomial sum over j of the triple form collapses by
    sum_j C(q,j)(-1)**j x**(q-j) C(j,i)(-1)**i = C(q,i)(x-1)**(q-i), q = p-m-1,
    so one BoundedSum sees every term and its bound covers all the
    cancellation.  At m = 1 this is the single-sum form.
    """
    q = p - m - 1
    ompows = ctx.ompows(q)
    acc = BoundedSum()
    for k in range(m):
        ck = math.comb(m - 1, k) * (-1 if k % 2 else 1)
        for i in range(q + 1):
            c = ck * math.comb(q, i) * (-1 if (q - i) % 2 else 1)
            integ, err = ctx.power_integral(i + k, n)
            acc.add(dd_mul(dd_mul(dd_from_int(c), ompows[q - i]), integ), q - i + 2 + err)
    # (m)_(p-m) / (p-m-1)! is the integer C(p-1, m-1)*(p-m)
    pref_int = math.comb(p - 1, m - 1) * (p - m)
    acc.mul(dd_div(dd_from_int(pref_int), dd_npow(dd(ctx.x), p - 1)), p)
    return acc


def _eq_1m_a(m: int, l: int, ctx: ClosedFormContext) -> BoundedSum:
    """Variant A for 2F1(1, m; m+l+1; x)."""
    ompows = ctx.ompows(m + l)
    poch = math.perm(m + l, l + 1)  # (m)_(l+1)
    acc = BoundedSum()
    # log part: poch * (-1)^(l+1)/l! * (1-x)^l * log(1-x)
    logcoef = dd_from_ratio(poch * (-1) ** (l + 1), math.factorial(l))
    acc.add(dd_mul(logcoef, dd_mul(ompows[l], ctx.log)), l + 3)
    mplusl = dd_from_int(m + l)
    for i in range(m + l):
        if i == m - 1:
            continue  # the i - m + 1 denominator is exactly zero here
        j = m + l - 1 - i
        coef = Fraction(math.comb(m + l - 1, i) * (-1 if j % 2 else 1), i - m + 1)
        term = BoundedSum((ompows[j], j), (dd_neg(ompows[l]), l))
        term.mul(dd_from_ratio(coef.numerator, coef.denominator))
        term.mul(mplusl)
        acc.add_sum(term)
    acc.div(dd_npow(dd(ctx.x), m + l), m + l)
    return acc


def _eq_1m_b(m: int, l: int, ctx: ClosedFormContext) -> BoundedSum:
    """Variant B: Taylor-remainder form, a power series in x plus log part."""
    xpows = ctx.xpows(l + m)
    poch = math.perm(m + l, l + 1)  # (m)_(l+1)
    sgn = Fraction((-1) ** (l + 1), math.factorial(l))
    acc = BoundedSum()
    acc.add(dd_mul(dd_from_ratio(sgn.numerator, sgn.denominator),
                   dd_mul(dd_npow(ctx.omx, l), ctx.log)), l + 3)
    for j in range(1, l + 1):
        cj = Fraction(0)
        for i in range(j):
            cj += Fraction((-1) ** i * math.comb(l, i), j - i)
        cj *= sgn
        acc.add(dd_mul(dd_from_ratio(cj.numerator, cj.denominator), xpows[j]), j + 1)
    for i in range(m - 1):
        poc = math.perm(i + 1 + l, l + 1)  # (i+1)_(l+1)
        acc.add(dd_neg(dd_div(xpows[l + i + 1], dd_from_int(poc))), l + i + 2)
    acc.mul(dd_from_int(poch))
    acc.div(dd_npow(dd(ctx.x), m + l), m + l)
    return acc


def _log_core(n: int, ctx: ClosedFormContext) -> BoundedSum:
    """(1-x)**(n-1) (x + n log(1-x)), the log core of the (1, 2; n+2) forms."""
    core = BoundedSum((dd(ctx.x), 0.0), (dd_mul(dd_from_int(n), ctx.log), 2))
    core.mul(ctx.ompows(n - 1)[n - 1], n - 1)
    return core


def _eq_12_1(n: int, ctx: ClosedFormContext) -> BoundedSum:
    """First form for 2F1(1, 2; n+2; x)."""
    xpows = ctx.xpows(n)
    ompows = ctx.ompows(n - 1)
    acc = _log_core(n, ctx)
    for j in range(1, n):
        c = Fraction((-1) ** j * (n - j), j)
        term = dd_mul(dd_from_ratio(c.numerator, c.denominator),
                      dd_mul(xpows[j], ompows[n - j - 1]))
        acc.add(dd_neg(term), n + 1)
    acc.mul(_pref_12(n, n + 1, ctx), n + 2)
    return acc


def _pref_12(n: int, scale: int, ctx: ClosedFormContext) -> DD:
    """(-1)**n scale / x**(n+1), off by n + 2 units."""
    return dd_div(dd_from_int(-scale if n % 2 else scale), dd_npow(dd(ctx.x), n + 1))


def _eq_12_2(n: int, ctx: ClosedFormContext) -> BoundedSum:
    """Second form: same log core, binomial difference sum."""
    ompows = ctx.ompows(n - 1)
    acc = _log_core(n, ctx)
    for i in range(2, n + 1):
        c = Fraction((-1) ** i * math.comb(n, i), i - 1)
        diff = BoundedSum((dd_npow(ctx.omx, n - i), n - i), (dd_neg(ompows[n - 1]), n - 1))
        diff.mul(dd_from_ratio(c.numerator, c.denominator))
        acc.add_sum(diff)
    acc.mul(_pref_12(n, n + 1, ctx), n + 2)
    return acc


def _eq_12_3(n: int, ctx: ClosedFormContext) -> BoundedSum:
    """Third form: log plus pure power series, minus an (n+1)/x correction."""
    xpows = ctx.xpows(n - 1)
    acc = BoundedSum()
    acc.add(dd_mul(dd_npow(ctx.omx, n - 1), ctx.log), n + 1)
    for j in range(1, n):
        cj = Fraction(0)
        for i in range(j):
            cj += Fraction((-1) ** i * math.comb(n - 1, i), j - i)
        acc.add(dd_mul(dd_from_ratio(cj.numerator, cj.denominator), xpows[j]), j + 1)
    acc.mul(_pref_12(n, n * (n + 1), ctx), n + 2)
    # the (n+1)/x correction is one more term of the same sum
    acc.add(dd_neg(dd_div(dd_from_int(n + 1), dd(ctx.x))), 1)
    return acc


# Arrangements of the shapes that admit several; the first is the default.
_FORMS_12 = {1: _eq_12_1, 2: _eq_12_2, 3: _eq_12_3}
_FORMS_1M = {"A": _eq_1m_a, "B": _eq_1m_b}


def _variant(forms: dict, variant):
    if variant not in tuple(forms):
        if None in forms:
            raise InvalidParams("this shape takes no variant")
        *rest, last = forms
        raise InvalidParams(f"variant must be {', '.join(map(str, rest))} or {last}")
    return forms[variant]


def _assemble(body, x: float, *args):
    """body(*args) at x, rounded once; returns (value, rounding bound).

    Raises NotConverged where the assembly passes float range (large n next
    to x = 1), so no caller sees a non-finite closed value.
    """
    if not 0.0 < x < 1.0:
        raise DomainError("closed forms require 0 < x < 1")
    try:
        acc = body(*args, context(x))
    except (OverflowError, ZeroDivisionError):  # dd_exp, or 1 / a power that is 0
        raise NotConverged("closed form overflows float range") from None
    value = dd_to_float(acc.total)
    if not math.isfinite(value):  # Dekker's split past ~1.3e300
        raise NotConverged("closed form overflows float range")
    return value, acc.bound


def hyp2f1_closed_general(params: HypergeomParams, x: float) -> float:
    """Closed form for any (m, n; p) with integer m >= 1, p >= m+1.

    Unguarded: the value is returned whatever cancellation it suffered;
    hyp2f1_eval is the guarded entry.
    """
    return _assemble(_eq_general, x, params.m, params.n, params.p)[0]


def hyp2f1_closed_m1(n: float, p: int, x: float) -> float:
    """Closed form for 2F1(1, n; p; x), any real n, integer p >= 2.

    Unguarded: the value is returned whatever cancellation it suffered;
    hyp2f1_eval is the guarded entry.
    """
    require_ints(p=p)
    if p < 2:
        raise InvalidParams("p must be >= 2")
    return _assemble(_eq_general, x, 1, n, p)[0]


def hyp2f1_closed_1m(m: int, l: int, x: float, variant: str = "A") -> float:
    """Closed form for 2F1(1, m; m+l+1; x), integers m >= 1, l >= 0.

    Variants A and B are two algebraically equal arrangements; both are kept
    because their agreement is part of the test surface.  Unguarded: the
    value is returned whatever cancellation it suffered; hyp2f1_eval is the
    guarded entry.
    """
    require_ints(m=m, l=l)
    if m < 1 or l < 0:
        raise InvalidParams("need m >= 1 and l >= 0")
    return _assemble(_variant(_FORMS_1M, variant), x, m, l)[0]


def hyp2f1_closed_12(n: int, x: float, variant: int = 1) -> float:
    """Closed form for 2F1(1, 2; n+2; x), integer n >= 1, three variants.

    Unguarded: the value is returned whatever cancellation it suffered;
    hyp2f1_eval is the guarded entry.
    """
    require_ints(n=n)
    if n < 1:
        raise InvalidParams("n must be >= 1")
    return _assemble(_variant(_FORMS_12, variant), x, n)[0]


# Above this estimated digit loss the closed forms cannot certify even float64
# accuracy out of the double-double assembly, so the dispatcher goes straight
# to the series.  (p-1)*log10(1/x) is the loss driven by the x**(1-p) prefactor.
_MAX_DIGIT_LOSS = 22.0

# Below _X_SWITCH the dispatcher tries the series before any closed form.
_X_SWITCH = 0.5


def _closed_route(m: int, n: float, p: int, x: float, variant=None):
    """The shape classifier: the most specific closed form for (m, n; p).

    variant picks among the family's arrangements (None: its default).
    Returns the value, rounded once, and its double-double sum's bound.
    """
    if n == 1.0 and m > 1:
        m, n = 1, float(m)  # symmetric in the upper pair
    if m == 1 and n == 2.0 and p >= 3:
        forms, args = _FORMS_12, (p - 2,)
    elif m == 1 and float(n).is_integer() and n >= 1 and p >= int(n) + 1:
        forms, args = _FORMS_1M, (int(n), p - int(n) - 1)
    else:
        forms, args = {None: _eq_general}, (m, n, p)
    body = _variant(forms, next(iter(forms)) if variant is None else variant)
    return _assemble(body, x, *args)


def _euler_on_overflow(m: int, n: float, p: int, x: float) -> float:
    """2F1(m, n; p; x) = (1-x)**(p-m-n) 2F1(p-m, p-n; p; x) (DLMF 15.8.1).

    For a direct closed form that overflowed: with large n next to x = 1 its
    power integrals grow like (1-x)**(1-n), the transformed ones do not.  The
    series is no fallback there, since its terms stop short of the sum.
    """
    nn = p - n
    f, bound = _closed_route(p - m, nn, p, x)
    if certified(f, bound):
        # the scale as two half powers around f: the scale alone may pass
        # float range where the value does not
        try:
            h = (1.0 - x) ** ((nn - m) / 2)
            g = h * f * h
        except OverflowError:  # the value itself passes float range
            g = math.inf
        if math.isfinite(g):
            return g
    raise NotConverged("closed form overflows float range")


def _short_poly_exact(m: int, K: int, p: int, x: float) -> float:
    """2F1(m, -K; p; x) for integer K >= 1, summed exactly, rounded once.

    The coefficients (m)_k (-K)_k / ((p)_k k!) share the integer denominator
    prod_{i<K} (p+i)(i+1); with x = a/b, b a power of two, the sum is one
    integer over that denominator times b**K, built by Horner's rule in
    Python ints, and CPython rounds an int / int true division correctly.
    """
    a, b = x.as_integer_ratio()
    rising = [1]  # (m)_k (-K)_k
    for k in range(K):
        rising.append(rising[-1] * (m + k) * (k - K))
    num, scale = 0, 1  # scale = b**(K-k) prod_{k<=i<K} (p+i)(i+1)
    for k in range(K, -1, -1):
        num = num * a + rising[k] * scale
        if k:
            scale *= (p + k - 1) * k * b
    return num / scale


def hyp2f1_eval(params: HypergeomParams, x: float) -> float:
    """Stability-aware dispatcher.

    Every series it sums stops as numcore.sum_series does (tail bound
    within 1e-17 of the sum, at most 100000 terms); there is one such sum
    per call.  Below _X_SWITCH = 1/2 the defining series is kept if
    _dd.certified finds its rounding bound, terms_used * sum|term| * 2**-53,
    within 1e-13.  Any other point tries the most specific closed form, kept
    by the same test on the running bound of its double-double sum, unless
    the digit-loss bound (p-1)*log10(1/x) rules it out.  A short terminating
    polynomial (n a nonpositive integer >= -16) is summed exactly and
    rounded once instead.  The fallback is the series, reusing the sum made
    below _X_SWITCH, with no rounding check; at the term cap it raises
    NotConverged.  A closed form that passes float range is replaced by that
    of the Euler-transformed triple (p-m, p-n; p) times (1-x)**(p-m-n), if
    certified, else NotConverged is raised: the series stops short there.
    """
    if not 0.0 <= x < 1.0:
        raise DomainError("dispatcher requires 0 <= x < 1")
    if x == 0.0:
        return 1.0
    m, n, p = params.m, params.n, params.p
    if n == 0.0:
        return 1.0  # zero upper parameter terminates the series at its first term
    res = None
    if x < _X_SWITCH:
        res = hyp2f1_series(float(m), n, float(p), x)
        if not res.converged:
            raise NotConverged("series did not converge")
        if certified(res.value, res.terms_used * res.abs_sum * 2.0 ** -53):
            return res.value
    # A nonpositive integer n makes the series a short polynomial; for small
    # degree its exact sum beats any closed form (no log, no x**(1-p)
    # prefactor), so only deeper polynomials go through the closed forms.
    if n < 0.0 and float(n).is_integer() and -n <= 16:
        return _short_poly_exact(m, -int(n), p, x)
    if (p - 1) * math.log10(1.0 / x) <= _MAX_DIGIT_LOSS:
        try:
            f, bound = _closed_route(m, n, p, x)
        except NotConverged:  # the closed form passes float range
            return _euler_on_overflow(m, n, p, x)
        if certified(f, bound):
            return f
    if res is None:
        res = hyp2f1_series(float(m), n, float(p), x)
    if not res.converged:
        raise NotConverged("series fallback did not converge")
    return res.value
