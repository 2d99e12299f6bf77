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
an integer power) each.

The dispatcher hyp2f1_eval tries three routes in order:

  1. below _X_SWITCH = 1/2, the defining series summed to full precision,
     where it needs few terms and the x**(1-p) prefactor makes closed
     forms cancel; kept when its rounding bound,
     terms * sum|term| * 2**-53, is within _GUARD_REL of it, whatever the
     policy's rel_tol;
  2. the classifier's closed form for (m, n; p), kept when its cancellation
     estimate is within _GUARD_REL;
  3. the defining series, stopped once its tail bound meets policy.rel_tol.

A short terminating polynomial (n a nonpositive integer >= -16) that route
1 does not keep is summed exactly in integers and rounded once instead of
routes 2 and 3.  Points whose a-priori digit loss (p-1)*log10(1/x) exceeds
_MAX_DIGIT_LOSS skip route 2.  Where the closed form of route 2 overflows
float range or comes out non-finite (large n next to x = 1), route 3 is not
taken: the closed form of the Euler-transformed triple (p-m, p-n; p)
(DLMF 15.8.1), under the same test, times (1-x)**(p-m-n) answers instead,
or NotConverged is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import count

from ._dd import (
    DD, ClosedFormContext, context, dd, dd_add, dd_div, dd_from_int,
    dd_from_ratio, dd_mul, dd_neg, dd_npow, dd_sub, dd_to_float,
)
from .numcore import (
    DEFAULT_POLICY, DomainError, EvalPolicy, InvalidParams, NotConverged,
    SeriesResult, sum_series,
)


@dataclass(frozen=True)
class HypergeomParams:
    """Parameter triple for 2F1(m, n; p; x): integer m, real n, integer p."""

    m: int
    n: float
    p: int

    def __post_init__(self):
        if self.m < 1:
            raise InvalidParams("m must be a positive integer")
        if self.p < self.m + 1:
            raise InvalidParams("p must be >= m+1")


def hyp2f1_series(a: float, b: float, c: float, x: float,
                  policy: EvalPolicy = DEFAULT_POLICY) -> SeriesResult:
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

    return sum_series(terms(), tail, policy)


class _Acc:
    """Double-double accumulator that remembers the largest magnitude seen.

    The ratio max_magnitude / |total| estimates how many digits the final
    cancellation burned; the dispatcher uses it to decide whether the closed
    form can be trusted.
    """

    __slots__ = ("total", "maxmag")

    def __init__(self):
        self.total = dd(0.0)
        self.maxmag = 0.0

    def add(self, term: DD):
        self.maxmag = max(self.maxmag, abs(term[0]))
        self.total = dd_add(self.total, term)
        self.maxmag = max(self.maxmag, abs(self.total[0]))

    def cancel_ratio(self) -> float:
        if self.total[0] == 0.0:
            return math.inf
        return self.maxmag / abs(self.total[0])


def _eq_general(m: int, n: float, p: int, ctx: ClosedFormContext):
    """One sum over (k, i) of power integrals; returns (dd value, cancel ratio).

    The binomial sum over j of the triple form collapses by
    sum_j C(q,j)(-1)**j x**(q-j) C(j,i)(-1)**i = C(q,i)(x-1)**(q-i), q = p-m-1,
    so one accumulator sees every term and its cancel ratio covers all the
    cancellation.  At m = 1 this is the single-sum form.
    """
    q = p - m - 1
    ompows = ctx.ompows(q)
    acc = _Acc()
    for k in range(m):
        ck = math.comb(m - 1, k) * (-1 if k % 2 else 1)
        for i in range(q + 1):
            c = ck * math.comb(q, i) * (-1 if (q - i) % 2 else 1)
            integ = ctx.power_integral(i + k, n)
            acc.add(dd_mul(dd_mul(dd_from_int(c), ompows[q - i]), integ))
    # (m)_(p-m) / (p-m-1)! is the integer C(p-1, m-1)*(p-m)
    pref_int = math.comb(p - 1, m - 1) * (p - m)
    pref = dd_div(dd_from_int(pref_int), dd_npow(dd(ctx.x), p - 1))
    return dd_mul(pref, acc.total), acc.cancel_ratio()


def _eq_1m_a(m: int, l: int, ctx: ClosedFormContext):
    """Variant A for 2F1(1, m; m+l+1; x); returns (dd value, cancel ratio)."""
    ompows = ctx.ompows(m + l)
    poch = math.perm(m + l, l + 1)  # (m)_(l+1)
    acc = _Acc()
    # log part: poch * (-1)^(l+1)/l! * (1-x)^l * log(1-x)
    logcoef = dd_from_ratio(poch * (-1) ** (l + 1), math.factorial(l))
    acc.add(dd_mul(logcoef, dd_mul(ompows[l], ctx.log)))
    mplusl = dd_from_int(m + l)
    for i in range(m + l):
        if i == m - 1:
            continue  # the i - m + 1 denominator is exactly zero here
        c = math.comb(m + l - 1, i) * (-1 if (m + l - 1 - i) % 2 else 1)
        coef = Fraction(c, i - m + 1)
        diff = dd_sub(ompows[m + l - 1 - i], ompows[l])
        term = dd_mul(dd_from_ratio(coef.numerator, coef.denominator), diff)
        acc.add(dd_mul(mplusl, term))
    result = dd_div(acc.total, dd_npow(dd(ctx.x), m + l))
    return result, acc.cancel_ratio()


def _eq_1m_b(m: int, l: int, ctx: ClosedFormContext):
    """Variant B: Taylor-remainder form, a power series in x plus log part."""
    xpows = ctx.xpows(l + m)
    poch = math.perm(m + l, l + 1)  # (m)_(l+1)
    sgn = Fraction((-1) ** (l + 1), math.factorial(l))
    acc = _Acc()
    acc.add(dd_mul(dd_from_ratio(sgn.numerator, sgn.denominator),
                   dd_mul(dd_npow(ctx.omx, l), ctx.log)))
    for j in range(1, l + 1):
        cj = Fraction(0)
        for i in range(j):
            cj += Fraction((-1) ** i * math.comb(l, i), j - i)
        cj *= sgn
        acc.add(dd_mul(dd_from_ratio(cj.numerator, cj.denominator), xpows[j]))
    for i in range(m - 1):
        poc = math.perm(i + 1 + l, l + 1)  # (i+1)_(l+1)
        acc.add(dd_neg(dd_div(xpows[l + i + 1], dd_from_int(poc))))
    result = dd_div(dd_mul(dd_from_int(poch), acc.total), dd_npow(dd(ctx.x), m + l))
    return result, acc.cancel_ratio()


def _eq_12_1(n: int, ctx: ClosedFormContext):
    """First form for 2F1(1, 2; n+2; x)."""
    xpows = ctx.xpows(n)
    ompows = ctx.ompows(n - 1)
    acc = _Acc()
    acc.add(dd_mul(ompows[n - 1],
                   dd_add(dd(ctx.x), dd_mul(dd_from_int(n), ctx.log))))
    for j in range(1, n):
        c = Fraction((-1) ** j * (n - j), j)
        term = dd_mul(dd_from_ratio(c.numerator, c.denominator),
                      dd_mul(xpows[j], ompows[n - j - 1]))
        acc.add(dd_neg(term))
    sgn = -(n + 1) if n % 2 else (n + 1)
    pref = dd_div(dd_from_int(sgn), dd_npow(dd(ctx.x), n + 1))
    return dd_mul(pref, acc.total), acc.cancel_ratio()


def _eq_12_2(n: int, ctx: ClosedFormContext):
    """Second form: same log core, binomial difference sum."""
    ompows = ctx.ompows(n - 1)
    acc = _Acc()
    acc.add(dd_mul(ompows[n - 1],
                   dd_add(dd(ctx.x), dd_mul(dd_from_int(n), ctx.log))))
    for i in range(2, n + 1):
        c = Fraction((-1) ** i * math.comb(n, i), i - 1)
        diff = dd_sub(dd_npow(ctx.omx, n - i), ompows[n - 1])
        acc.add(dd_mul(dd_from_ratio(c.numerator, c.denominator), diff))
    sgn = -(n + 1) if n % 2 else (n + 1)
    pref = dd_div(dd_from_int(sgn), dd_npow(dd(ctx.x), n + 1))
    return dd_mul(pref, acc.total), acc.cancel_ratio()


def _eq_12_3(n: int, ctx: ClosedFormContext):
    """Third form: log plus pure power series, minus an (n+1)/x correction."""
    xpows = ctx.xpows(n - 1)
    acc = _Acc()
    acc.add(dd_mul(dd_npow(ctx.omx, n - 1), ctx.log))
    for j in range(1, n):
        cj = Fraction(0)
        for i in range(j):
            cj += Fraction((-1) ** i * math.comb(n - 1, i), j - i)
        acc.add(dd_mul(dd_from_ratio(cj.numerator, cj.denominator), xpows[j]))
    nn1 = n * (n + 1)
    sgn = -nn1 if n % 2 else nn1
    pref = dd_div(dd_from_int(sgn), dd_npow(dd(ctx.x), n + 1))
    main = dd_mul(pref, acc.total)
    tail = dd_div(dd_from_int(n + 1), dd(ctx.x))
    result = dd_sub(main, tail)
    # two cancellation stages: inside the core, then main minus tail
    ratio1 = acc.cancel_ratio()
    if result[0] == 0.0:
        ratio2 = math.inf
    else:
        ratio2 = (abs(main[0]) + abs(tail[0])) / abs(result[0])
    return result, max(ratio1, ratio2)


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


def _check_open_unit(x: float):
    if not 0.0 < x < 1.0:
        raise DomainError("closed forms require 0 < x < 1")


def _assemble(body, x: float, *args):
    """body(*args) at x; returns (dd value, cancel ratio).

    Raises NotConverged where the assembly passes float range (large n next
    to x = 1), so no caller sees a non-finite closed value.
    """
    _check_open_unit(x)
    try:
        val, ratio = body(*args, context(x))
    except (OverflowError, ZeroDivisionError):  # dd_exp, or 1 / a power that is 0
        raise NotConverged("closed form overflows float range") from None
    if not math.isfinite(dd_to_float(val)):  # Dekker's split past ~1.3e300
        raise NotConverged("closed form overflows float range")
    return val, ratio


def _closed_value(body, x: float, *args) -> float:
    return dd_to_float(_assemble(body, x, *args)[0])


def hyp2f1_closed_general(params: HypergeomParams, x: float) -> float:
    """Closed form for any (m, n; p) with integer m >= 1, p >= m+1.

    Unguarded: the value is returned whatever cancellation it suffered;
    hyp2f1_eval is the guarded entry.
    """
    return _closed_value(_eq_general, x, params.m, params.n, params.p)


def hyp2f1_closed_m1(n: float, p: int, x: float) -> float:
    """Closed form for 2F1(1, n; p; x), any real n, integer p >= 2.

    Unguarded: the value is returned whatever cancellation it suffered;
    hyp2f1_eval is the guarded entry.
    """
    if p < 2:
        raise InvalidParams("p must be >= 2")
    return _closed_value(_eq_general, x, 1, n, p)


def hyp2f1_closed_1m(m: int, l: int, x: float, variant: str = "A") -> float:
    """Closed form for 2F1(1, m; m+l+1; x), integers m >= 1, l >= 0.

    Variants A and B are two algebraically equal arrangements; both are kept
    because their agreement is part of the test surface.  Unguarded: the
    value is returned whatever cancellation it suffered; hyp2f1_eval is the
    guarded entry.
    """
    if m < 1 or l < 0:
        raise InvalidParams("need m >= 1 and l >= 0")
    return _closed_value(_variant(_FORMS_1M, variant), x, m, l)


def hyp2f1_closed_12(n: int, x: float, variant: int = 1) -> float:
    """Closed form for 2F1(1, 2; n+2; x), integer n >= 1, three variants.

    Unguarded: the value is returned whatever cancellation it suffered;
    hyp2f1_eval is the guarded entry.
    """
    if n < 1:
        raise InvalidParams("n must be >= 1")
    return _closed_value(_variant(_FORMS_12, variant), x, n)


# Above this estimated digit loss the closed forms cannot certify even float64
# accuracy out of the double-double assembly, so the dispatcher goes straight
# to the series.  (p-1)*log10(1/x) is the loss driven by the x**(1-p) prefactor.
_MAX_DIGIT_LOSS = 22.0

# Dispatcher rejects a closed-form value whose cancellation estimate exceeds
# this relative error, and a series value whose rounding bound does.
_GUARD_REL = 1e-13

# Below _X_SWITCH the series is summed to full float64 precision, to
# _SERIES_REL_TOL or the policy's own tolerance if tighter; a loose rel_tol
# does not loosen it.
_X_SWITCH = 0.5
_SERIES_REL_TOL = 1e-17


def _closed_accepted(f: float, ratio: float) -> bool:
    """The dispatcher's test for keeping a closed value f of cancel ratio ratio.

    The double-double assembly carries ~1e-31 relative; the ratio (largest
    partial magnitude over the result) may amplify that up to _GUARD_REL.
    """
    return math.isfinite(f) and math.isfinite(ratio) and ratio * 1e-31 <= _GUARD_REL


def _closed_route(m: int, n: float, p: int, x: float, variant=None):
    """The shape classifier: the most specific closed form for (m, n; p).

    variant picks among the family's arrangements (None: its default).
    Returns (dd value, cancel ratio).
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
    val, ratio = _closed_route(p - m, nn, p, x)
    f = dd_to_float(val)
    if _closed_accepted(f, ratio):
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


def hyp2f1_eval(params: HypergeomParams, x: float,
                policy: EvalPolicy = DEFAULT_POLICY) -> float:
    """Stability-aware dispatcher.

    Below _X_SWITCH = 1/2 the defining series is summed to full precision
    (tolerance min(policy.rel_tol, 1e-17)) and kept when its rounding bound,
    terms_used * sum|term| * 2**-53, is within _GUARD_REL of the value.
    A point that bound rejects, and any point from _X_SWITCH up, tries the
    most specific closed form; its value is rejected when the estimated
    cancellation (tracked during the double-double assembly) exceeds
    _GUARD_REL, or when the a-priori digit-loss bound (p-1)*log10(1/x)
    already rules it out.  A short terminating polynomial (n a nonpositive
    integer >= -16) takes neither: it is summed exactly and rounded once.
    The series is the fallback, reusing the sum already made below
    _X_SWITCH.  A series that hits policy.max_terms raises NotConverged.
    Where the closed form overflows float range or comes out non-finite, the
    series is not tried (its terms stop short of the true sum there): the
    closed form of the Euler-transformed triple (p-m, p-n; p), under the
    same test, is scaled by (1-x)**(p-m-n), and NotConverged is raised if
    it is rejected too.
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
        full = replace(policy, rel_tol=min(policy.rel_tol, _SERIES_REL_TOL))
        res = hyp2f1_series(float(m), n, float(p), x, full)
        if not res.converged:
            raise NotConverged("series did not converge")
        if res.terms_used * res.abs_sum * 2.0 ** -53 <= _GUARD_REL * abs(res.value):
            return res.value
    # A nonpositive integer n makes the series a short polynomial; for small
    # degree its exact sum beats any closed form (no log, no x**(1-p)
    # prefactor), so only deeper polynomials go through the closed forms.
    if n < 0.0 and float(n).is_integer() and -n <= 16:
        return _short_poly_exact(m, -int(n), p, x)
    if (p - 1) * math.log10(1.0 / x) <= _MAX_DIGIT_LOSS:
        try:
            val, ratio = _closed_route(m, n, p, x)
        except NotConverged:  # the closed form passes float range
            return _euler_on_overflow(m, n, p, x)
        f = dd_to_float(val)
        if _closed_accepted(f, ratio):
            return f
    if res is None:
        res = hyp2f1_series(float(m), n, float(p), x, policy)
    if not res.converged:
        raise NotConverged("series fallback did not converge")
    return res.value
