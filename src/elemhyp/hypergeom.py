"""Gauss 2F1 with integer parameters: series oracle and elementary closed forms.

The series evaluator is the trusted oracle.  The closed forms have one
public entry, hyp2f1_closed, which returns a value only where its rounding
bound certifies it.  Its classifier, _closed_route, picks the family by
shape of the parameter triple (m, n; p), after it swaps (k, 1; p) to
(1, k; p):

  (1, 2; n+2)     a log core less a sum of x**j (1-x)**(n-j-1)
  anything else   two sums with exact rational coefficients and one power
                  (1-x)**(q+1-n), q = p-m-1 (any integer m >= 1, real n,
                  integer p >= m+1; _eq_general)

Form B of (1, m; m+l+1), a Taylor remainder in x (_eq_1m_b), takes no route:
verify keeps it as an independent check of the general form at those
triples, and at m = 2 of the (1, 2; n+2) form.

All closed forms assemble in double-double and round once at the end; the
per-x _dd.context(x) forms 1-x, log(1-x) and the x and 1-x power tables
once per x.  The general form takes at most one dd_exp and one dd_log
(n neither an integer nor a half-integer, or its power past the range a
dd_mul takes; or the dd_log alone, for the log term of an integer n in
[1, p-1]); a half-integer n takes one dd_sqrt.
Each form sums in a _dd.BoundedSum, whose bound counts term roundings,
table depth and the errors of the log and the power.

In the dispatcher hyp2f1_eval each route in turn gives its value and a
bound on its error, or declines, and the first value whose bound
_dd.certified finds within 1e-13 of it is returned (_routes); x = 0 and
n = 0 end route 1 or 2 at its first term, 1.0:

  1. below _X_SWITCH = 1/2, the defining series, where it needs few terms
     and the x**(1-p) prefactor makes closed forms cancel; its bound is
     terms * sum|term| * 2**-53;
  2. a short terminating polynomial (n a nonpositive integer >= -40),
     summed exactly and rounded once (_short_poly_exact): bound 0.0;
  3. from _X_NEAR = 0.8 up, the connection formula about x = 1 (DLMF 15.8.4,
     A&S 15.3.6, _near_one): two short series in 1-x with exact Pochhammer
     ratios as coefficients, added in a BoundedSum.  It declines where
     s = p-m-n is an integer or a part leaves float range (NotConverged
     where the value does), and its bound rejects s near an integer;
  4. unless its digit loss (p-1)*log10(1/x) exceeds _MAX_DIGIT_LOSS, the
     classifier's closed form for (m, n; p), with its BoundedSum bound;
     where its value passes float range, NotConverged is raised, since the
     series stops short of the sum there; where only its coefficients do,
     it declines;
  5. the defining series, route 1's below 1/2: returned with no rounding
     check, or NotConverged where it is not finite or not converged.

Both series routes sum to numcore's one precision.  The series and the two
tails of route 3 are summed by one flat loop, _series, bit for bit
numcore.sum_series' SeriesResult with the term ratio inline and the tail
bound by _tail_bound, since in pure Python a generator step and a callback
per term cost more than the float arithmetic of the term.  A Heun leaf
enters the routes past hyp2f1_eval's checks (_routes), with a ratios list
that the leaves of its sum share: they differ only in c, so the factors
(a+k)(b+k), k and k+1 of the term ratio are formed once per sum, and route
1 sums its defining series by _leaf_series, _series' float operations with
those factors read from the list, returning route 1's pair (bit for bit the
same value and bound).  The fallback above 1/2 sums the leaf by _series.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ._dd import (
    _GUARD_REL, _SERIES_REL_TOL, _SPLIT, U, BoundedSum, ClosedFormContext,
    _exp_parts, certified, context, dd, dd_add, dd_div, dd_exp, dd_from_ratio,
    dd_mul, dd_neg, dd_npow, dd_sqrt, dd_to_float,
)
from .numcore import (
    _LOG_FLOAT_MAX, _MAX_TERMS, DomainError, InvalidParams, NonFinite,
    NotConverged, SeriesResult, require_ints,
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
    """Defining series, summed by the term ratio recurrence (_series).

    This is the oracle every closed form is tested against.  A terminating
    series (a or b a nonpositive integer) has tail 0 once its terms hit
    exact zero; one whose sum passes float range is not converged.
    """
    if not abs(x) < 1.0:  # nan too
        raise DomainError("series requires |x| < 1")
    if c <= 0 and float(c).is_integer():
        raise DomainError("lower parameter must not be zero or a negative integer")
    return _series(a, b, 0, c, 0, x, 0)


def _series(a: float, b: float, ib: int, c: float, ic: int, z: float, first: int):
    """The series with t_0 = 1 and term ratios
    (a+j)(b+(ib+j)) / ((c+(ic+j))(j+1)) z, summed from term first by
    sum_series' float operations in its order, with this term source inline
    and the tail bound of _tail_bound: bit for bit sum_series' SeriesResult
    (the tests keep that composition as the reference), its sums Python
    floats, as sum_series' float(term) makes them for numpy parameters.

    |t| and |s| come from a sign test, as in numcore._weight_series: abs's
    floats, save that -0.0 stays -0.0, which adds, compares and scales as
    0.0 does; inf and -inf give inf, and nan gives nan, as abs does.
    """
    t = 1.0
    for k in range(first):
        t *= (a + k) * (b + (ib + k)) / ((c + (ic + k)) * (k + 1)) * z
    s = comp = abs_sum = 0.0
    inf = math.inf
    # k, ib+k, ic+k as exact floats: float-int arithmetic is CPython's slow path
    fk, fb, fc = float(first), float(ib + first), float(ic + first)
    for k in range(first, first + _MAX_TERMS):
        at = t if t >= 0.0 else -t
        if not at < inf:  # an inf or nan term
            raise NonFinite(f"non-finite term at index {k - first}")
        y = t - comp
        u = s + y
        comp = (u - s) - y
        s = u
        abs_sum += at
        nxt = t * ((a + fk) * (b + fb) / ((c + fc) * (fk + 1.0)) * z)
        lim = _SERIES_REL_TOL * (s if s >= 0.0 else -s)
        if at <= lim:
            if lim == inf:  # the sum passed float range
                break
            bound = _tail_bound(nxt, z, a + k + 1, k + 2,
                                b + (ib + k + 1), c + (ic + k + 1))
            if bound <= lim:
                return SeriesResult(float(s), k + 1 - first, True, bound, float(abs_sum))
        t = nxt
        fk += 1.0
        fb += 1.0
        fc += 1.0
    # past float range, or still going at the cap
    return SeriesResult(float(s), k + 1 - first, False, inf, float(abs_sum))


def _tail_bound(nxt, z, a1, k2, b1, c1):
    """The tail bound of _series past term k, from nxt = t_(k+1) and the
    shifted factors a1, k2, b1, c1 = a+k+1, k+2, b+(ib+k+1), c+(ic+k+1): while
    c1 > 0, the factors |(a+i)/(i+1)| and |(b+(ib+i))/(c+(ic+i))| of the later
    term ratios are monotone in i and tend to 1, so rho = |z| max(1, |a1/k2|)
    max(1, |b1/c1|) bounds every one of them and |nxt| / (1 - rho) the tail:
    math.inf while c1 <= 0 or rho >= 1, 0 once the terms are exact zeros."""
    if nxt == 0.0:
        return 0.0
    rho = abs(z) * max(1.0, abs(a1 / k2)) * max(1.0, abs(b1 / c1)) \
        if c1 > 0 else math.inf
    return abs(nxt) / (1.0 - rho) if rho < 1.0 else math.inf


def _leaf_series(a: float, b: float, c: float, z: float, ratios: list):
    """Route 1's pair for _series(a, b, 0, c, 0, z, 0), summed with the
    factors of its term ratio that depend on neither c nor z read from
    ratios, one list that the callers at one (a, b) share: entry k is
    ((a+k)(b+k), k, k+1) as _series forms them, in floats.  A series that
    runs past the list appends each entry it goes on to, so that a later
    one reads it; a series that runs to numcore's cap leaves _MAX_TERMS
    entries, about 12 MB, until the callers drop the list.

    The float operations of _series in its order, with k, k+1 and k+2 of
    its tail bound as the exact floats fk, fk1 and fk1+1: its value, and
    the bound terms * sum|term| * 2**-53 that _routes forms from it (the
    tests keep that comparison); None where _series' result is not
    converged.  A single series is faster in _series; the table pays where
    the leaves of one sum share it (heun_eval)."""
    t = 1.0
    s = comp = abs_sum = 0.0
    inf = math.inf
    tol = _SERIES_REL_TOL
    if not ratios:
        ratios.append(((a + 0.0) * (b + 0.0), 0.0, 1.0))  # entry 0, as _series forms it
    end = float(len(ratios))  # the k+1 of the last entry
    for ab, fk, fk1 in ratios:
        at = t if t >= 0.0 else -t
        if not at < inf:  # an inf or nan term
            raise NonFinite(f"non-finite term at index {int(fk)}")
        y = t - comp
        u = s + y
        comp = (u - s) - y
        s = u
        abs_sum += at
        nxt = t * (ab / ((c + fk) * fk1) * z)
        lim = tol * (s if s >= 0.0 else -s)
        if at <= lim:
            if lim == inf:  # the sum passed float range
                return None
            bound = _tail_bound(nxt, z, a + fk + 1.0, fk1 + 1.0, b + fk1, c + fk1)
            if bound <= lim:
                return float(s), fk1 * float(abs_sum) * 2.0 ** -53
        t = nxt
        if fk1 == end:  # the list iterator goes on to what is appended
            if end < _MAX_TERMS:
                ratios.append(((a + fk1) * (b + fk1), fk1, fk1 + 1.0))
                end += 1.0
    return None  # still going at the cap


@lru_cache(maxsize=4096)
def _pole_part(M: int, k0: int):
    """sum_(k != k0) (-1)**k C(M,k) / (k-k0) = (-1)**k0 C(M,k0)
    (H_k0 - H_(M-k0)), the finite part of M! / (a)_(M+1) at a = -k0."""
    h = sum(Fraction(1, j) for j in range(k0 - M, k0 + 1) if j) * math.comb(M, k0)
    return (-h.numerator if k0 % 2 else h.numerator), h.denominator


def _beta_sums(M: int, num: int, den: int, count: int):
    """sum_k (-1)**k C(M,k) / (a+k) = M! / (a)_(M+1), the Beta integral
    B(a, M+1) (DLMF 5.12.1) with (1-t)**M expanded, at a = j+1-num/den for
    j < count: exact integer pairs (numerator, denominator).  The product
    of the M+1 integers a*den + t*den slides to the next j by one
    multiplication and one exact division.  Where a is one of 0, -1, ...,
    -M, the term k = -a is a pole, and that row is _pole_part."""
    top = math.factorial(M) * den ** (M + 1)
    prod = None
    for j in range(count):
        ad = (j + 1) * den - num  # a * den
        if den == 1 and -M <= ad <= 0:
            prod = None
            yield _pole_part(M, -ad)
        else:
            if prod is None:
                prod = math.prod(range(ad, ad + (M + 1) * den, den))
            else:
                prod = prod * (ad + M * den) // (ad - den)
            yield top, prod


def _general_coefficients(m: int, num: int, den: int, q: int):
    """The exact coefficients of _eq_general at n = num/den, P = 1-x:
    heads[i] = (-1)**(q-i) C(q,i) S_i of P**(q-i) and tails[k] =
    (-1)**(k+q+1) C(m-1,k) T_k of P**(q+1-n+k), integer pairs
    (numerator, denominator); logs, one (i, c) per pair i+k = n-1, c the
    integer coefficient of P**(q-i) log P (none unless n is an integer
    in [1, q+m])."""
    heads = [(-math.comb(q, i) * a if (q - i) % 2 else math.comb(q, i) * a, b)
             for i, (a, b) in enumerate(_beta_sums(m - 1, num, den, q + 1))]
    tails = [(math.comb(m - 1, k) * a if (k + q) % 2 else -math.comb(m - 1, k) * a, b)
             for k, (a, b) in enumerate(_beta_sums(q, num, den, m))]
    sign = 1 if (num - 1 + q) % 2 else -1
    logs = [(i, sign * math.comb(m - 1, num - 1 - i) * math.comb(q, i))
            for i in range(max(0, num - m), min(q, num - 1) + 1)] if den == 1 else []
    return heads, tails, logs


def _coefficient_sum(coefs, pows, depths):
    """The sum of c pows[d] over the pairs (a, b) of coefs, c = a/b rounded
    once, and d of depths, as a BoundedSum that counts d + 2 units per term,
    and the sum of |c| (d + 1) + 1 (the subnormal count of _eq_general)."""
    acc, tiny = BoundedSum(), 0.0
    for (a, b), d in zip(coefs, depths):
        c = dd_from_ratio(a, b)
        acc.add(dd_mul(c, pows[d]), d + 2)
        tiny += abs(c[0]) * (d + 1) + 1.0
    return acc, tiny


def _eq_general(m: int, n: float, p: int, ctx: ClosedFormContext) -> BoundedSum | None:
    """Two sums with exact coefficients and one power, P = 1-x, q = p-m-1:

        sum_i (-1)**(q-i) C(q,i) S_i P**(q-i)
          - P**(q+1-n) sum_k (-1)**(k+q) C(m-1,k) T_k P**k  (+ L),

    times C(p-1, m-1) (p-m) / x**(p-1).  It is the triple form, its sum over
    j collapsed to C(q,i) (x-1)**(q-i): a sum over (k, i) of
    (-1)**(k+q-i) C(m-1,k) C(q,i) P**(q-i) times the integral of
    t**(i+k-n) over [P, 1], (1 - P**w) / w with w = i+k+1-n: its 1/w parts
    summed over k give S_i = (m-1)! / (i+1-n)_m, its P**w parts summed over
    i give T_k = q! / (k+1-n)_(q+1) (_beta_sums, _general_coefficients).
    For an integer n in [1, p-1], the pairs with w = 0 integrate to -log P:
    S_i and T_k take their finite parts, and L is
    -log P sum_(i+k=n-1) (-1)**(k+q-i) C(m-1,k) C(q,i) P**(q-i).

    The scale P**(q+1-n) is a table entry or dd_npow for integer n, that
    power times dd_sqrt(P) for half-integer n (no log, no exp), else
    dd_exp(u), u = (q+1-n) log P with q+1-n an exact dd.  Where the scale
    times the inner sum may pass the range a dd_mul takes (Dekker's split,
    about 2**996), it is 2**E g, g = e**(u - E log 2) (_dd._exp_parts): the
    heads, log terms and subnormal count are scaled by 2**-E, and 2**E goes
    back onto the total and the bound at the end, exactly.  The BoundedSum
    counts a term's table depth, 1 for its coefficient (and log P), 1 per
    product, and the scale's depth, its depth + 2 (the root and the
    product) or 1 + 3|u| (+ |E| for E log 2 in dd; against mpmath, on 20000
    seeded scales each, the largest errors seen are 0.33 and 0.39 of the
    last two counts); plus, as an absolute error times what multiplies it,
    16 units of 2**-1074 per dd_mul that forms or takes a power or product
    in the subnormal range, or per part that 2**-E scales below it.  None
    where a coefficient passes float range or Dekker's split: the value
    need not, as at (1, 3; 2901; 0.999), whose series takes 8 terms; and
    None where u does (|n| past about 1.3e300), whose dd_mul turns nan.
    """
    q = p - m - 1
    num, den = n.as_integer_ratio()
    heads, tails, logs = _general_coefficients(m, num, den, q)
    ompows = ctx.ompows(max(q, m - 1))
    # tiny counts the subnormal errors, in units 16 * 2**-1074
    try:
        acc, tiny = _coefficient_sum(heads, ompows, range(q, -1, -1))
        inner, tail_tiny = _coefficient_sum(tails, ompows, range(m))
        for i, c in logs:
            acc.add(dd_mul(dd_from_ratio(c, 1), dd_mul(ompows[q - i], ctx.log)),
                    q - i + 4)
            tiny += abs(c) * (abs(ctx.log[0]) + 1.0) * (q - i + 1) + 1.0
    except OverflowError:  # a coefficient past float range
        return None
    if not math.isfinite(acc.total[0] + inner.total[0]):
        return None  # a coefficient past Dekker's split, or the sums past float range
    e = q + 1 + (-num) // den  # the integer part of q+1-n
    # Dekker's split takes operands below sys.float_info.max / _SPLIT
    fits = e * math.log(ctx.omx[0]) + math.log(
        2.0 * _SPLIT * max(1.0, abs(inner.total[0]))) <= _LOG_FLOAT_MAX
    big = 0  # the scale is 2**big times the factor the inner sum takes
    if fits and den <= 2:
        scale, err = (ompows[e], float(e)) if 0 <= e < len(ompows) else \
            (dd_npow(ctx.omx, e), abs(e) + (e < 0))
        if den == 2:  # P**(q+1-n) = P**e sqrt(P)
            scale, err = dd_mul(scale, dd_sqrt(ctx.omx)), err + 2.0
    else:
        u = dd_mul(dd_add(dd_from_ratio(q + 1, 1), dd(-n)), ctx.log)
        if not math.isfinite(u[0]):
            return None  # q+1-n past Dekker's split
        err = 1.0 + 3.0 * abs(u[0])
        if fits:
            scale = dd_exp(u)
        else:
            scale, big = _exp_parts(u)
            err += abs(big)  # E log 2 in dd is off by |E| units of e**r at most
            parts = [math.ldexp(c, -big) for c in (*acc.total, acc.bound)]
            acc.total, acc.bound = (parts[0], parts[1]), parts[2]
            # a part scaled below the normal range is off by 2**-1075 at most
            tiny = math.ldexp(tiny, -big) + sum(abs(c) < sys.float_info.min
                                                for c in parts)
    tiny += tail_tiny * abs(scale[0]) + (abs(inner.total[0]) + inner.bound) * (err + 2.0)
    inner.mul(scale, err)
    acc.add_sum(inner)
    acc.bound += 16.0 * 2.0 ** -1074 * tiny
    # (m)_(p-m) / (p-m-1)! is the integer C(p-1, m-1)*(p-m)
    pref_int = math.comb(p - 1, m - 1) * (p - m)
    acc.mul(dd_div(dd_from_ratio(pref_int, 1), dd_npow(dd(ctx.x), p - 1)), p)
    if big:  # exact; an OverflowError here is the value passing float range
        acc.total = (math.ldexp(acc.total[0], big), math.ldexp(acc.total[1], big))
        acc.bound = math.ldexp(acc.bound, big)
    return acc


def _eq_1m_b(m: int, l: int, ctx: ClosedFormContext) -> BoundedSum:
    """Form B for 2F1(1, m; m+l+1; x): a Taylor-remainder form, a power
    series in x plus the log part.  The classifier takes the general form
    at these triples; B is verify's independent check of it."""
    xpows = ctx.xpows(l + m)
    poch = math.perm(m + l, l + 1)  # (m)_(l+1)
    sgn = Fraction((-1) ** (l + 1), math.factorial(l))
    acc = BoundedSum()
    acc.add(dd_mul(dd_from_ratio(sgn.numerator, sgn.denominator),
                   dd_mul(dd_npow(ctx.omx, l), ctx.log)), l + 3)
    for j in range(1, l + 1):
        cj = sgn * sum(Fraction((-1) ** i * math.comb(l, i), j - i) for i in range(j))
        acc.add(dd_mul(dd_from_ratio(cj.numerator, cj.denominator), xpows[j]), j + 1)
    for i in range(m - 1):
        poc = math.perm(i + 1 + l, l + 1)  # (i+1)_(l+1)
        acc.add(dd_neg(dd_div(xpows[l + i + 1], dd_from_ratio(poc, 1))), l + i + 2)
    acc.mul(dd_from_ratio(poch, 1))
    acc.div(dd_npow(dd(ctx.x), m + l), m + l)
    return acc


def _eq_12_1(n: int, ctx: ClosedFormContext) -> BoundedSum:
    """2F1(1, 2; n+2; x): the log core (1-x)**(n-1) (x + n log(1-x)) less a
    sum of x**j (1-x)**(n-j-1), times (-1)**n (n+1) / x**(n+1)."""
    xpows = ctx.xpows(n)
    ompows = ctx.ompows(n - 1)
    acc = BoundedSum((dd(ctx.x), 0.0), (dd_mul(dd_from_ratio(n, 1), ctx.log), 2))
    acc.mul(ompows[n - 1], n - 1)
    for j in range(1, n):
        c = Fraction((-1) ** j * (n - j), j)
        term = dd_mul(dd_from_ratio(c.numerator, c.denominator),
                      dd_mul(xpows[j], ompows[n - j - 1]))
        acc.add(dd_neg(term), n + 1)
    scale = -(n + 1) if n % 2 else n + 1
    acc.mul(dd_div(dd_from_ratio(scale, 1), dd_npow(dd(ctx.x), n + 1)), n + 2)
    return acc


def _assemble(body, x: float, *args):
    """(value, rounding bound) of body(*args) at x rounded once, or its None.

    Raises NotConverged where the assembly passes float range (large n next
    to x = 1), so no caller sees a non-finite closed value.
    """
    if not 0.0 < x < 1.0:
        raise DomainError("closed forms require 0 < x < 1")
    try:
        acc = body(*args, context(x))
    except (OverflowError, ZeroDivisionError):  # a value, or 1 / x**k, past float range
        raise NotConverged("closed form overflows float range") from None
    if acc is None:
        return None
    value = dd_to_float(acc.total)
    if not math.isfinite(value):  # Dekker's split past ~1.3e300, or 1 / x**(p-1)
        raise NotConverged("closed form overflows float range")
    return value, acc.bound


# Above this estimated digit loss the closed forms cannot certify even float64
# accuracy out of the double-double assembly, so the dispatcher goes straight
# to the series.  (p-1)*log10(1/x) is the loss driven by the x**(1-p) prefactor.
_MAX_DIGIT_LOSS = 22.0

# Below _X_SWITCH the dispatcher tries the series before any closed form.
_X_SWITCH = 0.5

# From _X_NEAR up, a non-integer s = p-m-n tries the connection formula about
# x = 1 before any closed form.  Its float 1-x series lose more digits the
# longer they run, so the start is the lowest, in steps of 0.05 from 0.6,
# that kept the 10th-percentile digits of the hyp2f1-grid benchmark mix at
# 16 or more on each of seeds 1-30 (0.75 gave 15.999 on seed 29, 0.65
# fell below 16 on six of them).
_X_NEAR = 0.8


def _closed_route(m: int, n: float, p: int, x: float):
    """The shape classifier: the closed form for (m, n; p), as (value
    rounded once, its double-double sum's bound), or None (_eq_general).

    (k, 1; p) is swapped to (1, k; p), where the general form certifies
    more points: on k = 3..60 step 3, p-k-1 = 0..100 step 5 and
    x = 0.01..0.99 step 0.02 (21000 points), 10 that the other orientation
    rejects and 5 the other way.  (1, 2; p) keeps its own form: on
    p = 3..201 step 3 and x = 0.01..0.99 step 0.01 (6633 points) it
    certifies 2144 that the general form rejects, and never the reverse;
    the general form's alternating sums cancel there (at (1, 2; 60),
    x = 0.6, its bound is 5.2e-9 of the value, the (1, 2; p) form's
    8.4e-29).  Every other shape takes the general form."""
    if n == 1.0 and m > 1:
        m, n = 1, float(m)  # symmetric in the upper pair
    if m == 1 and n == 2.0 and p >= 3:
        return _assemble(_eq_12_1, x, p - 2)
    return _assemble(_eq_general, x, m, n, p)


def hyp2f1_closed(params: HypergeomParams, x: float) -> float:
    """The elementary closed form of 2F1(m, n; p; x), 0 < x < 1, certified:
    the classifier's form (_closed_route), returned only where _dd.certified
    finds its rounding bound within 1e-13 of it; otherwise, or where it or
    its coefficients pass float range, this raises NotConverged.
    """
    pair = _closed_route(params.m, params.n, params.p, x)
    if pair is None:
        raise NotConverged("closed form's power or coefficients leave float range")
    f, bound = pair
    if not certified(f, bound):  # a finite bound has a finite f (_assemble)
        raise NotConverged(f"closed form's rounding bound {bound:.3g} exceeds "
                           f"{_GUARD_REL:g} of its value" if math.isfinite(bound)
                           else "closed form's rounding bound is not finite")
    return f


def _near_one_tail(a: int, nb: float, ib: int, ic: int, z: float):
    """The terms k >= 1 of the series with term ratios
    (a+j)(nb+(ib+j)) / ((nb+(ic+j))(j+1)) z, 0 < z <= 1/2, summed by
    _series with its tail bound.

    Each factor nb+i is one rounding of nb plus an exact integer, and a
    ratio rounds 7 times, so term k is within 7k units 2**-53 of its exact
    value, and k <= terms_used; Kahan's sum adds at most 3 units of sum |t_k|.
    Returns (sum, bound on its error and tail: (7 terms_used + 3) abs_sum
    2**-53 + trunc_err_est), or None where a term or the sum leaves float
    range or the terms run to numcore's cap.
    """
    try:
        res = _series(a, nb, ib, nb, ic, z, 1)
    except NonFinite:
        return None
    if not res.converged or not math.isfinite(res.value):
        return None
    return res.value, ((7.0 * res.terms_used + 3.0) * res.abs_sum * 2.0 ** -53
                       + res.trunc_err_est)


def _near_one(m: int, n: float, p: int, x: float):
    """2F1(m, n; p; x) about x = 1 (DLMF 15.8.4, A&S 15.3.6), s = p-m-n:

        A 2F1(m, n; 1-s; 1-x) + B (1-x)**s 2F1(p-m, p-n; 1+s; 1-x),
        A = (p-m)_m / (s)_m,  B = (m)_(p-m) / (-s)_(p-m).

    With n = a/2**e, s = S/2**e, A and B are exact integer ratios, each
    rounded once to double-double.  The two 1-x series are summed from
    k = 1 in float (_near_one_tail); their factors are -n or n plus an
    integer, never a rounded s.  1 plus each sum times its coefficient is
    added in a BoundedSum, whose bound also counts both tail bounds and the
    one float (1-x)**s: 1 ulp, the error of s rounded to float times
    |log(1-x)|, and 2**-1074 of a subnormal power.  Returns (value, bound),
    or None where s is an integer (the log case, DLMF 15.8.10) or a
    coefficient, term or power leaves float range.  Raises NotConverged
    where (1-x)**s passes float range and the B part with it.
    """
    num, den = n.as_integer_ratio()
    q = p - m
    big_s = q * den - num  # s = big_s / den
    if big_s % den == 0:
        return None
    z = 1.0 - x  # exact for x >= 1/2
    first = _near_one_tail(m, n, 0, 1 - q, z)  # 2F1(m, n; 1-s; z)
    second = _near_one_tail(q, -n, p, q + 1, z)  # 2F1(p-m, p-n; 1+s; z)
    if first is None or second is None:
        return None
    (t1, e1), (t2, e2) = first, second
    try:
        coef_a = dd_from_ratio(math.perm(p - 1, m) * den ** m,
                               math.prod(big_s + i * den for i in range(m)))
        coef_b = dd_from_ratio(math.perm(p - 1, q) * den ** q,
                               math.prod(i * den - big_s for i in range(q)))
    except OverflowError:
        return None
    s = q - n
    try:
        pw = z ** s
    except OverflowError:
        scaled = abs(coef_b[0] * (1.0 + t2))
        if scaled and math.log(scaled) + s * math.log(z) > _LOG_FLOAT_MAX:
            raise NotConverged("near-1 connection: (1-x)**s passes float range, "
                               "and so does the value") from None
        return None
    sn, sd = s.as_integer_ratio()  # both denominators are powers of two
    ds = (big_s * sd - sn * den) / (den * sd)  # s - float(s), exactly rounded
    pw_err = 2.0 ** -52 + (abs(ds * math.log(z)) if ds else 0.0)
    acc = BoundedSum()
    acc.add(dd_mul(coef_a, dd_add(dd(1.0), dd(t1))), 2.0)  # 1 + t1 is exact in dd
    acc.bound += abs(coef_a[0]) * e1
    one_t2 = dd_add(dd(1.0), dd(t2))
    acc.add(dd_mul(dd_mul(coef_b, one_t2), dd(pw)), 3.0 + pw_err / U)
    # a subnormal power, and the dd products it takes part in, are off by a
    # few units of 2**-1074 each
    acc.bound += abs(coef_b[0]) * (pw * e2 + 16.0 * abs(one_t2[0]) * 2.0 ** -1074)
    return dd_to_float(acc.total), acc.bound


def _short_poly_exact(m: int, K: int, p: int, x: float) -> float:
    """2F1(m, -K; p; x) for integer K >= 0, summed exactly, rounded once.

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
    """Stability-aware dispatcher: the five routes of the module docstring,
    each (value, bound) judged once by _dd.certified (_routes).

    Every series it sums, by _series, stops on a bound on its tail within
    1e-17 of its sum, at most 100000 terms; the fallback, route 5, raises
    NotConverged at the term cap and where its sum is not finite.  Where the
    closed form's value passes float range, NotConverged is raised: the
    series stops short of the sum there.
    """
    if not 0.0 <= x < 1.0:
        raise DomainError("dispatcher requires 0 <= x < 1")
    return _routes(params.m, params.n, params.p, x)


def _routes(m: int, n: float, p: int, x: float, ratios: list | None = None) -> float:
    """hyp2f1_eval's routes, in order, for a triple HypergeomParams accepts
    and 0 <= x < 1, checked by the caller: each (value, bound) is formed only
    where the one before is not kept, and judged at once by kept.  heun_eval
    calls it per leaf, with the one ratios list of its sum (_leaf_series)."""

    def kept(pair):
        return pair is not None and certified(*pair)

    if x < _X_SWITCH:
        if ratios is None:
            res = hyp2f1_series(float(m), n, float(p), x)
            pair = (res.value, res.terms_used * res.abs_sum * 2.0 ** -53) \
                if res.converged else None
        else:
            pair = _leaf_series(float(m), n, float(p), x, ratios)
        if pair is None:
            raise NotConverged("series did not converge")
        value = pair[0]
        if kept(pair):
            return value
    # summed exactly: no log and no x**(1-p) prefactor, as a closed form has
    if n <= 0.0 and float(n).is_integer() and -n <= 40:
        pair = _short_poly_exact(m, -int(n), p, x), 0.0
        if kept(pair):
            return pair[0]
    if x >= _X_NEAR:
        pair = _near_one(m, n, p, x)
        if kept(pair):
            return pair[0]
    if (p - 1) * math.log10(1.0 / x) <= _MAX_DIGIT_LOSS:
        pair = _closed_route(m, n, p, x)
        if kept(pair):
            return pair[0]
    if x >= _X_SWITCH:
        res = hyp2f1_series(float(m), n, float(p), x)
        value = res.value
        if math.isfinite(value) and not res.converged:
            raise NotConverged("series fallback did not converge")
    if not math.isfinite(value):
        raise NotConverged("series fallback passes float range")
    return value
