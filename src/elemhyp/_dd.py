"""Internal double-double arithmetic.

The closed-form evaluators assemble sums whose terms are many orders of
magnitude larger than the result (the x**(1-p) prefactors amplify whatever
cancellation noise the summation leaves behind).  Plain float64 loses up to
15 digits there, so every closed form accumulates in double-double (~31
significant digits) and rounds once at the very end.

Representation: a pair (hi, lo) of floats with hi = fl(hi + lo) and
|lo| <= ulp(hi)/2.  Algorithms are the classic error-free transformations
(Dekker, Knuth); products use Dekker splitting because math.fma arrived only
in Python 3.13 and 3.10 is supported.  An int i enters as dd_from_ratio(i, 1).

dd_add and dd_mul are flat: each writes out the two-sum or the split
two-product and the quick-two-sum renormalization in one function body,
because in pure Python a call costs more than the float arithmetic it
wraps, and they run many times per evaluation.  They do the float
operations of the composed forms (Dekker, "A floating-point technique for
extending the available precision", 1971), in the same order, so every
value, and the sign of every zero, is the composed form's; the tests keep
the composed forms as the reference.  BoundedSum.add, which sums every
closed form, writes its dd_add out the same way.
Everything else is composed of dd_add and dd_mul calls: dd_sub, dd_div,
dd_sqrt, dd_log, _exp_parts (so dd_exp) and _expm1_reduced (so dd_expm1).
Each runs less than once per evaluation on average (measured over the
benchmark workloads, seed 1: at most 0.9 dd_div, 0.2 dd_log, 0.08 dd_exp
and 0.08 dd_sqrt calls per operation), so the ~4 us that composing adds
to a log or an exp (~12 and ~10 us per call on Python 3.11) costs under
1 us per operation.

The transcendentals follow Hida, Li and Bailey ("Algorithms for quad-double
precision floating point arithmetic", ARITH 2001): argument reduction, then
Horner's rule or a series on precomputed double-double constants, with no
dd_div per term and no table of values.  dd_exp takes out m log 2 and then
2**-j, j <= 9, sums an 11-term Horner polynomial for expm1 and undoes the
2**-j by j doublings expm1(2r) = expm1(r) (expm1(r) + 2), and multiplies
by 2**m (_exp_parts returns e**r and m apart, for a caller whose 2**m may
pass float range); dd_expm1 below 0.2 is that core alone.  dd_log takes
out the binary exponent, which leaves f in [1/sqrt2, sqrt2), and sums the
atanh series of log f, its terms below 1e-18 of the sum in float.

All per-x state lives here: context(x), a small memo, hands out the one
ClosedFormContext for x, which forms log(1-x), log x and the power tables
once and shares them between every caller at that x.
So does the one test of a computed value: a BoundedSum keeps a dd total and
the running bound sum |t_i| e_i on its error (Higham, "Accuracy and
Stability of Numerical Algorithms", ch. 3-4), and certified(value, bound)
keeps the value only where that bound is within 1e-13 of it.
"""

from __future__ import annotations

import math
import threading
from functools import cached_property, lru_cache

_SPLIT = 134217729.0  # 2**27 + 1

DD = tuple  # (hi, lo)


def dd(x: float) -> DD:
    """Exact embedding of a float."""
    return (float(x), 0.0)


def dd_from_ratio(num: int, den: int) -> DD:
    """num/den rounded once, for integers of any size: the package's one
    converter of exact rationals.  OverflowError past float range.  Integer
    true division rounds correctly, so hi is the nearest float and lo the
    nearest float to the exact remainder num/den - hi.
    """
    hi = num / den
    hn, hd = hi.as_integer_ratio()
    return (hi, (num * hd - hn * den) / (den * hd))


# Errors count in units U, one per dd_add, dd_mul or dd_div (dd_add rounds by
# at most 3/4 of one; the largest dd_mul and dd_div errors seen on random
# operands are 0.71 and 0.59), which also covers a coefficient rounded to dd
# (1/4), and one per value of dd_log, dd_expm1, dd_sqrt or
# polylog._polylog_dd, or of dd_exp(u) with |u| more: against mpmath, on
# 20000 seeded arguments each, their largest errors seen are 1.07, 1.22,
# 0.63 and 2.96 units and 0.39 (1 + |u|) (a sweep test pins all but
# _polylog_dd's), which the full unit counted for every operation absorbs,
# as the tests' sweeps against mpmath check.  A value is kept only where its
# error bound is within _GUARD_REL of it; a series meant to be exact to
# float64 is summed to _SERIES_REL_TOL or tighter.
U = 2.0 ** -104
_GUARD_REL = 1e-13
_SERIES_REL_TOL = 1e-17


def certified(value: float, bound: float) -> bool:
    """The one test for keeping a value: finite, its error bound within 1e-13."""
    return math.isfinite(value) and bound <= _GUARD_REL * abs(value)


def dd_to_float(x: DD) -> float:
    return x[0] + x[1]


def dd_add(x: DD, y: DD) -> DD:
    # Knuth's two-sum of the high parts, the low parts added to its error,
    # then the quick-two-sum renormalization
    a = x[0]
    b = y[0]
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb) + (x[1] + y[1])
    hi = s + e
    return (hi, e - (hi - s))


def dd_neg(x: DD) -> DD:
    return (-x[0], -x[1])


def dd_sub(x: DD, y: DD) -> DD:
    return dd_add(x, (-y[0], -y[1]))


def dd_mul(x: DD, y: DD) -> DD:
    # Dekker's split two-product of the high parts, the cross terms added to
    # its error, then the quick-two-sum renormalization
    a = x[0]
    b = y[0]
    p = a * b
    t = _SPLIT * a
    ahi = t - (t - a)
    alo = a - ahi
    t = _SPLIT * b
    bhi = t - (t - b)
    blo = b - bhi
    e = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo + (a * y[1] + x[1] * b)
    hi = p + e
    return (hi, e - (hi - p))


def dd_div(x: DD, y: DD) -> DD:
    """Three quotient digits, each the high part of the remainder over y[0],
    summed as (q1 + q2) + q3.  ZeroDivisionError where y[0] is 0."""
    q1 = x[0] / y[0]
    r = dd_sub(x, dd_mul(y, (q1, 0.0)))
    q2 = r[0] / y[0]
    r = dd_sub(r, dd_mul(y, (q2, 0.0)))
    q3 = r[0] / y[0]
    s = q1 + q2
    return dd_add((s, q2 - (s - q1)), (q3, 0.0))


def dd_npow(x: DD, k: int) -> DD:
    """Integer power by binary exponentiation."""
    if k < 0:
        return dd_div(dd(1.0), dd_npow(x, -k))
    result = dd(1.0)
    base = x
    while k:
        if k & 1:
            result = dd_mul(result, base)
        base = dd_mul(base, base)
        k >>= 1
    return result


def dd_sqrt(x: DD) -> DD:
    # one Newton step lifts the float64 root s to full dd precision
    if 0.0 < x[0] < 1e-200:
        # x - s*s would go subnormal: the root of x * 2**700, scaled exactly
        h, lo = dd_sqrt((x[0] * 2.0 ** 700, x[1] * 2.0 ** 700))
        return (h * 2.0 ** -350, lo * 2.0 ** -350)
    s = math.sqrt(x[0])
    r = dd_sub(x, dd_mul((s, 0.0), (s, 0.0)))
    return dd_add((s, 0.0), (r[0] / (2.0 * s), 0.0))


_LN2 = (0.6931471805599453, 2.3190468138462996e-17)
# the weights 1/(2m+1), m = 1..100, of dd_log's atanh series, and the
# Horner coefficients 1/k!, k = 11 down to 1, of expm1(r)/r: floats down to
# k = 6, then dd
_INV_ODD = tuple(dd_from_ratio(1, 2 * m + 1) for m in range(1, 101))
_INV_FACT_FLOAT = tuple(1.0 / math.factorial(k) for k in range(11, 5, -1))
_INV_FACT = tuple(dd_from_ratio(1, math.factorial(k)) for k in range(5, 0, -1))


def dd_log(y: DD) -> DD:
    """log(y) for y > 0: y = 2**k f with f in [1/sqrt2, sqrt2), so k = 0
    near 1, and log y = k log 2 + log f, log f by the atanh series."""
    if y[0] <= 0.0:
        raise ValueError("dd_log: nonpositive argument")
    f, k = math.frexp(y[0])
    if f < 0.7071067811865476:
        k -= 1
    if k:
        y = (math.ldexp(y[0], -k), math.ldexp(y[1], -k))
    # log f = 2*sum z^(2m+1)/(2m+1), z = (f-1)/(f+1), |z| <= 0.172
    z = dd_div(dd_sub(y, dd(1.0)), dd_add(y, dd(1.0)))
    z2 = dd_mul(z, z)
    power = total = z
    weights = iter(_INV_ODD)
    for c in weights:
        power = dd_mul(power, z2)
        inc = dd_mul(power, c)
        total = dd_add(total, inc)
        if abs(inc[0]) <= 1e-18 * abs(total[0]):
            break
    # the later terms in float: their rounding stays below 1e-33 of the total
    tail, p = 0.0, power[0]
    for c in weights:
        p *= z2[0]
        inc = p * c[0]
        tail += inc
        if abs(inc) <= 1e-35 * abs(total[0]):
            break
    # the total plus the tail (a quick two-sum), doubled
    lo = total[1] + tail
    hi = total[0] + lo
    total = (hi, lo - (hi - total[0]))
    total = dd_add(total, total)
    if k:
        total = dd_add(dd_mul(_LN2, dd(k)), total)
    return total


def _expm1_reduced(r: DD) -> DD:
    """expm1(r) for |r| < 1/2: r scaled by 2**-j to below 2**-10 (j <= 9
    for r != 0), expm1(r)/r by Horner's rule on 1/k!, k = 11 down to 1,
    then j doublings em <- 2 em + em**2.  The Horner steps down to k = 6
    are float: their part of expm1(r)/r is below 1.2e-18, so its float
    rounding stays below 1e-33 of it."""
    j = math.frexp(r[0])[1] + 10
    if j > 0:
        r = (math.ldexp(r[0], -j), math.ldexp(r[1], -j))
    s = 0.0
    for c in _INV_FACT_FLOAT:
        s = s * r[0] + c
    s = dd(s)
    for c in _INV_FACT:
        s = dd_add(dd_mul(s, r), c)
    em = dd_mul(s, r)
    for _ in range(j):
        em = dd_add((2.0 * em[0], 2.0 * em[1]), dd_mul(em, em))
    return em


def _exp_parts(u: DD):
    """(e**r, m), e**u = 2**m e**r, r = u - m log 2, |r| <= log(2)/2:
    dd_exp short of its ldexp."""
    m = round(u[0] / 0.6931471805599453)
    r = dd_sub(u, dd_mul(_LN2, dd(m)))
    return dd_add(_expm1_reduced(r), dd(1.0)), m


def dd_exp(u: DD) -> DD:
    (hi, lo), m = _exp_parts(u)
    return (math.ldexp(hi, m), math.ldexp(lo, m))


def dd_expm1(u: DD) -> DD:
    if abs(u[0]) < 0.2:
        # no log 2 step: full relative accuracy through the cancellation
        return _expm1_reduced(u)
    return dd_sub(dd_exp(u), dd(1.0))


class BoundedSum:
    """A dd total, started from (term, err) pairs, and a running bound on its
    error: each call adds err, in units U of its term or factor, and its rounding."""

    __slots__ = ("total", "bound")

    def __init__(self, *terms):
        self.total, self.bound = dd(0.0), 0.0
        for term, err in terms:
            self.add(term, err)

    def add(self, term: DD, err: float = 0.0):
        b = term[0]
        self.bound += (err + 1.0) * abs(b) * U
        # dd_add(self.total, term), written out
        a, a1 = self.total
        s = a + b
        bb = s - a
        e = (a - (s - bb)) + (b - bb) + (a1 + term[1])
        hi = s + e
        self.total = (hi, e - (hi - s))

    def add_sum(self, other: "BoundedSum"):
        self.add(other.total)
        self.bound += other.bound

    def mul(self, factor: DD, err: float = 0.0):
        self.total = dd_mul(factor, self.total)
        self.bound = abs(factor[0]) * self.bound + (err + 1.0) * abs(self.total[0]) * U

    def div(self, divisor: DD, err: float = 0.0):
        self.total = dd_div(self.total, divisor)
        self.bound = self.bound / abs(divisor[0]) + (err + 1.0) * abs(self.total[0]) * U


def power_integral_dd(shift: int, n: float, one_minus_x: DD, log_1mx: DD) -> DD:
    """Integral of s**(shift - n) over [1-x, 1] in dd.

    shift is an integer loop index; n is the real series parameter.  The
    combined exponent w = shift - n + 1 is held as a dd built from exact
    parts so that a non-dyadic n costs no precision.  Only an exactly
    integral w takes the polynomial form (the log at w = 0); any other w,
    however close to an integer, goes through expm1, which keeps full
    relative accuracy for small w * log(1-x).  No closed form calls it now
    (hypergeom._eq_general sums all its integrals at once).
    """
    w = dd_add(dd_from_ratio(shift + 1, 1), dd(-n))
    if w[1] == 0.0 and w[0].is_integer():
        wi = int(w[0])
        if wi == 0:
            return dd_neg(log_1mx)
        pw = dd_npow(one_minus_x, wi)
        return dd_div(dd_sub(dd(1.0), pw), dd_from_ratio(wi, 1))
    arg = dd_mul(w, log_1mx)
    return dd_div(dd_neg(dd_expm1(arg)), w)


class ClosedFormContext:
    """The pieces the closed forms and Li_k at one x are built from, each
    formed once per x: 1-x, log(1-x), mu = log x and log(-mu), and the
    tables of x**k, (1-x)**k and mu**k.  context(x) hands out one instance
    per x, shared by hypergeom's closed forms, mkz's closed moments,
    basis.combo_eval and polylog's double-double series.

    The power tables grow by one dd_mul per power, which rounds differently
    from binary powering (dd_npow): callers that use dd_npow keep it.  A
    table entry k is off by at most k units U, log and mu by one.

    Threads share an instance, so a table grows under a lock: two unlocked
    growths could both append the same power.  An entry never changes once
    appended, so reading one takes no lock; a race on a cached value forms
    the same value twice.  No value depends on what was asked for before it.
    """

    def __init__(self, x: float):
        self.x = x
        self.omx = dd_sub(dd(1.0), dd(x))  # exact: two_sum of representables
        self._xpows = [dd(1.0)]
        self._ompows = [dd(1.0)]
        self._mupows = [dd(1.0)]
        self._lock = threading.Lock()

    @cached_property
    def log(self) -> DD:
        """log(1-x), formed on first read: forms without a log term skip it."""
        return dd_log(self.omx)

    @cached_property
    def mu(self) -> DD:
        """log x, for the Li_k series around x = 1."""
        return dd_log(dd(self.x))

    @cached_property
    def log_neg_mu(self) -> DD:
        return dd_log(dd_neg(self.mu))

    def xpows(self, top: int) -> list:
        """x**k for k = 0..top; the list may run longer."""
        return self._grow(self._xpows, dd(self.x), top)

    def ompows(self, top: int) -> list:
        """(1-x)**k for k = 0..top; the list may run longer."""
        return self._grow(self._ompows, self.omx, top)

    def mupows(self, top: int) -> list:
        """mu**k for k = 0..top; the list may run longer."""
        return self._grow(self._mupows, self.mu, top)

    def _grow(self, pows: list, base: DD, top: int) -> list:
        if top >= len(pows):
            with self._lock:
                while len(pows) <= top:
                    pows.append(dd_mul(pows[-1], base))
        return pows


@lru_cache(maxsize=32)
def context(x: float) -> ClosedFormContext:
    """The one ClosedFormContext for x.  The calls at one x arrive together
    (the orders of one kernel combo or moment, the leaves of one Heun sum),
    so a few x suffice."""
    return ClosedFormContext(x)
