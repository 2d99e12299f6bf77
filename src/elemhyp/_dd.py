"""Internal double-double arithmetic.

The closed-form evaluators assemble sums whose terms are many orders of
magnitude larger than the result (the x**(1-p) prefactors amplify whatever
cancellation noise the summation leaves behind).  Plain float64 loses up to
15 digits there, so every closed form accumulates in double-double (~31
significant digits) and rounds once at the very end.

Representation: a pair (hi, lo) of floats with hi = fl(hi + lo) and
|lo| <= ulp(hi)/2.  Algorithms are the classic error-free transformations
(Dekker, Knuth); products use Dekker splitting because math.fma arrived only
in Python 3.13 and 3.10 is supported.

The primitives are flat: dd_add, dd_sub, dd_mul and dd_div each write out
the two-sum, the split two-product and the quick-two-sum renormalization in
one function body, and dd_div its three quotient digits, because in pure
Python a call costs more than the float arithmetic it wraps.  They do the
float operations of the composed forms (Dekker, "A floating-point technique
for extending the available precision", 1971), in the same order, so every
value, and the sign of every zero, is the composed form's; the tests keep
the composed forms as the reference.  The series of dd_log, dd_exp and
dd_expm1, dd_sqrt and BoundedSum.add write their hot operations out the
same way.

All per-x state lives here: context(x), a small memo, hands out the one
ClosedFormContext for x, which forms log(1-x), log x, the power tables and
the power integrals once and shares them between every caller at that x.
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


def _two_prod(a: float, b: float):
    """a*b as p + err exactly (Dekker), for |a|, |b| below ~1.3e300."""
    p = a * b
    ta = _SPLIT * a
    ahi = ta - (ta - a)
    alo = a - ahi
    tb = _SPLIT * b
    bhi = tb - (tb - b)
    blo = b - bhi
    err = ((ahi * bhi - p) + ahi * blo + alo * bhi) + alo * blo
    return p, err


def dd(x: float) -> DD:
    """Exact embedding of a float."""
    return (float(x), 0.0)


def dd_from_int(i: int) -> DD:
    """Exact for |i| < 2**106; relative error ~1e-32 beyond."""
    hi = float(i)
    lo = float(i - int(hi))
    return (hi, lo)


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
# (1/4), and one per value of dd_log, dd_expm1 or polylog._polylog_dd, or of
# dd_exp(u) with |u| more: their largest errors seen are 3.9, 0.9, 1.8 and
# 1 + |u| units, which the full unit counted for every operation absorbs, as
# the tests' sweeps against mpmath check.  A value is kept only where its
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
    # dd_add(x, dd_neg(y)), as a - b is a + (-b) in IEEE arithmetic
    a = x[0]
    b = -y[0]
    s = a + b
    bb = s - a
    e = (a - (s - bb)) + (b - bb) + (x[1] - y[1])
    hi = s + e
    return (hi, e - (hi - s))


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
    """Three quotient digits, each the high part of the remainder over y[0]:
    q1 = x/y, then r = x - y*q1 and q2 = r/y, then r = r - y*q2 and q3 = r/y,
    each product and difference in dd, summed as (q1 + q2) + q3.  y is split
    once.  The composed form also adds y[0] * 0.0 (the digit's zero low part
    times y's high part) and lo + 0.0 (q3's zero low part): both are zeros
    added to a two-product or two-sum error term, and in round-to-nearest no
    such error term is -0.0, so a zero of either sign leaves it bit for bit
    as it is.  ZeroDivisionError where y[0] is 0."""
    y0 = y[0]
    y1 = y[1]
    r0 = x[0]
    q1 = r0 / y0
    t = _SPLIT * y0
    yhi = t - (t - y0)
    ylo = y0 - yhi
    # r = x - y*q1
    p = y0 * q1
    t = _SPLIT * q1
    qhi = t - (t - q1)
    qlo = q1 - qhi
    e = ((yhi * qhi - p) + yhi * qlo + ylo * qhi) + ylo * qlo + y1 * q1
    mhi = p + e
    mlo = e - (mhi - p)
    b = -mhi
    s = r0 + b
    bb = s - r0
    e = (r0 - (s - bb)) + (b - bb) + (x[1] - mlo)
    r0 = s + e
    r1 = e - (r0 - s)
    q2 = r0 / y0
    # r = r - y*q2, of which q3 needs only the high part
    p = y0 * q2
    t = _SPLIT * q2
    qhi = t - (t - q2)
    qlo = q2 - qhi
    e = ((yhi * qhi - p) + yhi * qlo + ylo * qhi) + ylo * qlo + y1 * q2
    mhi = p + e
    mlo = e - (mhi - p)
    b = -mhi
    s = r0 + b
    bb = s - r0
    q3 = (s + ((r0 - (s - bb)) + (b - bb) + (r1 - mlo))) / y0
    # (q1 + q2) by quick-two-sum, then q3 added by dd_add
    s = q1 + q2
    lo = q2 - (s - q1)
    a = s + q3
    bb = a - s
    e = (s - (a - bb)) + (q3 - bb) + lo
    hi = a + e
    return (hi, e - (hi - a))


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
    # one Newton step lifts the float64 root s to full dd precision:
    # s + (x - s*s)[0] / 2s, its dd_mul, dd_sub and dd_add written out.  The
    # terms with s's zero low part are +0.0 for every finite s.
    s = math.sqrt(x[0])
    p = s * s
    t = _SPLIT * s
    shi = t - (t - s)
    slo = s - shi
    e = ((shi * shi - p) + shi * slo + slo * shi) + slo * slo + 0.0
    sq = p + e
    a = x[0]
    b = -sq
    r = a + b
    bb = r - a
    q = (r + ((a - (r - bb)) + (b - bb) + (x[1] - (e - (sq - p))))) / (2.0 * s)
    a = s + q
    bb = a - s
    e = (s - (a - bb)) + (q - bb) + 0.0
    hi = a + e
    return (hi, e - (hi - a))


def dd_log(y: DD) -> DD:
    """log(y) for y > 0; callers pass y = 1-x with x in (0,1)."""
    if y[0] <= 0.0:
        raise ValueError("dd_log: nonpositive argument")
    halvings = 0
    while abs(y[0] - 1.0) > 0.1716:
        y = dd_sqrt(y)
        halvings += 1
    # atanh series: log y = 2*sum z^(2m+1)/(2m+1), z = (y-1)/(y+1), |z| <= 0.086
    z = dd_div(dd_sub(y, dd(1.0)), dd_add(y, dd(1.0)))
    z0, z1 = dd_mul(z, z)
    t = _SPLIT * z0
    zhi = t - (t - z0)
    zlo = z0 - zhi
    a, a1 = z  # the power z^m
    s0, s1 = z  # the total
    m = 1
    while True:
        # dd_mul of the power by z*z (split once) and dd_add of the
        # increment, written out
        p = a * z0
        t = _SPLIT * a
        ahi = t - (t - a)
        alo = a - ahi
        e = ((ahi * zhi - p) + ahi * zlo + alo * zhi) + alo * zlo + (a * z1 + a1 * z0)
        a = p + e
        a1 = e - (a - p)
        m += 2
        i0, i1 = dd_div((a, a1), dd(float(m)))
        s = s0 + i0
        bb = s - s0
        e = (s0 - (s - bb)) + (i0 - bb) + (s1 + i1)
        s0 = s + e
        s1 = e - (s0 - s)
        if abs(i0) <= 1e-35 * abs(s0) or m > 200:
            break
    total = dd_add((s0, s1), (s0, s1))
    return (math.ldexp(total[0], halvings), math.ldexp(total[1], halvings))


_LN2 = (0.6931471805599453, 2.3190468138462996e-17)


def _exp_series(r: DD, total: DD) -> DD:
    """total + sum_{k>=1} r**k / k!, each term the last times r over k, up
    to the first term within 1e-35 of the total (1e-320 absolute, so r = 0
    stops) or k = 61.  The dd_mul by r (split once) and the dd_add are
    written out."""
    r0, r1 = r
    t = _SPLIT * r0
    rhi = t - (t - r0)
    rlo = r0 - rhi
    a, a1 = 1.0, 0.0  # the term
    s0, s1 = total
    k = 0
    while True:
        k += 1
        p = a * r0
        t = _SPLIT * a
        ahi = t - (t - a)
        alo = a - ahi
        e = ((ahi * rhi - p) + ahi * rlo + alo * rhi) + alo * rlo + (a * r1 + a1 * r0)
        a = p + e
        a, a1 = dd_div((a, e - (a - p)), dd(float(k)))
        s = s0 + a
        bb = s - s0
        e = (s0 - (s - bb)) + (a - bb) + (s1 + a1)
        s0 = s + e
        s1 = e - (s0 - s)
        if abs(a) <= 1e-35 * abs(s0) + 1e-320 or k > 60:
            break
    return (s0, s1)


def dd_exp(u: DD) -> DD:
    # e**u = 2**m e**r, |r| <= log(2)/2; the floor of _exp_series's stop
    # test is far below 1e-35 of its total, which stays above 0.6 here
    m = round(u[0] / 0.6931471805599453)
    total = _exp_series(dd_sub(u, dd_mul(_LN2, dd(float(m)))), dd(1.0))
    return (math.ldexp(total[0], m), math.ldexp(total[1], m))


def dd_expm1(u: DD) -> DD:
    if abs(u[0]) < 0.2:
        # direct Taylor keeps full relative accuracy through the cancellation
        return _exp_series(u, dd(0.0))
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
    relative accuracy for small w * log(1-x).
    """
    w = dd_add(dd_from_int(shift + 1), dd(-n))
    if w[1] == 0.0 and w[0].is_integer():
        wi = int(w[0])
        if wi == 0:
            return dd_neg(log_1mx)
        pw = dd_npow(one_minus_x, wi)
        return dd_div(dd_sub(dd(1.0), pw), dd_from_int(wi))
    arg = dd_mul(w, log_1mx)
    return dd_div(dd_neg(dd_expm1(arg)), w)


# Below this |w * log(1-x)|, 1 - (1-x)**w cancels enough that the power
# integral keeps power_integral_dd's expm1 form; from it up, 1 - (1-x)**w
# loses at most a factor 1/(1 - e**-0.5) ~ 2.5 and the power comes from the
# per-n base.
_EXPM1_BELOW = 0.5

# dd_mul's Dekker split overflows for a factor above ~1.3e300, and a power
# table entry below 2**-916 has a subnormal lo part.  A base above 2**996 or
# such an entry sends the shift to power_integral_dd, so the per-n base
# reaches no value, and loses no digit, that the per-shift dd_exp did not.
_BASE_LOG_MAX = 996 * math.log(2.0)
_POW_MIN = 2.0 ** -916


class ClosedFormContext:
    """The pieces the closed forms and Li_k at one x are built from, each
    formed once per x: 1-x, log(1-x), mu = log x and log(-mu), the tables
    of x**k, (1-x)**k and mu**k, and the power integrals.  context(x) hands
    out one instance per x, shared by hypergeom's closed forms, mkz's closed
    moments, basis.combo_eval and polylog's double-double series.

    The power tables grow by one dd_mul per power, which rounds differently
    from binary powering (dd_npow): callers that use dd_npow keep it.  A
    power integral with a non-integral exponent w = shift+1-n and
    |w log(1-x)| >= _EXPM1_BELOW takes (1-x)**w as one dd_exp per n,
    (1-x)**(1-n), times (1-x)**shift from the power table, so the general
    form pays one dd_exp per (x, n) where it paid one per shift.  A table
    entry k is off by at most k units U, log and mu by one, and
    power_integral returns its own error.

    Threads share an instance, so a table grows under a lock: two unlocked
    growths could both append the same power.  An entry never changes once
    appended, so reading one takes no lock; a race on a memoized value
    forms the same value twice.  No value depends on what was asked for
    before it.
    """

    def __init__(self, x: float):
        self.x = x
        self.omx = dd_sub(dd(1.0), dd(x))  # exact: two_sum of representables
        self._xpows = [dd(1.0)]
        self._ompows = [dd(1.0)]
        self._mupows = [dd(1.0)]
        self._integrals = {}
        self._bases = {}
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

    def _base(self, n: float):
        """(1-x)**(1-n), memoized by n; None above 2**996."""
        if n not in self._bases:
            u = dd_mul(dd_add(dd(1.0), dd(-n)), self.log)
            self._bases[n] = dd_exp(u) if u[0] <= _BASE_LOG_MAX else None
        return self._bases[n]

    def power_integral(self, shift: int, n: float):
        """power_integral_dd(shift, n) at this x and its relative error in
        units U, memoized by (shift, n).  Where the per-n base is used the
        value agrees with power_integral_dd to ~1e-28, not bit for bit."""
        key = (shift, n)
        if key not in self._integrals:
            self._integrals[key] = self._power_integral(shift, n)
        return self._integrals[key]

    def _power_integral(self, shift: int, n: float):
        """Each form is (1 - P) / w: P = (1-x)**w is an integer power, or an
        exp (1 + |u| units) whose argument u carries two more (log(1-x), the
        product), so 1 + 3|u|.  1 - P scales P's error by |P| / |1 - P| and
        rounds by U (1 + |P|); the division by the exact w adds one unit."""
        w = dd_add(dd_from_int(shift + 1), dd(-n))
        a = abs(w[0] * self.log[0])
        integral = w[1] == 0.0 and w[0].is_integer()
        value = None
        if not integral and a >= _EXPM1_BELOW:
            base = self._base(n)
            omp = self.ompows(shift)[shift]
            if base is not None and omp[0] >= _POW_MIN:
                pw = dd_mul(base, omp)
                value = dd_div(dd_sub(dd(1.0), pw), w)
                p_err = 3.0 * abs((1.0 - n) * self.log[0]) + shift + 2.0  # base times table
        if value is None:
            value = power_integral_dd(shift, n, self.omx, self.log)
            if integral and w[0] == 0.0:
                return value, 1.0
            # binary powering: a unit per unit of exponent, one to invert
            p_err = abs(w[0]) + (w[0] < 0.0) if integral else 1.0 + 3.0 * a
        d = w[0] * value[0]  # 1 - P, 0 where P rounds to 1: no relative bound
        return value, ((p_err + 1.0) * abs(1.0 - d) + 1.0) / abs(d) + 1.0 if d else math.inf


@lru_cache(maxsize=32)
def context(x: float) -> ClosedFormContext:
    """The one ClosedFormContext for x.  The calls at one x arrive together
    (the orders of one kernel combo or moment, the leaves of one Heun sum),
    so a few x suffice."""
    return ClosedFormContext(x)
