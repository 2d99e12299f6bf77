"""Internal double-double arithmetic.

The closed-form evaluators assemble sums whose terms are many orders of
magnitude larger than the result (the x**(1-p) prefactors amplify whatever
cancellation noise the summation leaves behind).  Plain float64 loses up to
15 digits there, so every closed form accumulates in double-double (~31
significant digits) and rounds once at the very end.

Representation: a pair (hi, lo) of floats with hi = fl(hi + lo) and
|lo| <= ulp(hi)/2.  Algorithms are the classic error-free transformations
(Dekker, Knuth); products use Dekker splitting because math.fma is not
available on the oldest supported interpreter.

All per-x state lives here: context(x), a small memo, hands out the one
ClosedFormContext for x, which forms log(1-x), log x, the power tables and
the power integrals once and shares them between every caller at that x.
"""

from __future__ import annotations

import math
import threading
from functools import cached_property, lru_cache

_SPLIT = 134217729.0  # 2**27 + 1

DD = tuple  # (hi, lo)


def _two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a: float, b: float):
    # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def _two_prod(a: float, b: float):
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


def dd_to_float(x: DD) -> float:
    return x[0] + x[1]


def dd_add(x: DD, y: DD) -> DD:
    s, e = _two_sum(x[0], y[0])
    e += x[1] + y[1]
    return _quick_two_sum(s, e)


def dd_neg(x: DD) -> DD:
    return (-x[0], -x[1])


def dd_sub(x: DD, y: DD) -> DD:
    return dd_add(x, dd_neg(y))


def dd_mul(x: DD, y: DD) -> DD:
    p, e = _two_prod(x[0], y[0])
    e += x[0] * y[1] + x[1] * y[0]
    return _quick_two_sum(p, e)


def dd_div(x: DD, y: DD) -> DD:
    q1 = x[0] / y[0]
    r = dd_sub(x, dd_mul(y, dd(q1)))
    q2 = r[0] / y[0]
    r = dd_sub(r, dd_mul(y, dd(q2)))
    q3 = r[0] / y[0]
    s, e = _quick_two_sum(q1, q2)
    return dd_add((s, e), dd(q3))


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
    s = math.sqrt(x[0])
    sd = dd(s)
    # one Newton step lifts the float64 root to full dd precision
    r = dd_sub(x, dd_mul(sd, sd))
    return dd_add(sd, dd(r[0] / (2.0 * s)))


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
    z2 = dd_mul(z, z)
    term = z
    total = z
    m = 1
    while True:
        term = dd_mul(term, z2)
        m += 2
        inc = dd_div(term, dd(float(m)))
        total = dd_add(total, inc)
        if abs(inc[0]) <= 1e-35 * abs(total[0]) or m > 200:
            break
    total = dd_add(total, total)
    return (math.ldexp(total[0], halvings), math.ldexp(total[1], halvings))


_LN2 = (0.6931471805599453, 2.3190468138462996e-17)


def dd_exp(u: DD) -> DD:
    m = round(u[0] / 0.6931471805599453)
    r = dd_sub(u, dd_mul(_LN2, dd(float(m))))
    term = dd(1.0)
    total = dd(1.0)
    k = 0
    while True:
        k += 1
        term = dd_div(dd_mul(term, r), dd(float(k)))
        total = dd_add(total, term)
        if abs(term[0]) <= 1e-35 * abs(total[0]) or k > 60:
            break
    return (math.ldexp(total[0], m), math.ldexp(total[1], m))


def dd_expm1(u: DD) -> DD:
    if abs(u[0]) < 0.2:
        # direct Taylor keeps full relative accuracy through the cancellation
        term = dd(1.0)
        total = dd(0.0)
        k = 0
        while True:
            k += 1
            term = dd_div(dd_mul(term, u), dd(float(k)))
            total = dd_add(total, term)
            # the absolute floor lets u == 0 terminate
            if abs(term[0]) <= 1e-35 * abs(total[0]) + 1e-320 or k > 60:
                break
        return total
    return dd_sub(dd_exp(u), dd(1.0))


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
    form pays one dd_exp per (x, n) where it paid one per shift.

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

    def pow_ratio(self, i: int) -> DD:
        """(1 - (1-x)**i) / (1-x)**i from the 1-x power table."""
        pw = self.ompows(i)[i]
        return dd_div(dd_sub(dd(1.0), pw), pw)

    def _base(self, n: float):
        """(1-x)**(1-n), memoized by n; None above 2**996."""
        if n not in self._bases:
            u = dd_mul(dd_add(dd(1.0), dd(-n)), self.log)
            self._bases[n] = dd_exp(u) if u[0] <= _BASE_LOG_MAX else None
        return self._bases[n]

    def power_integral(self, shift: int, n: float) -> DD:
        """power_integral_dd(shift, n) at this x, memoized by (shift, n).

        Where the per-n base is used the value agrees with power_integral_dd
        to ~1e-28 relative, not bit for bit.
        """
        key = (shift, n)
        if key not in self._integrals:
            self._integrals[key] = self._power_integral(shift, n)
        return self._integrals[key]

    def _power_integral(self, shift: int, n: float) -> DD:
        w = dd_add(dd_from_int(shift + 1), dd(-n))
        if not (w[1] == 0.0 and w[0].is_integer()) \
                and abs(w[0] * self.log[0]) >= _EXPM1_BELOW:
            base = self._base(n)
            omp = self.ompows(shift)[shift]
            if base is not None and omp[0] >= _POW_MIN:
                pw = dd_mul(base, omp)
                return dd_div(dd_sub(dd(1.0), pw), w)
        return power_integral_dd(shift, n, self.omx, self.log)


@lru_cache(maxsize=32)
def context(x: float) -> ClosedFormContext:
    """The one ClosedFormContext for x.  The calls at one x arrive together
    (the orders of one kernel combo or moment, the leaves of one Heun sum),
    so a few x suffice."""
    return ClosedFormContext(x)
