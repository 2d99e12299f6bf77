"""mpmath reference values for every benchmark operation.

The oracles share no code with elemhyp.  Floats enter exactly (mpf of a
float is exact) and every value is computed with at least 40 significant
digits of working precision, more where a route cancels.

Operator moments all have the form

    (1-x)**N * sum_k C(N+k-1, k) x**k ((k+b)/(k+c))**m

which is summed directly, in exact integer fixed point, for x < 0.99.  Closer to 1 the direct sum needs
about 1/(1-x) terms, so there the sum is rewritten exactly, for integer c,
as a combination of polylogarithms Li_s(x) of integer order s (negative
orders are rational functions), which mpmath evaluates quickly near 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp, mpf

DPS = 40          # significant digits of every oracle value
_LERCH_DPS = 140  # the polylog rewrite cancels up to ~70 digits near x = 1
_NEAR_ONE = 0.99


def hyp2f1(m, n, p, x):
    with mp.workdps(DPS):
        return mpmath.hyp2f1(m, mpf(n), p, mpf(x))


_BITS = 480  # fixed-point fraction bits of the direct sums


def _direct(N, weight, x):
    """(1-x)**N sum_k C(N+k-1,k) x**k weight(k), in exact integer fixed point.

    weight(k) returns an exact (numerator, denominator) pair.  Every step
    truncates by less than 2**-480, so the absolute error stays far below
    any value the moments take (the smallest are around 1e-40).
    """
    xn, xd = x.as_integer_ratio()
    w = ((xd - xn) ** N << _BITS) // xd ** N
    total = 0
    k = 0
    while True:
        num, den = weight(k)
        total += w * num // den
        if k > N and w << 160 < total:   # tail below 2**-160 of the sum
            return mpf(total) / mpf(2) ** _BITS
        w = w * (N + k) * xn // ((k + 1) * xd)
        k += 1


@lru_cache(maxsize=None)
def _li(s, x_float):
    return mpmath.polylog(s, mpf(x_float))


def _lerch(N, b, c, m, x):
    """The same sum near x = 1, through polylogarithms of integer order."""
    xf = x
    x = mpf(x)
    b = mpf(b)
    # C(N+k-1, k) as a polynomial in u = k + c: prod_{t=1}^{N-1} (u - c + t) / (N-1)!
    poly = [mpf(1)]
    for t in range(1, N):
        shift = t - c
        nxt = [mpf(0)] * (len(poly) + 1)
        for i, a in enumerate(poly):
            nxt[i + 1] += a
            nxt[i] += a * shift
        poly = nxt
    fact = math.factorial(N - 1)
    # (k+b)**m = (u + (b-c))**m
    d = b - c
    binom = [mpmath.binomial(m, l) * d ** (m - l) for l in range(m + 1)]
    total = mpf(0)
    for i, qi in enumerate(poly):
        if not qi:
            continue
        for l, bl in enumerate(binom):
            s = i + l - m   # exponent of u
            # sum_{u >= c} x**u u**s = Li_{-s}(x) - sum_{u=1}^{c-1} x**u u**s
            head = sum(x ** u * mpf(u) ** s for u in range(1, c))
            total += qi * bl * (_li(-s, xf) - head)
    return (1 - x) ** N * total / fact / x ** c


def neg_binomial_moment(N, b, c, m, x):
    """(1-x)**N sum_k C(N+k-1,k) x**k ((k+b)/(k+c))**m at 40 digits."""
    if x >= _NEAR_ONE:
        if c != int(c):
            raise ValueError("near-1 route needs an integer c")
        with mp.workdps(_LERCH_DPS):
            v = _lerch(N, b, int(c), m, x)
    else:
        bn, bd = Fraction(b).as_integer_ratio()
        with mp.workdps(DPS + 10):
            v = _direct(N, lambda k: ((k * bd + bn) ** m, ((k + c) * bd) ** m), x)
    with mp.workdps(DPS):
        return +v


def ln_moment_e2(n, x):
    """Second moment of L_n: (1-x)**(n+1) sum_k C(n+k,k) x**k k(k+1)/((n+k)(n+k+1))."""
    with mp.workdps(DPS + 10):
        v = _direct(n + 1, lambda k: (k * (k + 1), (n + k) * (n + k + 1)), x)
    with mp.workdps(DPS):
        return +v


def heun(m, n, p, x, K):
    """The truncated 2F1 expansion sum_{k<K} c_k 2F1(m, n; p+2k; x).

    c_0 = 1 and c_{k+1}/c_k is the family's Pochhammer ratio; a zero factor
    makes the product exactly zero, which ends terminating members.
    """
    with mp.workdps(DPS + 10):
        n = mpf(n)
        x = mpf(x)
        c = mpf(1)
        total = mpf(0)
        for k in range(K):
            if c == 0:
                break
            total += c * mpmath.hyp2f1(m, n, p + 2 * k, x)
            num = ((m + n - 1) / 2 + k) * (mpf(p - m) / 2 + k) * ((p - n) / 2 + k)
            den = (k + 1) * (mpf(p) / 2 + k) * (mpf(p + 1) / 2 + k)
            c *= num / den
    with mp.workdps(DPS):
        return +total


def value(op):
    """Reference value of one operation, as an mpf."""
    kind, a = op
    if kind == "hyp2f1":
        return hyp2f1(*a)
    if kind == "mkz":
        n, r, x = a
        return neg_binomial_moment(n + 1, 0, n, r, x)
    if kind == "abel":
        n, alpha, beta, m, x = a
        return neg_binomial_moment(n + alpha + 1, beta, n + alpha, m, x)
    if kind == "e1":
        n, r, alpha, beta, x = a
        return neg_binomial_moment(n + r, beta, n + alpha, 1, x)
    if kind == "apply":
        n, r, alpha, beta, m, x = a
        return neg_binomial_moment(n + r, beta, n + int(alpha), m, x)
    if kind == "ln2":
        return ln_moment_e2(*a)
    if kind == "heun":
        return heun(*a)
    raise ValueError(f"no oracle for {kind!r}")
