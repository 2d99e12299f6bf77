"""Seeded input generators for the benchmark workloads.

Every workload is a list of operations, each a JSON-ready pair
``[kind, args]``.  A seed and a length fix the list exactly.  The lists are
built from fixed-shape *rounds*: each round draws the same number of
operations from each stratum (x band, parameter class), and the parameters
that set the cost of a call are Latin-hypercube columns over the rounds.
That keeps the cost mix of one seed close to the cost mix of any other,
which is what lets the end-to-end metrics stay steady across seeds while
the inputs themselves still change.

The pinned reproducers (documented defects) open every list, so every run
attempts them whatever the speed of the program.

Warm-up operations are fixed, use x values the generators never produce,
and run before timing so each timed run starts from the same cache state.
"""

from __future__ import annotations

import random

WORKLOADS = ("hyp2f1-grid", "moments", "heun")

# A timed run calls a fixed number of operations, OPS_PER_SECOND * seconds
# plus the pinned ones, so that the same seed always attempts the same
# operations and the count of failures repeats exactly.  The rates are about
# what the current code completes per second at the reference speed of
# calib.py, so a run lasts about the seconds asked for.
OPS_PER_SECOND = {"hyp2f1-grid": 50, "moments": 66, "heun": 40}

# Operations per round of each generator.
_ROUND_SIZE = {"hyp2f1-grid": 25, "moments": 29, "heun": 10}

# x values reserved for warm-up; generated inputs never take them.
WARM_X = (0.3125, 0.6875, 0.0078125, 0.40625)

# Percentile reported as latency_tail_ms.  Fixed per workload so the metric
# means the same thing from run to run; each leaves at least ten samples
# beyond it in a run of 6 s or more.
TAIL_PERCENTILE = {"hyp2f1-grid": 95, "moments": 90, "heun": 95}

# Relative tolerance an operation must meet against the oracle.
REL_TOL = 1e-12

PINNED = {
    "hyp2f1-grid": [
        ["hyp2f1", [2, 0.5, 56, 0.4]],
        ["hyp2f1", [2, 0.5, 40, 0.4]],
        ["hyp2f1", [6, 7.0, 17, 0.05949987530913514]],
        ["hyp2f1", [3, 9.0, 14, 0.99999310]],
        ["hyp2f1", [3, 2.5, 8, 0.7]],
        ["hyp2f1", [3, 2.5, 8, 0.999]],
        ["hyp2f1", [3, 2.5, 8, 0.9999]],
    ],
    "moments": [
        ["mkz", [12, 10, 0.02]],
        ["mkz", [20, 12, 0.1]],
        ["abel", [10, 0, 0.0, 10, 0.05]],
    ],
    "heun": [
        ["heun", [2, 0.5, 40, 0.4, 2]],
        ["heun", [2, 0.5, 30, 0.45, 6]],
    ],
}

WARMUP = {
    "hyp2f1-grid": [
        ["hyp2f1", [1, 2.0, 5, WARM_X[0]]],
        ["hyp2f1", [1, 3.0, 7, WARM_X[0]]],
        ["hyp2f1", [1, 2.5, 6, WARM_X[1]]],
        ["hyp2f1", [3, 2.5, 8, WARM_X[1]]],
        ["hyp2f1", [2, -3.0, 5, WARM_X[0]]],
        ["hyp2f1", [2, 1.5, 4, WARM_X[2]]],
    ],
    "moments": [
        ["mkz", [3, 4, WARM_X[0]]],
        ["abel", [2, 1, 0.5, 3, WARM_X[0]]],
        ["e1", [2, 1, 1, 0.5, WARM_X[1]]],
        ["ln2", [3, WARM_X[1]]],
        ["apply", [2, 1, 0.0, 0.0, 2, WARM_X[0]]],
    ],
    "heun": [
        ["heun", [1, 2.0, 3, WARM_X[0], 4]],
        ["heun", [2, -1.0, 4, WARM_X[3], 4]],
        ["heun", [2, 0.5, 5, WARM_X[0], 3]],
    ],
    # the traced run's in-process cli.main calls
    "cli": [
        ["cli", ["hyp2f1", "--m", "1", "--n", "2", "--p", "3", "--x", repr(WARM_X[0])]],
    ],
}


def _spread(rng: random.Random, lo: float, hi: float, count: int) -> list:
    """count draws over [lo, hi], one in each equal sub-interval, shuffled."""
    width = (hi - lo) / count
    out = [lo + (i + rng.random()) * width for i in range(count)]
    rng.shuffle(out)
    return out


def _fresh(x: float) -> float:
    # generated x must stay disjoint from the warm-up x values
    return x if x not in WARM_X else x * (1.0 - 1e-15)


def _balanced(rng: random.Random, values, count: int) -> list:
    """count items cycling through values, shuffled: equal shares per round."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def _n_of(kind: int, sign: int, u: float) -> float:
    """n of the given kind and sign with |n| <= 20, from a uniform u in [0, 1)."""
    if kind == 0:
        return float(sign * (1 + int(20 * u)))
    if kind == 1:
        return sign * (int(20 * u) + 0.5)
    return sign * 20.0 * u


# The large-p slice: one operation per round.  Each m in 1..6 gets its own
# p range, paired so that m * (p - m)**2, which sets the closed-form cost,
# is about the same for every m; without this pairing the slice alone makes
# the run's throughput swing by tens of percent from seed to seed.
_SLICE_P = {1: (56, 60), 2: (46, 50), 3: (40, 44), 4: (34, 38), 5: (28, 32), 6: (22, 26)}


# x bands of hyp2f1-grid and their sizes per round: near 0 and near 1 are
# log-spaced in the distance to the edge.
_HYP_BANDS = (("lo", 6), ("mid", 12), ("hi", 6))


# (m, p - m) pairs, m <= 6 and p - m <= 12, in order of m * (p - m): the cost
# of a call grows with both about alike, so one column over this list draws
# their product evenly and each of m and p - m about evenly.
_M_OFFSETS = sorted(((m, off) for m in range(1, 7) for off in range(1, 13)),
                    key=lambda mo: (mo[0] * mo[1], mo))


def _hyp2f1_ops(rng: random.Random, rounds: int) -> list:
    """rounds rounds of 24 draws over three x bands plus one large-p slice
    operation.

    The cost of one call spans four decades and depends on the x band, the
    kind and sign of n, m and p - m, so the run's median sits where the
    cheap and the costly classes meet and moves with their shares.  Every
    round therefore holds the same slots: within a band, slot j has n of
    kind j % 3 (integer, half-integer, real) and sign + or - by (j // 3) % 2,
    and each slot's x within the band, (m, p - m) and |n| are
    Latin-hypercube columns over the rounds.

    The slice's m and x band (one of six equal parts of [0.45, 0.95]) come
    from per-cycle permutations, so every six rounds cover each m and each
    band once, and its p, x within the band and n are columns too.  The
    slice's n is never an integer and its x is high enough for the closed
    forms to be tried, so its cost depends on m and p alone.
    """
    col = _Columns(rng, rounds)
    ops = []
    for i in range(rounds):
        if i % 6 == 0:
            ms, bands = rng.sample(range(1, 7), 6), rng.sample(range(6), 6)
        round_ops = []
        for band, size in _HYP_BANDS:
            for j in range(size):
                def u(name):
                    return col.u((band, j, name), i)
                kind, sign = j % 3, 1 - 2 * ((j // 3) % 2)
                if band == "mid":
                    x = 0.05 + 0.9 * u("x")
                else:
                    x = 10.0 ** (-6.0 + 4.7 * u("x"))
                    x = x if band == "lo" else 1.0 - x
                m, off = _M_OFFSETS[col.int((band, j, "m_off"), i, 0, len(_M_OFFSETS) - 1)]
                n = _n_of(kind, sign, u("n"))
                round_ops.append(["hyp2f1", [m, n, m + off, _fresh(x)]])
        m, band = ms[i % 6], bands[i % 6]
        x = 0.45 + (band + col.u("slice_x", i)) * 0.5 / 6
        n = _n_of(1 + band % 2, 1 if col.u("slice_sign", i) < 0.5 else -1, col.u("slice_n", i))
        p = _SLICE_P[m][0] + col.int("slice_p", i, 0, _SLICE_P[m][1] - _SLICE_P[m][0])
        round_ops.append(["hyp2f1", [m, n, p, _fresh(x)]])
        rng.shuffle(round_ops)
        ops += round_ops
    return ops


class _Columns:
    """Latin-hypercube columns over the rounds of one list.

    ``u(key, i)`` is round i's draw from column key: each column holds one
    uniform draw from each of ``rounds`` equal strata of [0, 1), shuffled, so
    every parameter drawn through it has nearly the same spread of values in
    every list, whatever the seed.
    """

    def __init__(self, rng: random.Random, rounds: int):
        self._rng = rng
        self._rounds = rounds
        self._cols = {}

    def u(self, key, i: int) -> float:
        if key not in self._cols:
            self._cols[key] = _spread(self._rng, 0.0, 1.0, self._rounds)
        return self._cols[key][i]

    def int(self, key, i: int, lo: int, hi: int) -> int:
        return lo + min(int(self.u(key, i) * (hi - lo + 1)), hi - lo)


def _moments_ops(rng: random.Random, rounds: int) -> list:
    """rounds rounds, each on one shared x pool: one x in [0.99, 0.999] and
    one in each quarter of [0.01, 0.98].

    Near 1 the cost grows like 1/(1-x) and with the moment order, so a few
    draws decide much of a run's time.  The near-1 x and mkz orders are
    stratified jointly (below), and every other parameter of every slot
    (x within its band, n, r, alpha, beta, the order) is a Latin-hypercube
    column over the rounds: the spread of costs is then about the same in
    every list.
    """
    col = _Columns(rng, rounds)
    # Near 1 a round's time is about C(r) / (1 - x), r the larger of its two
    # mkz orders there (the smaller one mostly hits the polylog cache).  So r
    # takes each of 1..6 in equal shares and x is spread evenly over the band
    # within each r: then each order's share of the run's time is about the
    # same in every list.
    orders = _balanced(rng, range(1, 7), rounds)
    near_u = [0.0] * rounds
    for r in range(1, 7):
        idx = [i for i in range(rounds) if orders[i] == r]
        for i, u in zip(idx, _spread(rng, 0.0, 1.0, len(idx)) if idx else ()):
            near_u[i] = u
    ops = []
    for i in range(rounds):
        pool = [1.0 - 10.0 ** (-3.0 + near_u[i])]
        pool += [0.01 + (q + col.u(("x", q), i)) * 0.97 / 4 for q in range(4)]
        round_ops = []
        for slot, x in enumerate(pool):
            x = _fresh(x)

            def draw(name, lo, hi):
                return col.int((slot, name), i, lo, hi)

            def share(name):
                return col.u((slot, name), i)

            if slot == 0:
                r, r2 = orders[i], draw("mkz_r2", 1, orders[i])
            else:
                r, r2 = draw("mkz_r", 1, 12), draw("mkz_r2", 1, 12)
            round_ops.append(["mkz", [draw("mkz_n", 1, 20), r, x]])
            round_ops.append(["mkz", [draw("mkz_n2", 1, 20), r2, x]])
            alpha = draw("abel_alpha", 0, 3)
            round_ops.append(["abel", [draw("abel_n", 1, 10), alpha, share("abel_beta") * alpha,
                                       draw("abel_m", 1, 10), x]])
            n, alpha = draw("e1_n", 1, 12), draw("e1_alpha", 0, 4)
            round_ops.append(["e1", [n, 1 - n + draw("e1_r", 0, n + 2), alpha,
                                     share("e1_beta") * alpha, x]])
            n, alpha = draw("apply_n", 1, 12), draw("apply_alpha", 0, 3)
            round_ops.append(["apply", [n, 1 - n + draw("apply_r", 0, n + 2), float(alpha),
                                        share("apply_beta") * alpha, draw("apply_m", 1, 8), x]])
            if x < 0.99:
                round_ops.append(["ln2", [draw("ln_n", 1, 20), x]])
        rng.shuffle(round_ops)
        ops += round_ops
    return ops


def _heun_member(rng: random.Random, terminating: bool, m: int):
    if terminating:
        r = rng.randint(1, 4)
        p = rng.randint(m + 1, m + 8)
        n = 3 - 2 * r - m
        if n == 0 or rng.random() < 0.5:
            n = p + 2 * r - 2
        return m, float(n), p, r
    n = rng.randint(-6, 5) + 0.5 if rng.random() < 0.5 else rng.uniform(-6.0, 6.0)
    return m, n, rng.randint(m + 1, m + 6), None


def _heun_round(rng: random.Random) -> list:
    """Two terminating members, five m = 1 members, three with m in {2, 3}.

    Each group gets its own spread of x over (0.01, 0.49), of K and of p,
    so that its cost, which grows with m, K, p and the share of leaves the
    closed forms take, is about the same in every round.  The m = 1 calls
    sit in the middle of the cost range, so the median latency falls inside
    that group rather than on the edge between two groups.
    """
    ops = []
    for x in _spread(rng, 0.01, 0.49, 2):
        m, n, p, r = _heun_member(rng, True, rng.randint(1, 3))
        ops.append(["heun", [m, n, p, _fresh(x), rng.randint(r, 12)]])
    for x, k in zip(_spread(rng, 0.01, 0.49, 5), _spread(rng, 4.0, 17.0, 5)):
        m, n, p, _ = _heun_member(rng, False, 1)
        ops.append(["heun", [m, n, p, _fresh(x), int(k)]])
    for x, k, off, m in zip(_spread(rng, 0.01, 0.49, 3), _spread(rng, 2.0, 8.0, 3),
                            _spread(rng, 1.0, 5.0, 3), _balanced(rng, (2, 3), 3)):
        _, n, _, _ = _heun_member(rng, False, m)
        ops.append(["heun", [m, n, m + int(off), _fresh(x), int(k)]])
    rng.shuffle(ops)
    return ops


def timed_count(workload: str, seconds: float) -> int:
    """Operations in a timed run of the given length: pinned plus generated."""
    return len(PINNED[workload]) + max(1, round(seconds * OPS_PER_SECOND[workload]))


def generate(workload: str, seed: int, count: int) -> list:
    """The first count operations of the workload's list for this seed,
    pinned reproducers first."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    ops = [list(op) for op in PINNED[workload]]
    rounds = -(-max(0, count - len(ops)) // _ROUND_SIZE[workload])
    if workload == "moments":
        ops += _moments_ops(rng, rounds)
    elif workload == "hyp2f1-grid":
        ops += _hyp2f1_ops(rng, rounds)
    else:
        for _ in range(rounds):
            ops += _heun_round(rng)
    return ops[:count]


# Operations the traced run replays in full (deterministic call counts).
TRACE_OPS = {"hyp2f1-grid": 7 + 25 * 6, "moments": 3 + 29 * 4, "heun": 2 + 10 * 4}
