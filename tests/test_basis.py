"""Symbolic kernel combos: exact coefficients, evaluation, series agreement."""

import json
import math
import random
from fractions import Fraction

import pytest

from elemhyp import (
    BasisFunction, DomainError, InvalidParams, NotConverged,
    SymbolicCombo, combo_eval, combo_json_dict, fnj_combo, fnj_series,
    polylog_derivative_series,
)
from elemhyp.basis import LOG_TERM, poly, pow_ratio


XGRID = [round(0.1 * i, 1) for i in range(1, 10)]


def expected_set(n, j):
    """Which basis functions survive for a given (n, j)."""
    if j <= n:
        want = {pow_ratio(i) for i in range(1, n - j + 2)}
        want.add(LOG_TERM)
        want.update(poly(k) for k in range(2, j))
    elif j == n + 1:
        want = {LOG_TERM}
        want.update(poly(k) for k in range(2, n + 1))
    else:
        want = {poly(k) for k in range(j - n, j)}
    return want


def test_basis_function_validation():
    with pytest.raises(InvalidParams):
        BasisFunction("exp", 1)
    with pytest.raises(InvalidParams):
        pow_ratio(0)
    with pytest.raises(InvalidParams):
        poly(1)
    with pytest.raises(InvalidParams):
        BasisFunction("log", 1)


def test_basis_sort_order():
    got = sorted([poly(3), LOG_TERM, pow_ratio(2), poly(2), pow_ratio(1)],
                 key=lambda b: b.sort_key())
    assert got == [pow_ratio(1), pow_ratio(2), LOG_TERM, poly(2), poly(3)]


def test_base_kernels():
    # the kernels f_{n,0} = (1-x)**-(n+1) and f_{n,1} = 1/(n (1-x)**n) below
    # the combos, times n! in polylog_derivative_series
    x = 0.4
    assert polylog_derivative_series(0, 3, x) == 6 * (1.0 - x) ** -4
    assert polylog_derivative_series(1, 3, x) == 6 * (1.0 / (3 * (1.0 - x) ** 3))
    with pytest.raises(InvalidParams):
        polylog_derivative_series(1, 0, x)


@pytest.mark.parametrize("j", [0, 1])
def test_base_kernels_raise_past_float_range(j):
    # (1-x)**-201 overflows (j = 0) and (1-x)**200 underflows (j = 1)
    with pytest.raises(NotConverged, match="overflows float range"):
        polylog_derivative_series(j, 200, 0.999)
    with pytest.raises(DomainError):
        polylog_derivative_series(j, 3, 1.0)


def test_combo_seed_coefficients():
    c = fnj_combo(2, 2)
    assert c.terms == {pow_ratio(1): Fraction(1, 2), LOG_TERM: Fraction(1, 2)}
    c = fnj_combo(3, 2)
    assert c.terms == {pow_ratio(1): Fraction(-2, 3),
                       pow_ratio(2): Fraction(1, 6),
                       LOG_TERM: Fraction(-1, 3)}


def test_combo_recurrence_step():
    c = fnj_combo(2, 3)
    assert c.terms == {LOG_TERM: Fraction(-1, 2), poly(2): Fraction(-1, 2)}


def test_combo_at_a_high_order():
    # past j = n+1 the combo is n polylogs with fixed coefficients; the
    # orders are built in a loop, where each once took one stack frame
    assert fnj_combo(3, 1100).terms == {poly(1097): Fraction(1, 6),
                                        poly(1098): Fraction(-1, 2),
                                        poly(1099): Fraction(1, 3)}


def _t_map_terms(n, j_max):
    """Reference for fnj_combo by another route: the terms of orders
    2..j_max, the j = 2 combo read off the closed form of f_{n,2} and each
    next order the image under the linear map T induced by integrating the
    basis functions against dt/t:

        T(pow_ratio(i)) = sum_{w=1}^{i-1} pow_ratio(w)/w - log
        T(log)          = -polylog(2)
        T(polylog(k))   = polylog(k+1)

    so pow_ratio(w) of the image takes (1/w) sum_{i>w} c_i, a running
    suffix sum over the pow_ratio coefficients c_i."""
    terms = {pow_ratio(i): Fraction((-1) ** (n - 1 + i) * math.comb(n - 1, i), n * i)
             for i in range(1, n)}
    terms[LOG_TERM] = Fraction(-((-1) ** (n - 1)), n)
    for _ in range(2, j_max + 1):
        yield terms
        ratios = {b.index: c for b, c in terms.items() if b.kind == "pow_ratio"}
        out, tail = {}, Fraction(0)
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
        terms = {b: c for b, c in out.items() if c != 0}


def test_combo_matches_the_t_map():
    # the exact division build gives the same exact terms as the T-map
    pairs = {(n, j) for n in range(1, 25) for j in range(2, 30)}
    pairs |= {(3, 1100), (100, 100), (200, 40)}
    for n in sorted({n for n, _ in pairs}):
        orders = {j for m, j in pairs if m == n}
        for j, terms in enumerate(_t_map_terms(n, max(orders)), 2):
            if j in orders:
                assert fnj_combo(n, j).terms == terms, (n, j)


def test_combo_validation():
    with pytest.raises(InvalidParams):
        fnj_combo(2, 1)
    with pytest.raises(InvalidParams):
        fnj_combo(0, 2)
    with pytest.raises(InvalidParams):
        SymbolicCombo(n=1, j=1, terms={})
    with pytest.raises(InvalidParams, match="^n must be >= 1$"):
        SymbolicCombo(n=0, j=2, terms={})
    with pytest.raises(InvalidParams, match="^j must be >= 0$"):
        fnj_series(2, -1, 0.5)


def test_combo_degenerate_n1():
    # f_{1,2}(x) = -log(1-x)/x**1 survives the machinery unchanged
    c = fnj_combo(1, 2)
    assert c.terms == {LOG_TERM: Fraction(-1)}
    x = 0.5
    assert math.isclose(combo_eval(c, x), -math.log1p(-x) / x, rel_tol=1e-14)


@pytest.mark.parametrize("n", range(2, 9))
def test_combo_cardinality_and_basis_set(n):
    for j in range(2, 13):
        c = fnj_combo(n, j)
        assert len(c.terms) == n
        assert set(c.terms) == expected_set(n, j)
        assert all(coef != 0 for coef in c.terms.values())


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("j", [2, 5, 9, 12])
def test_combo_eval_matches_series(n, j):
    c = fnj_combo(n, j)
    for x in (0.1, 0.5, 0.9):
        got = combo_eval(c, x)
        want = fnj_series(n, j, x).value
        assert math.isclose(got, want, rel_tol=1e-10)


def test_combo_eval_rounds_a_hand_built_combo_itself():
    # same (n, j) as a memoized combo, other terms: its own coefficients count
    c = SymbolicCombo(n=2, j=2, terms={LOG_TERM: Fraction(1, 3)})
    x = 0.6
    assert math.isclose(combo_eval(c, x), math.log1p(-x) / 3 / x**2, rel_tol=1e-14)


def test_combo_small_argument_behavior():
    # near zero the kernel deviates from its limit 1/n**j by the exact
    # first-order amount (n+1) * x * (n/(n+1))**j; the combo, whose x**(-n)
    # prefactor cancels there, is within 1e-12 of the series or raises
    x = 1e-3
    for n in range(2, 9):
        for j in range(2, 13):
            ser = fnj_series(n, j, x).value
            dev = ser * n**j - 1.0
            model = (n + 1) * x * (n / (n + 1)) ** j
            assert 0.9 * model < dev < 1.1 * model
            try:
                got = combo_eval(fnj_combo(n, j), x)
            except NotConverged:
                continue
            assert math.isclose(got, ser, rel_tol=1e-12), (n, j)


def test_combo_eval_raises_where_its_rounding_bound_fails():
    # x**(-19) cancels ~1e139 here; the value was 3.1e113 off, unraised
    with pytest.raises(NotConverged, match="rounding bound"):
        combo_eval(fnj_combo(19, 8), 4.7e-8)


def _combo_sweep(count, seed):
    """(typed errors, worst (rel err, point)) of combo_eval against the
    full-precision series: n <= 20, 2 <= j <= 12, a fifth of the x
    log-uniform in [1e-8, 0.1], the rest uniform in [0.01, 0.99]."""
    rng = random.Random(seed)
    typed, worst = 0, (0.0, ())
    for _ in range(count):
        n, j = rng.randint(1, 20), rng.randint(2, 12)
        if rng.random() < 0.2:
            x = 10.0 ** rng.uniform(-8.0, -1.0)
        else:
            x = rng.uniform(0.01, 0.99)
        want = fnj_series(n, j, x).value
        try:
            got = combo_eval(fnj_combo(n, j), x)
        except NotConverged:
            typed += 1
            continue
        worst = max(worst, (abs(got - want) / want, (n, j, x)))
    return typed, worst


def test_combo_eval_sweep_has_no_silent_error():
    # every value returned is within 1e-12; the points whose x**(-n)
    # prefactor cancels too deeply raise, and their count is pinned
    typed, worst = _combo_sweep(300, 5221)
    assert worst[0] <= 1e-12, worst
    assert typed == 87, typed


@pytest.mark.sweep
def test_combo_eval_large_sweep_has_no_silent_error():
    typed, worst = _combo_sweep(1000, 5222)
    assert worst[0] <= 1e-12, worst
    assert typed < 1000


def test_combo_eval_domain():
    c = fnj_combo(2, 2)
    for x in (0.0, 1.0, -0.2):
        with pytest.raises(DomainError):
            combo_eval(c, x)


def test_combo_eval_raises_where_a_power_of_one_minus_x_underflows():
    # (1-x)**30 is 0 in float64 at 1-x = 1e-12: f_{30,2} is ~1e360 there
    with pytest.raises(NotConverged):
        combo_eval(fnj_combo(30, 2), 1 - 1e-12)


def test_combo_eval_raises_where_x_to_the_n_underflows():
    with pytest.raises(NotConverged):
        combo_eval(fnj_combo(5, 3), 1e-100)


def test_series_validation():
    with pytest.raises(InvalidParams):
        fnj_series(0, 2, 0.5)
    with pytest.raises(DomainError):
        fnj_series(2, 2, 1.0)


def test_series_low_orders_have_closed_forms():
    x = 0.45
    got = fnj_series(1, 0, x).value
    assert math.isclose(got, (1.0 - x) ** -2, rel_tol=1e-12)
    got = fnj_series(3, 1, x).value
    assert math.isclose(got, 1.0 / (3 * (1.0 - x) ** 3), rel_tol=1e-12)


@pytest.mark.parametrize("n,j,x,want,terms", [
    (2, 200, 0.99, 2.0 ** -200, 198),  # the terms past k = 0 add ~1e-35 of it
    (10, 400, 0.5, 0.0, 10),  # 10**-400 is 0 in float
])
def test_series_stops_where_the_kernel_underflows(n, j, x, want, terms):
    # (n+k)**-j underflows to 0 (from k = 39 at n = 2, j = 200), which
    # bounds the later terms by 0; the sum stops once the weights' ratio
    # x (n+k+2)/(k+2) falls below 1
    res = fnj_series(n, j, x)
    assert res.converged and res.trunc_err_est == 0.0
    assert res.value == want and res.terms_used == terms


def test_json_document_shape():
    doc = combo_json_dict(fnj_combo(2, 3))
    assert doc == {
        "n": 2, "j": 3,
        "terms": [
            {"basis": "log", "num": "-1", "den": "2"},
            {"basis": "polylog", "k": 2, "num": "-1", "den": "2"},
        ],
    }
    json.dumps(doc)  # must be serializable as-is
