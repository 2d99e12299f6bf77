"""Symbolic kernel combos: exact coefficients, evaluation, series agreement."""

import json
import math
import random
from fractions import Fraction

import pytest

from elemhyp import (
    BasisFunction, DomainError, InvalidParams, NotConverged,
    SymbolicCombo, combo_eval, combo_json_dict, fnj_base, fnj_combo, fnj_series,
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
    x = 0.4
    assert fnj_base(3, 0)(x) == (1.0 - x) ** -4
    assert fnj_base(3, 1)(x) == 1.0 / (3 * (1.0 - x) ** 3)
    with pytest.raises(InvalidParams):
        fnj_base(3, 2)
    with pytest.raises(InvalidParams):
        fnj_base(0, 1)


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


def test_combo_validation():
    with pytest.raises(InvalidParams):
        fnj_combo(2, 1)
    with pytest.raises(InvalidParams):
        fnj_combo(0, 2)
    with pytest.raises(InvalidParams):
        SymbolicCombo(n=1, j=1, terms={})


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
    typed, worst = 0, (0.0, None)
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
    assert math.isclose(got, fnj_base(3, 1)(x), rel_tol=1e-12)


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
