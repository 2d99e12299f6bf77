"""The expanded equation family: parameters, termination, values, residuals."""

import itertools
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from elemhyp import (
    DomainError, HeunFamilyParams, HeunSpec, HypergeomParams, InvalidParams,
    NonFinite, NotConverged, heun_coeff, heun_eval, heun_normalization,
    heun_ode_residual, heun_params_from, heun_series_oracle, heun_termination,
    hyp2f1_eval,
)
from elemhyp import heun, hypergeom

# family members whose expansion terminates, with the expected index
TERMINATING = {
    (2, -1.0, 4): 1,
    (2, -3.0, 5): 2,
    (1, 5.0, 3): 2,
    (2, 4.0, 4): 1,
    (2, -5.0, 4): 3,
    (1, -6.0, 3): 4,
}

# exact values at 0 for the same members
NORMS = {
    (2, -1.0, 4): Fraction(1),
    (2, -3.0, 5): Fraction(1, 5),
    (1, 5.0, 3): Fraction(1, 6),
    (2, 4.0, 4): Fraction(1),
    (2, -5.0, 4): Fraction(1, 7),
    (1, -6.0, 3): Fraction(1, 28),
}

NON_TERMINATING = [(1, 2.0, 3), (2, 0.5, 4), (1, 0.5, 3)]

# members whose singularity structure admits the power-series oracle
ORACLE_OK = [(2, -1.0, 4), (2, -3.0, 5), (2, -5.0, 4), (1, -6.0, 3)]


def test_spec_validation():
    HeunSpec(1.0, 2.0, 1.0, 1.0, 2.0, 0.5, 1.0)
    with pytest.raises(InvalidParams):
        HeunSpec(1.0, 2.0, 1.0, 2.0, 2.0, 0.5, 1.0)  # exponent sum broken
    with pytest.raises(InvalidParams):
        HeunSpec(1.0, 2.0, 1.0, 1.0, 2.0, 0.0, 1.0)
    with pytest.raises(InvalidParams):
        HeunSpec(1.0, 2.0, 1.0, 1.0, 2.0, 1.0, 1.0)


def test_family_params_validation():
    with pytest.raises(InvalidParams):
        HeunFamilyParams(0, 1.0, 2)
    with pytest.raises(InvalidParams):
        HeunFamilyParams(1, 0.0, 2)
    with pytest.raises(InvalidParams):
        HeunFamilyParams(2, 1.0, 2)
    for n in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParams):
            HeunFamilyParams(1, n, 3)


def test_parameter_map_on_the_reference_member():
    s = heun_params_from(HeunFamilyParams(1, 2.0, 3))
    assert (s.alpha, s.beta) == (1.0, 2.0)
    assert s.gamma == 1.0
    assert s.delta == 1.0
    assert s.epsilon == 2.0
    assert s.a == 0.5
    assert s.q == 1.0


@pytest.mark.parametrize("mnp", list(TERMINATING) + NON_TERMINATING)
def test_parameter_identities_are_exact(mnp):
    m, n, p = mnp
    s = heun_params_from(HeunFamilyParams(m, n, p))
    assert s.gamma + s.epsilon == p
    assert s.gamma + s.delta == 2.0
    assert s.q == s.a * (s.alpha * s.beta + (1.0 - s.delta) * s.epsilon)


def test_expansion_coefficients_on_the_reference_member():
    fp = HeunFamilyParams(1, 2.0, 3)
    want = [1.0, 1.0 / 6.0, 1.0 / 15.0, 1.0 / 28.0]
    for k, w in enumerate(want):
        assert math.isclose(heun_coeff(fp, k), w, rel_tol=1e-14)
    with pytest.raises(InvalidParams, match="^k must be >= 0$"):
        heun_coeff(fp, -1)


def test_expansion_coefficients_are_the_ratio_formed_per_term():
    # _coeffs forms the shifts of its ratio once per member, with k as a
    # float: the floats of the ratio written out per k, bit for bit
    rng = random.Random(4401)
    for _ in range(400):
        m = rng.randint(1, 6)
        n = rng.choice((rng.uniform(-40.0, 40.0), rng.randint(-30, 30) + 0.5,
                        float(rng.randint(-30, 30) or 1), rng.choice((1e308, -3e300, 1e-300))))
        p = m + rng.randint(1, 60)
        got = list(itertools.islice(heun._coeffs(HeunFamilyParams(m, n, p)), 60))
        want, c = [], 1.0
        for k in range(60):
            want.append(c)
            num = ((m + n - 1.0) / 2.0 + k) * ((p - m) / 2.0 + k) * ((p - n) / 2.0 + k)
            c *= num / ((k + 1.0) * (p / 2.0 + k) * ((p + 1.0) / 2.0 + k))
            if c == 0.0:
                break
        assert list(map(repr, got)) == list(map(repr, want)), (m, n, p)


@pytest.mark.parametrize("mnp,r", sorted(TERMINATING.items()))
def test_termination_detection(mnp, r):
    assert heun_termination(HeunFamilyParams(*mnp)) == r


@pytest.mark.parametrize("mnp", NON_TERMINATING)
def test_non_terminating_members_report_none(mnp):
    assert heun_termination(HeunFamilyParams(*mnp)) is None


def test_termination_is_exact():
    # n misses m+n = 3-2r (r = 1) by 9e-13: c_1 = 2.25e-13 is not 0, so the
    # expansion does not terminate and claims no convergence
    fp = HeunFamilyParams(2, -1 + 9e-13, 4)
    assert heun_termination(fp) is None
    assert heun_coeff(fp, 1) != 0.0
    res = heun_eval(fp, 0.3, 6)
    assert not res.converged
    assert res.trunc_err_est == math.inf
    with pytest.raises(DomainError):
        heun_normalization(fp)
    # 2 + 2**52 - 0.5 rounds to the even 2**52 + 2 in float, but n is not an
    # integer, so no factor (m+n-1)/2 + k is ever zero: c_1 = -1.7e30
    fp = HeunFamilyParams(1, -(2**52 - 0.5), 3)
    assert heun_termination(fp) is None
    assert heun_coeff(fp, 1) < -1e30


@pytest.mark.parametrize("mnp,r", sorted(TERMINATING.items()))
def test_terminating_coefficients_vanish_beyond_the_index(mnp, r):
    # the index counts the surviving terms: c_0 .. c_{r-1} are nonzero
    fp = HeunFamilyParams(*mnp)
    assert heun_coeff(fp, r - 1) != 0.0
    for k in range(r, r + 4):
        assert heun_coeff(fp, k) == 0.0


@pytest.mark.parametrize("mnp,r", sorted(TERMINATING.items()))
def test_terminating_eval_is_truncation_stable(mnp, r):
    fp = HeunFamilyParams(*mnp)
    for x in (0.2, 0.4):
        base = heun_eval(fp, x, r)
        assert base.converged
        assert base.trunc_err_est == 0.0
        assert base.terms_used == r
        deep = heun_eval(fp, x, r + 7)
        assert abs(deep.value - base.value) <= 1e-14 * abs(base.value)


@pytest.mark.parametrize("mnp", sorted(NORMS))
def test_normalization_exact_values(mnp):
    fp = HeunFamilyParams(*mnp)
    assert abs(heun_normalization(fp) - float(NORMS[mnp])) < 1e-15


def test_normalization_past_float_range_is_typed():
    # r = 600: c_154 passes float range, and fsum of +-inf raised a bare
    # ValueError; heun_eval on the same member raises NonFinite
    fp = HeunFamilyParams(1, -1198.0, 2)
    assert heun_termination(fp) == 600
    with pytest.raises(NonFinite, match="non-finite term at index 154"):
        heun_normalization(fp)
    with pytest.raises(NonFinite, match="non-finite term at index 154"):
        heun_eval(fp, 0.3, 600)


def test_normalization_stops_at_the_first_infinite_coefficient(monkeypatch):
    # r = 5e14, and r = 1.5e300 past sys.maxsize (where islice raised a bare
    # ValueError): c_12 and c_1 pass float range, and the sum ends there
    # rather than list r coefficients; the wrapper fails a sum that reads on
    original = heun._coeffs

    def bounded(fp):
        for k, c in enumerate(original(fp)):
            assert k < 1000, "read past the first infinite coefficient"
            yield c

    monkeypatch.setattr(heun, "_coeffs", bounded)
    for n, r, index in ((-1000000000000002.0, 5 * 10 ** 14, 12),
                        (-3e300, int(-3e300) // -2 - 1, 1)):
        fp = HeunFamilyParams(5, n, 12)
        assert heun_termination(fp) == r
        with pytest.raises(NonFinite, match=f"^non-finite term at index {index}$"):
            heun_normalization(fp)


@pytest.mark.parametrize("mnp", NON_TERMINATING)
def test_normalization_needs_termination(mnp):
    # the expansion is the Heun solution only where it ends: no u(0) else
    with pytest.raises(DomainError):
        heun_normalization(HeunFamilyParams(*mnp))


def test_series_oracle_closed_form_on_the_reference_member():
    # at these parameters the local solution collapses to 1/(1 - 2x)
    spec = heun_params_from(HeunFamilyParams(1, 2.0, 3))
    for x in (0.1, 0.2, 0.3, 0.45):
        got = heun_series_oracle(spec, x)
        assert math.isclose(got, 1.0 / (1.0 - 2.0 * x), rel_tol=1e-12)


def test_series_oracle_domain():
    spec = heun_params_from(HeunFamilyParams(1, 2.0, 3))
    with pytest.raises(DomainError):
        heun_series_oracle(spec, 0.6)  # outside the disc of convergence
    with pytest.raises(DomainError):
        heun_series_oracle(spec, math.nan)  # was NonFinite from the sum
    # gamma a nonpositive integer: the recurrence cannot start
    bad = heun_params_from(HeunFamilyParams(2, 4.0, 4))
    with pytest.raises(DomainError):
        heun_series_oracle(bad, 0.2)


@pytest.mark.parametrize("mnp", ORACLE_OK)
def test_terminating_eval_matches_the_oracle(mnp):
    fp = HeunFamilyParams(*mnp)
    r = heun_termination(fp)
    norm = heun_normalization(fp)
    spec = heun_params_from(fp)
    for x in (0.1, 0.3, 0.45):
        got = heun_eval(fp, x, r).value / norm
        want = heun_series_oracle(spec, x)
        assert math.isclose(got, want, rel_tol=1e-10)


# (1, -6; 3) is the member whose float sum cancels: heun_eval is 9.2e-14,
# 6.0e-12 and 5.2e-13 off mpmath at 0.3, 0.7 and 0.99, and at 0.7 the
# residual shows it (3.1e-12)
RESIDUAL_SHOWS_VALUE_ERROR = {((1, -6.0, 3), 0.7)}


@pytest.mark.parametrize("mnp,r", sorted(TERMINATING.items()))
def test_terminating_eval_satisfies_the_equation(mnp, r):
    fp = HeunFamilyParams(*mnp)
    for x in (0.01, 0.15, 0.3, 0.7, 0.99):
        residual = heun_ode_residual(fp, x, r + 2)
        shows_value_error = (mnp, x) in RESIDUAL_SHOWS_VALUE_ERROR
        assert (residual > 1e-12) is shows_value_error, (x, residual)


def test_residual_domain():
    fp = HeunFamilyParams(2, -1.0, 4)
    for x in (0.0, 0.5, 1.0, -0.1, math.nan, math.inf):
        with pytest.raises(DomainError):
            heun_ode_residual(fp, x, 3)
    # the edges of the stencil it replaced, and the extremes of the domain
    for x in (1e-3, 0.4995, 5e-324, 0.5000000000000001, 1.0 - 2.0 ** -53):
        assert heun_ode_residual(fp, x, 3) <= 1e-12


def _mp_leaf_sum(fp, x, r):
    """sum_(k<r) c_k 2F1(m, n; p+2k; x) at 40 digits, the c_k from their
    ratio in mpmath."""
    m, n, p = fp.m, mp.mpf(fp.n), fp.p
    with mp.workdps(40):
        c, total = mp.mpf(1), mp.mpf(0)
        for k in range(r):
            total += c * mp.hyp2f1(m, n, p + 2 * k, x)
            c *= ((m + n - 1) / 2 + k) * (mp.mpf(p - m) / 2 + k) * ((p - n) / 2 + k) \
                / ((k + 1) * (mp.mpf(p) / 2 + k) * (mp.mpf(p + 1) / 2 + k))
        return total


@pytest.mark.sweep
def test_residual_is_exact_where_the_sum_is_on_a_sweep():
    """Terminating members of both branches (m <= 6, p <= m+40, r <= 10) at
    x across (0, 1) but 1/2, two thirds of them 1e-8 to 0.1 from 0 or 1:
    wherever heun_eval is within 1e-14 of the 40-digit sum, the residual is
    within 1e-12.  The rest are the members whose float sum cancels; the
    test pins their count, the worst off by 1.2e1 relative."""
    rng = random.Random(4601)
    exact, cancelling = [], []
    for i in range(300):
        m, branch_r = rng.randint(1, 6), rng.randint(1, 10)
        p = m + rng.randint(1, 40)
        n = float(3 - 2 * branch_r - m) if i % 2 else float(p + 2 * branch_r - 2)
        fp = HeunFamilyParams(m, n or -2.0, p)  # n = 0 is no member
        x = rng.choice((rng.uniform(0.0, 1.0), 10.0 ** rng.uniform(-8.0, -1.0),
                        1.0 - 10.0 ** rng.uniform(-8.0, -1.0)))
        r = heun_termination(fp)  # branch_r, or less where the other branch holds too
        err = abs(mp.mpf(heun_eval(fp, x, r + 2).value) / _mp_leaf_sum(fp, x, r) - 1)
        (exact if err <= 1e-14 else cancelling).append(
            (fp, x, float(err), heun_ode_residual(fp, x, r + 2)))
    assert all(row[3] <= 1e-12 for row in exact), [row for row in exact if row[3] > 1e-12]
    assert (len(exact), len(cancelling)) == (136, 164)


def test_eval_validation():
    fp = HeunFamilyParams(1, 2.0, 3)
    with pytest.raises(InvalidParams):
        heun_eval(fp, 0.3, 0)
    with pytest.raises(DomainError):
        heun_eval(fp, -0.1, 10)
    with pytest.raises(DomainError):
        heun_eval(fp, 1.0, 10)
    with pytest.raises(DomainError):
        heun_eval(fp, math.nan, 10)


def test_eval_reports_honest_convergence_when_truncated():
    res = heun_eval(HeunFamilyParams(1, 2.0, 3), 0.2, 40)
    assert not res.converged
    assert res.terms_used == 40
    assert res.trunc_err_est == math.inf


@pytest.mark.parametrize("mnp,K,converged", [
    ((1, -6.0, 3), 2, False),  # terminates at r = 4: a partial sum
    ((1, -6.0, 3), 4, True),
    ((1, -6.0, 3), 9, True),
    ((1, 2.0, 3), 2000, False),  # never terminates, however deep
])
def test_eval_converges_only_where_the_expansion_ends(mnp, K, converged):
    res = heun_eval(HeunFamilyParams(*mnp), 0.1, K)
    assert res.converged is converged
    assert res.trunc_err_est == (0.0 if converged else math.inf)


def _leaf_sum(fp, x, K):
    """heun_eval's sum from the public leaf: c_k times hyp2f1_eval of
    (m, n; p+2k), summed by _finite_sum."""
    r = heun_termination(fp)
    kmax = min(K, r) if r is not None else K
    return heun._finite_sum([
        c * hyp2f1_eval(HypergeomParams(fp.m, float(fp.n), fp.p + 2 * k), x)
        for k, c in zip(range(kmax), heun._coeffs(fp))])


def _heun_leaf_points(count, seed):
    """(member, x, K): terminating members with K past r, other members at
    x = 0, below 1/2 and up to 1 - 1e-12, members whose leaves below 1/2
    route 1 rejects, and large n next to 1, where leaves raise; then
    count // 10 members with K >= 33 at x in [0.45, 1/2), whose leaf 0
    takes 21 to 101 terms at this seed, so the leaves' shared ratios list
    grows long."""
    rng = random.Random(seed)
    for i in range(count):
        m = rng.randint(1, 6)
        p = m + rng.randint(1, 12)
        x = rng.choice((0.0, rng.uniform(1e-6, 0.5), rng.uniform(0.5, 1.0),
                        1.0 - 10.0 ** rng.uniform(-12.0, -1.0)))
        K = rng.randint(1, 16)
        kind = i % 4
        if kind == 0:  # terminating at r: m+n = 3-2r or n-p = 2r-2
            r = rng.randint(1, 5)
            n = float(3 - 2 * r - m) if i % 8 else float(p + 2 * r - 2)
            if n == 0.0:
                n, r = -2.0, 2
            K = r + rng.randint(1, 4)
        elif kind == 1:
            n = rng.choice((float(rng.randint(1, 20)), rng.randint(-20, 19) + 0.5,
                            rng.uniform(-20.0, 20.0)))
        elif kind == 2:  # cancelling sums: route 1 rejects leaves below 1/2
            m = rng.randint(4, 6)
            n, p, x = rng.uniform(-20.0, -8.0), m + rng.randint(1, 6), rng.uniform(0.35, 0.5)
        else:  # large n next to x = 1: leaves pass float range
            m, p = rng.randint(1, 2), rng.randint(20, 30)
            n, x = rng.uniform(40.0, 65.0), 1.0 - 10.0 ** rng.uniform(-12.0, -6.0)
        yield HeunFamilyParams(m, n, p), x, K
    for _ in range(count // 10):
        m = rng.randint(1, 6)
        n = rng.choice((rng.randint(-20, 19) + 0.5, rng.uniform(-20.0, 20.0)))
        yield HeunFamilyParams(m, n, m + rng.randint(1, 12)), rng.uniform(0.45, 0.5), \
            rng.randint(33, 48)


def _value_or_error(f, *args):
    try:
        return repr(f(*args))
    except (NonFinite, NotConverged) as exc:
        return ("raises", type(exc).__name__)


def test_eval_leaves_are_hyp2f1_eval(monkeypatch):
    closed_below_half = []
    closed_route = hypergeom._closed_route

    def spy(m, n, p, x):
        if x < 0.5:
            closed_below_half.append((m, n, p, x))
        return closed_route(m, n, p, x)

    monkeypatch.setattr(hypergeom, "_closed_route", spy)
    errors = 0
    for fp, x, K in _heun_leaf_points(200, 3203):
        got = _value_or_error(lambda: heun_eval(fp, x, K).value)
        assert got == _value_or_error(_leaf_sum, fp, x, K), (fp, x, K)
        errors += isinstance(got, tuple)
    assert closed_below_half
    assert errors
