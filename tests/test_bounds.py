import math

import numpy as np
import pytest

from quadround import (constants, gauss_log_moments, laplace_tail_upper,
                       log_gamma, phi, phi_expression, rank_m_abs_log,
                       rank_m_beta)
from quadround._util import quad
from quadround.bounds import _phi_log, constants_report, ln2_moment_identity
from quadround.config import DEFAULTS


def test_log_gamma_examples():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-12)
    # Gamma(3.5) = 15 sqrt(pi) / 8 by the recurrence
    assert log_gamma(3.5) == pytest.approx(
        math.log(15.0 * math.sqrt(math.pi) / 8.0), rel=1e-12)
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.0)


def test_phi_at_six():
    assert phi_expression(6.0, 3.0) == pytest.approx(5.0 / 72.0, abs=1e-12)
    val = phi(6.0)
    assert val <= 5.0 / 72.0
    assert val < 0.07
    # the optimized value is within a whisker of the alpha = 3 evaluation
    assert val == pytest.approx(5.0 / 72.0, abs=5e-6)


def test_phi_boundary_and_monotonicity():
    assert phi(1.0) == pytest.approx(1.0, rel=1e-10)
    # dense grid confirms the boundary minimum at alpha = 1 for t = 1
    grid = [phi_expression(1.0, a) for a in np.linspace(1.0, 8.0, 200)]
    assert min(grid) >= 1.0 - 1e-12
    # strict monotone decrease
    assert phi(100.0) < phi(10.0) < phi(6.0)
    ts = [1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0, 100.0]
    vals = [phi(t) for t in ts]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    # min over alpha dominates the alpha = 1 Markov bound, which is exactly 1/t
    for t in ts:
        assert phi_expression(t, 1.0) == pytest.approx(1.0 / t, rel=1e-12)
        assert phi(t) <= 1.0 / t + 1e-12
    with pytest.raises(ValueError):
        phi(0.9)


@pytest.mark.parametrize("t", [3.0, 6.0, 30.0, 120.0, 200.0, 500.0, 1000.0])
def test_phi_minimizes_over_alpha(t):
    # the optimizer sits near t / 2, beyond any bracket logarithmic in t once
    # t exceeds about 115; no alpha on a dense grid over [1, t] does better
    grid = np.append(np.linspace(1.0, t, 20001), 0.5 * t)
    val = phi(t)
    for a in grid:
        assert val <= phi_expression(t, a) * (1.0 + 1e-12)


def test_phi_matches_scipy_brentq():
    # phi calls the compiled Brent core that scipy's brentq calls, with
    # brentq's arguments: the same value, bit for bit, on a t grid that
    # covers the boundary case alpha = 1 and interior minimizers
    from scipy.optimize import brentq
    from scipy.special import digamma

    for t in np.append(np.geomspace(1.0, 1000.0, 61), [2.5, 6.0, 115.0]):
        t = float(t)

        def deriv(a):
            return float(digamma(a + 0.5)) - math.log(0.5 * t)

        alpha = 1.0 if deriv(1.0) >= 0.0 else brentq(
            deriv, 1.0, t, xtol=DEFAULTS.root)
        assert phi(t) == math.exp(_phi_log(t, alpha)), t


def test_laplace_tail_examples():
    assert laplace_tail_upper(1, 1.0) == 1.0
    assert laplace_tail_upper(7, 1.0) == 1.0
    assert laplace_tail_upper(2, math.e) == pytest.approx(
        math.exp(2.0 - math.e), rel=1e-14)
    t = 1.0 + 3.0 / math.sqrt(10.0)
    assert laplace_tail_upper(10, t) <= math.exp(-9.0 / 8.0)
    with pytest.raises(ValueError):
        laplace_tail_upper(10, 0.0)
    with pytest.raises(ValueError):
        laplace_tail_upper(0, 1.0)


def test_laplace_tail_properties():
    for m in (1, 3, 10, 50):
        for t in (0.2, 0.7, 1.3, 2.5, 8.0):
            v = laplace_tail_upper(m, t)
            assert v < 1.0
        assert laplace_tail_upper(m, 1.0) == 1.0
    # strictly decreasing in m for fixed t != 1
    for t in (0.5, 2.0):
        vals = [laplace_tail_upper(m, t) for m in (1, 2, 4, 8, 16)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_gauss_log_moments():
    m1, m2 = gauss_log_moments()
    assert 1.75 < m1 < 1.77
    assert 6.54 < m2 < 6.55
    assert abs(m2 - ln2_moment_identity()) <= 1e-6


def test_quad_matches_scipy_quad_bit_for_bit():
    # _util.quad calls the QUADPACK routines that scipy's quad calls, with
    # quad's arguments: the same value and error estimate, bit for bit, on
    # the two log-moment integrands and on other finite and infinite ranges
    from scipy.integrate import quad as scipy_quad

    def log_abs(x):
        return abs(math.log(x)) * math.exp(-0.5 * x * x)

    def log_sq(x):
        return (math.log(x) ** 2) * math.exp(-0.5 * x * x)

    cases = [(f, a, b) for f in (log_abs, log_sq)
             for (a, b) in ((0.0, 1.0), (1.0, math.inf))]
    cases += [(lambda x: math.exp(-x), 0.0, math.inf),
              (lambda x: math.exp(-x), 2.0, math.inf),
              (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0),
              (lambda x: 1.0 / (1.0 + x * x), -1.0, math.inf),
              (math.sin, 0.0, 10.0)]
    kw = dict(epsabs=DEFAULTS.quad_abs * 0.1, epsrel=1e-12, limit=200)
    for f, a, b in cases:
        assert quad(f, a, b, **kw) == scipy_quad(f, a, b, **kw), (a, b)


def test_quad_refuses_a_quadpack_error_code():
    # 1/x diverges on (0, 1): scipy's quad warns and returns a value, the
    # wrapper raises ArithmeticError
    from scipy.integrate import IntegrationWarning, quad as scipy_quad

    kw = dict(epsabs=1e-10, epsrel=1e-12, limit=200)
    with pytest.warns(IntegrationWarning):
        scipy_quad(lambda x: 1.0 / x, 0.0, 1.0, **kw)
    with pytest.raises(ArithmeticError, match="QUADPACK error code"):
        quad(lambda x: 1.0 / x, 0.0, 1.0, **kw)


def test_trigamma_identity_value():
    # digamma(1/2) = -euler_gamma - 2 ln 2 and trigamma(1/2) = pi^2 / 2
    euler = 0.5772156649015329
    expected = math.pi ** 2 / 2.0 + (euler + math.log(2.0)) ** 2
    assert ln2_moment_identity() == pytest.approx(expected, rel=1e-12)


def test_constants_table():
    table = constants()
    assert table["beta"] == 4.8
    assert table["abs_log_moment"] == 2.75
    assert table["ln2_moment"] == 7.55
    assert table["ln2_moment_inside"] == 6.55
    assert table["markov_0.92"] == pytest.approx(2.75 / 3.0)
    assert table["markov_0.92"] < 0.92
    assert table["tail_0.07"] < 0.07
    assert table["markov_rank_m"] == 0.5
    assert table["rank_m_beta"](4) == 7.5
    assert rank_m_beta(4) == 7.5
    assert rank_m_abs_log(9) == 2.0
    with pytest.raises(ValueError):
        rank_m_beta(0)


def test_constants_report_all_satisfied():
    rows = constants_report()
    assert len(rows) >= 10
    for row in rows:
        assert row.satisfied, f"{row.name}: {row.value} vs {row.paper_value}"
