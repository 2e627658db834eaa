"""Closed-form tail bounds and moment constants, computed to high accuracy.

For a PSD quadratic form q with E q = 1 under the standard Gaussian measure:

  * E |ln q| < 2.75, via E ln^2 q < 6.55 + 1 = 7.55 and Cauchy-Schwarz;
  * P(q >= t) <= phi(t) for t >= 1, where
        phi(t) = min over alpha >= 1 of (2^alpha / (t^alpha sqrt(pi)))
                 * Gamma(alpha + 1/2),
    the optimized Markov bound on E q^alpha (worst case is rank one);
  * for the m-fold average q_m of independent copies,
        P(q_m >= t) <= exp((m/2)(1 - t + ln t))   for t >= 1,
        P(q_m <= t) <= exp((m/2)(1 - t + ln t))   for 0 < t <= 1,
    (Laplace transform bounds) and E |ln q_m| <= 6 / sqrt(m).

These constants power the rounding certificates: the acceptance thresholds
use phi(6) <= 5/72 < 0.07 (take alpha = 3), the Markov ratio 2.75/3 < 0.92,
exp(-9/8) < 0.33 at t = 1 + 3/sqrt(m), and the Markov ratio
(6/sqrt(m)) / (12/sqrt(m)) = 0.5, giving the distance constants 4.8 for
rank-one rounding and 15/sqrt(m) for rank-m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._util import brentq, quad
from .config import DEFAULTS


@dataclass
class BoundReport:
    """One verified constant: computed value vs its documented target."""

    name: str
    value: float
    paper_value: float
    satisfied: bool
    relation: str = "<="


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0, relative error well below 1e-10."""
    if x <= 0.0:
        raise ValueError("log_gamma requires x > 0")
    # imported here, so gen, report and lemma51 never load scipy
    from scipy.special import gammaln

    return float(gammaln(x))


def phi_expression(t: float, alpha: float) -> float:
    """The Markov bound (2^alpha / (t^alpha sqrt(pi))) Gamma(alpha + 1/2)."""
    return math.exp(_phi_log(t, alpha))


def _phi_log(t: float, alpha: float) -> float:
    return alpha * math.log(2.0 / t) + log_gamma(alpha + 0.5) - 0.5 * math.log(math.pi)


def phi(t: float) -> float:
    """Optimized Gaussian tail bound: min over alpha >= 1 of phi_expression.

    The log of the expression is convex in alpha (log-Gamma is convex) with
    derivative digamma(alpha + 1/2) - ln(t/2). If that is >= 0 at alpha = 1
    the minimum is the boundary alpha = 1, where the expression equals 1/t.
    Otherwise the minimizer is the derivative's root, which brentq finds to
    xtol DEFAULTS.root in [1, t]: digamma(x) > ln x - 1/x puts the
    derivative above 0 at alpha = t.
    """
    if t < 1.0:
        raise ValueError("phi is defined for t >= 1")
    # imported here, so gen, report and lemma51 never load scipy
    from scipy.special import digamma

    def deriv(a: float) -> float:
        return float(digamma(a + 0.5)) - math.log(0.5 * t)

    alpha = 1.0 if deriv(1.0) >= 0.0 else brentq(deriv, 1.0, t, xtol=DEFAULTS.root)
    return math.exp(_phi_log(t, alpha))


def laplace_tail_upper(m: int, t: float) -> float:
    """exp((m/2)(1 - t + ln t)): upper bound on P(q_m >= t) for t >= 1
    and on P(q_m <= t) for 0 < t <= 1."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if t <= 0.0:
        raise ValueError("t must be positive")
    return math.exp(0.5 * m * (1.0 - t + math.log(t)))


def gauss_log_moments() -> tuple[float, float]:
    """Adaptive quadrature for the two one-dimensional Gaussian log moments.

    Returns (m1, m2) with
      m1 = (4 / sqrt(2 pi)) int_0^inf |ln x| exp(-x^2/2) dx   (about 1.76),
      m2 = (8 / sqrt(2 pi)) int_0^inf ln^2 x exp(-x^2/2) dx   (below 6.55).
    m1 is E |ln q| for a rank-one form and m2 is E ln^2 of a squared standard
    normal. The integrable log singularity at 0 is handled by splitting the
    range at x = 1 (QUADPACK adapts to the endpoint). Raises ArithmeticError
    on a QUADPACK error code or if the reported quadrature error exceeds
    abs_tol = DEFAULTS.quad_abs.
    """
    abs_tol = DEFAULTS.quad_abs

    def integrate(f) -> float:
        total = 0.0
        for (a, b) in ((0.0, 1.0), (1.0, math.inf)):
            val, err = quad(f, a, b, epsabs=abs_tol * 0.1, epsrel=1e-12, limit=200)
            if err > abs_tol:
                raise ArithmeticError(
                    f"quadrature error estimate {err:.2e} exceeds {abs_tol:.2e}")
            total += val
        return total

    coef1 = 4.0 / math.sqrt(2.0 * math.pi)
    coef2 = 8.0 / math.sqrt(2.0 * math.pi)
    m1 = coef1 * integrate(lambda x: abs(math.log(x)) * math.exp(-0.5 * x * x))
    m2 = coef2 * integrate(lambda x: (math.log(x) ** 2) * math.exp(-0.5 * x * x))
    return m1, m2


def ln2_moment_identity() -> float:
    """Closed form for the second log moment, the independent cross-check.

    ln of a squared standard normal is ln of a chi-square with one degree of
    freedom, whose log-moment generating function gives
    E ln W = digamma(1/2) + ln 2 and Var ln W = trigamma(1/2), hence
    E ln^2 W = trigamma(1/2) + (digamma(1/2) + ln 2)^2 with
    digamma(1/2) = -euler_gamma - 2 ln 2 and trigamma(1/2) = pi^2 / 2.
    """
    # imported here, its only use, so other commands skip the import
    from scipy.special import polygamma

    digamma_half = float(polygamma(0, 0.5))
    trigamma_half = float(polygamma(1, 0.5))
    return trigamma_half + (digamma_half + math.log(2.0)) ** 2


# The fixed constants of the distance certificates.
ABS_LOG_MOMENT = 2.75          # E |ln q| bound for a normalized PSD form
LN2_MOMENT = 7.55              # E ln^2 q bound
LN2_MOMENT_INSIDE = 6.55       # the sub-level-set part of the ln^2 bound
BETA_RANK_ONE = 4.8            # certified KL distance, rank-one rounding
TAIL_THRESHOLD = 6.0           # ||T x||^2 cutoff in the acceptance predicate
LOG_SCORE_CUTOFF = -3.0        # log-score cutoff in the acceptance predicate


def rank_m_abs_log(m: int) -> float:
    """E |ln q_m| bound 6 / sqrt(m)."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return 6.0 / math.sqrt(m)


def rank_m_beta(m: int) -> float:
    """Certified KL distance 15 / sqrt(m) for rank-m rounding."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return 15.0 / math.sqrt(m)


def constants() -> dict:
    """The full table of certificate constants.

    Scalar entries are floats; the rank-m families are callables of m.
    markov_0.92 is the per-draw probability bound E|ln|/3 = 2.75/3 on the
    log-score failure, tail_0.07 the computed phi(6), and markov_rank_m the
    m-independent ratio (6/sqrt(m)) / (12/sqrt(m)).
    """
    return {
        "abs_log_moment": ABS_LOG_MOMENT,
        "ln2_moment": LN2_MOMENT,
        "ln2_moment_inside": LN2_MOMENT_INSIDE,
        "beta": BETA_RANK_ONE,
        "markov_0.92": ABS_LOG_MOMENT / 3.0,
        "tail_0.07": phi(6.0),
        "rank_m_abs_log": rank_m_abs_log,
        "rank_m_beta": rank_m_beta,
        "markov_rank_m": 0.5,
    }


def constants_report() -> list[BoundReport]:
    """BoundReport rows verifying every scalar constant against its target."""
    m1, m2 = gauss_log_moments()
    phi6 = phi(6.0)
    phi6_at_3 = phi_expression(6.0, 3.0)
    ident = ln2_moment_identity()
    lap = laplace_tail_upper(10, 1.0 + 3.0 / math.sqrt(10.0))
    rows = [
        BoundReport("beta_rank_one", BETA_RANK_ONE, 4.8,
                    BETA_RANK_ONE == 4.8, "=="),
        BoundReport("phi(6)", phi6, 5.0 / 72.0, phi6 <= 5.0 / 72.0, "<="),
        BoundReport("phi_expression(6, alpha=3)", phi6_at_3, 5.0 / 72.0,
                    abs(phi6_at_3 - 5.0 / 72.0) <= 1e-9, "=="),
        BoundReport("phi(6) < 0.07", phi6, 0.07, phi6 < 0.07, "<"),
        BoundReport("gauss_log_moment_m1", m1, 1.76, 1.75 < m1 < 1.77, "~="),
        BoundReport("gauss_log_moment_m2", m2, 6.55, 6.54 < m2 < 6.55, "<"),
        BoundReport("m2_vs_trigamma_identity", m2, ident,
                    abs(m2 - ident) <= 1e-6, "=="),
        BoundReport("laplace_tail(10, 1 + 3/sqrt(10))", lap,
                    math.exp(-9.0 / 8.0), lap <= math.exp(-9.0 / 8.0), "<="),
        BoundReport("exp(-9/8) < 0.33", math.exp(-9.0 / 8.0), 0.33,
                    math.exp(-9.0 / 8.0) < 0.33, "<"),
        BoundReport("markov_log_score", ABS_LOG_MOMENT / 3.0, 0.92,
                    ABS_LOG_MOMENT / 3.0 < 0.92, "<"),
        BoundReport("markov_rank_m", 0.5, 0.5, True, "=="),
        BoundReport("rank_m_beta(4)", rank_m_beta(4), 7.5,
                    rank_m_beta(4) == 7.5, "=="),
    ]
    return rows
