"""The numerical tolerances of the library, in one table.

DEFAULTS is the one place these numbers live, with the default rounding
budgets. Each tolerance is read, at the point of use, by the one operation
that needs it; no function takes a tolerance as an argument, so nothing
overrides the table per call. Only the gap tolerance and the budgets (the
--tol and --budget options) are arguments, and they default to the values
here.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # linear algebra
    eigen_residual: float = 1e-9       # ||A v - lambda v|| <= tol * ||A||_F
    cholesky_relative: float = 1e-12   # ||L L' - A||_F / ||A||_F for SPD input
    psd_clamp: float = 1e-10           # eigenvalues in [-clamp*||A||_F, 0] -> 0
    sqrt_residual: float = 1e-9        # ||T^2 - A||_F <= tol * max(1, ||A||_F)
    inverse_residual: float = 1e-9     # ||A A^-1 - I||_F

    # simplex / spectahedron validation
    simplex_sum: float = 1e-6          # reject if |sum - 1| exceeds this, else renormalize
    psd_check: float = 1e-9            # min eigenvalue >= -tol * ||X||_F
    trace_check: float = 1e-9          # |trace(X) - 1|
    precondition_residual: float = 1e-9  # ||sum Q_hat_i - I||_F

    # entropic SDP solver
    fw_gap: float = 1e-6               # Frank-Wolfe gap termination threshold

    # one-dimensional roots: the FW step size and phi's Markov exponent
    root: float = 1e-12                # brentq bracket width (xtol)

    # randomized rounding
    rank_one_budget: int = 1000        # Gaussian draws per rank-one rounding
    rank_m_budget: int = 200           # batches per rank-m rounding

    # low-rank decomposition
    decompose_rank: float = 1e-9       # eigenvalues beyond the m-th must be below this
    decompose_residual: float = 1e-8   # reconstruction ||(1/m) sum y y' - Y||_F

    # closed-form bound machinery
    quad_abs: float = 1e-8             # absolute tolerance per quadrature call


DEFAULTS = Tolerances()
