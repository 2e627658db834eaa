"""Dense symmetric linear algebra used by every other module.

Inputs and outputs are plain float64 arrays stored fully (not packed);
dimensions stay small (at most a few hundred) in all intended uses, so
simplicity wins over memory. Inputs are symmetric arrays: user matrices
are validated and symmetrized once, at the boundary (the QuadraticMap and
SpectahedronPoint constructors and instance loading), and nothing here
re-symmetrizes them. Factorizations are delegated to LAPACK through numpy,
but every operation checks its own contract (residuals, orthonormality,
positivity) against explicit tolerances and fails loudly instead of
returning garbage, so a non-symmetric input is rejected rather than
silently factored.

Positive definiteness is tested by Cholesky: a failed factorization is the
validation gate for user-supplied quadratic forms.
"""

from __future__ import annotations

import math

import numpy as np

from .config import DEFAULTS


class LinalgError(Exception):
    """Base class for numerical failures in this module."""


class NotPositiveDefinite(LinalgError):
    """Cholesky pivot <= 0: the matrix is not positive definite."""


class EigenConvergenceError(LinalgError):
    """The symmetric eigensolver failed to meet its residual contract."""


def fro_norm(a) -> float:
    """Frobenius norm that does not overflow on entries beyond 1e154.

    The array is first scaled by the power of two just above its largest
    |entry|, which is exact, so wherever np.linalg.norm is finite and no
    entry is subnormal after scaling, the two agree bit for bit.
    """
    top = float(np.max(np.abs(a), initial=0.0))
    if top == 0.0:
        return 0.0
    e = math.frexp(top)[1]
    return math.ldexp(float(np.linalg.norm(np.ldexp(a, -e))), e)


def sym_eigen(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric array with residual verification.

    Returns (eigenvalues ascending, orthonormal eigenvectors as columns).
    Raises EigenConvergenceError if LAPACK fails, if the residual
    ||A V - V diag(w)||_F exceeds tol * max(||A||_F, 1e-300), or if
    ||V'V - I||_F exceeds tol * max(1, ||A||_F), with
    tol = DEFAULTS.eigen_residual.
    """
    tol = DEFAULTS.eigen_residual
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigenConvergenceError(str(exc)) from exc
    scale = max(fro_norm(a), 1e-300)
    resid = fro_norm(a @ v - v * w)
    if resid > tol * scale:
        raise EigenConvergenceError(
            f"eigen residual {resid:.3e} exceeds {tol:.1e} * ||A||_F")
    ortho = fro_norm(v.T @ v - np.eye(a.shape[0]))
    if ortho > tol * max(1.0, scale):
        raise EigenConvergenceError(f"eigenvector basis not orthonormal: {ortho:.3e}")
    return w, v


def cholesky(a) -> np.ndarray:
    """Lower-triangular L with L L' = A for positive definite A.

    Raises NotPositiveDefinite otherwise; this is the validation gate for
    quadratic-form input. The factorization residual is checked against
    DEFAULTS.cholesky_relative * ||A||_F.
    """
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc
    scale = max(fro_norm(a), 1e-300)
    resid = fro_norm(L @ L.T - a)
    if resid > DEFAULTS.cholesky_relative * scale:
        raise LinalgError(f"cholesky residual {resid:.3e} out of tolerance")
    return L


def sqrt_psd(a) -> np.ndarray:
    """Symmetric PSD square root T with T^2 = A, via eigendecomposition.

    Eigenvalues in [-clamp * ||A||_F, 0] are set to zero (rounding routinely
    produces slightly indefinite near-PSD matrices); anything more negative
    raises NotPositiveDefinite. The residual ||T^2 - A||_F is verified
    against resid_tol * max(1, ||A||_F), with clamp = DEFAULTS.psd_clamp
    and resid_tol = DEFAULTS.sqrt_residual.
    """
    clamp = DEFAULTS.psd_clamp
    w, v = sym_eigen(a)
    scale = max(fro_norm(a), 1e-300)
    if w[0] < -clamp * scale:
        raise NotPositiveDefinite(
            f"eigenvalue {w[0]:.3e} below -{clamp:.1e} * ||A||_F")
    w = np.clip(w, 0.0, None)
    T = (v * np.sqrt(w)) @ v.T
    T = 0.5 * (T + T.T)
    resid = fro_norm(T @ T - a)
    if resid > DEFAULTS.sqrt_residual * max(1.0, scale):
        raise LinalgError(f"sqrt residual {resid:.3e} out of tolerance")
    return T


def inverse_spd(a) -> np.ndarray:
    """Inverse of a positive definite matrix via Cholesky solves.

    Verifies ||A A^-1 - I||_F <= DEFAULTS.inverse_residual; raises
    NotPositiveDefinite when the factorization fails.
    """
    L = cholesky(a)
    n = a.shape[0]
    # Solve L L' X = I by forward then back substitution.
    y = np.linalg.solve(L, np.eye(n))
    inv = np.linalg.solve(L.T, y)
    inv = 0.5 * (inv + inv.T)
    resid = fro_norm(a @ inv - np.eye(n))
    if resid > DEFAULTS.inverse_residual:
        raise LinalgError(f"inverse residual {resid:.3e} out of tolerance")
    return inv
