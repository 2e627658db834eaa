"""Concave relaxation max sum_i alpha_i ln <Q_i, X> over the spectahedron.

The feasible set is {X PSD, trace(X) = 1}. The objective is concave (ln of
a positive linear functional), finite everywhere on the feasible set because
the forms are positive definite, and its exact differential is

    grad(X) = sum_i (alpha_i / <Q_i, X>) Q_i ,

a positive definite matrix. The solver is Frank-Wolfe: the linear
maximization oracle over the spectahedron is a top eigenvector v of the
gradient (argmax of <G, .> is v (x) v), the duality gap <G, v v' - X> upper
bounds the suboptimality by concavity, and the step size comes from an exact
one-dimensional line search (bisection on the derivative of the concave
function gamma -> f((1 - gamma) X + gamma v v')).

Plain Frank-Wolfe alternates between near-parallel vertices when the
maximizer is rank deficient and its gap then decays like 1/t, which is far
too slow for the 1e-6 termination threshold. Each iteration therefore ends
with a polish: writing X = Y Y' / ||Y||_F^2 over a square factor Y removes
the feasibility boundary, and one L-BFGS-B run on the scale-invariant
ln ||Y||_F^2 - sum_i alpha_i ln <Q_i, Y Y'> climbs to a KKT point (G Y = Y).
The FW vertex step stays as its warm start, which is exact in one step on
a rank-one optimum; typically one outer step meets the threshold. The
polish never decreases the objective and returns a feasible point, so the
per-iteration monotonicity and the gap certificate are unaffected. When
roundoff keeps the gap above the tolerance, an outer step that no longer
raises the objective stops the solve, flagged as not converged.

The optimum is generally not attained at an iterate exactly; the returned
gap is a true suboptimality certificate (value >= optimum - fw_gap) and is
reported alongside all downstream distance bounds rather than folded into
their constants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .config import DEFAULTS
from .linalg import sym_eigen
from .quadmap import QuadraticMap, SimplexVector


@dataclass
class SdpSolution:
    """Solver output: the point, its value, and the optimality certificate.

    X_star is the solver's last iterate, Y Y' / trace(Y Y') after a
    polish, PSD with unit trace by construction. rescale holds
    tau_i = 1 / <Q_i, X_star>, the positive factors that make the rescaled
    forms satisfy <tau_i Q_i, X_star> = 1; rounding uses them directly.
    converged is False when the solve stopped on a stalled objective with
    the gap still above tolerance. objective_trace records the objective
    at every outer iteration.
    """

    X_star: np.ndarray
    value: float
    fw_gap: float
    iterations: int
    rescale: np.ndarray
    converged: bool
    objective_trace: list = field(default_factory=list)


def _inner_values(Qstack: np.ndarray, X: np.ndarray) -> np.ndarray:
    vals = np.einsum("kij,ij->k", Qstack, X)
    if np.any(vals <= 0.0):
        raise AssertionError(
            "some <Q_i, X> <= 0 on the spectahedron; the positive "
            "definiteness invariant was breached upstream")
    return vals


def objective(qmap: QuadraticMap, alpha: SimplexVector, X: np.ndarray) -> float:
    """sum_i alpha_i ln <Q_i, X>; finite by positive definiteness."""
    if alpha.k != qmap.k:
        raise ValueError("weight vector length must match the number of forms")
    vals = _inner_values(qmap.Q, X)
    return float(np.sum(alpha.values * np.log(vals)))


def gradient(qmap: QuadraticMap, alpha: SimplexVector, X: np.ndarray) -> np.ndarray:
    """Exact differential sum_i (alpha_i / <Q_i, X>) Q_i; positive definite."""
    if alpha.k != qmap.k:
        raise ValueError("weight vector length must match the number of forms")
    vals = _inner_values(qmap.Q, X)
    return np.einsum("k,kij->ij", alpha.values / vals, qmap.Q)


def _line_search(alpha: np.ndarray, c: np.ndarray, d: np.ndarray) -> float:
    """Maximize gamma -> sum alpha ln((1-gamma) c + gamma d) over [0, 1].

    The function is concave; bisect on its derivative down to a bracket of
    width DEFAULTS.line_search. c and d are the per-form inner products at
    the current point and at the vertex.
    """
    diff = d - c

    def deriv(g: float) -> float:
        return float(np.sum(alpha * diff / (c + g * diff)))

    if deriv(1.0) >= 0.0:
        return 1.0
    if deriv(0.0) <= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > DEFAULTS.line_search:
        mid = 0.5 * (lo + hi)
        if deriv(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _sphere_polish(qmap: QuadraticMap, alpha: SimplexVector,
                   X: np.ndarray) -> np.ndarray:
    """Ascent of f(Y Y' / ||Y||_F^2) over the n x n factor Y from Y = X^(1/2).

    L-BFGS-B minimizes ln ||Y||_F^2 - sum_i alpha_i ln <Q_i, Y Y'>, which is
    scale invariant, so the iterates need no projection onto the sphere;
    its gradient is 2 (Y / ||Y||_F^2 - G Y) with G = sum_i (alpha_i / q_i)
    Q_i. Returns Y Y' / trace, symmetrized, or the input X if that value is
    lower, so the objective never decreases.
    """
    n, al = qmap.n, alpha.values
    Qflat = qmap.Q.reshape(qmap.k, n * n)

    def neg(y):
        Y = y.reshape(n, n)
        q = Qflat @ (Y @ Y.T).ravel()
        G = ((al / q) @ Qflat).reshape(n, n)
        sq = float(y @ y)
        grad = 2.0 * (Y / sq - G @ Y)
        return math.log(sq) - float(al @ np.log(q)), grad.ravel()

    w, V = sym_eigen(X)
    Y0 = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
    res = minimize(neg, Y0.ravel(), jac=True, method="L-BFGS-B",
                   options={"gtol": 1e-14, "ftol": 1e-16, "maxiter": 400})
    Y = res.x.reshape(n, n)
    Xt = Y @ Y.T
    Xt = 0.5 * (Xt + Xt.T) / np.trace(Xt)
    if objective(qmap, alpha, Xt) < objective(qmap, alpha, X):
        return X
    return Xt


def solve(qmap: QuadraticMap, alpha: SimplexVector,
          tol: float = DEFAULTS.fw_gap) -> SdpSolution:
    """Frank-Wolfe with exact line search and sphere polish; X_0 = I / n.

    Terminates when the gap <G, v v' - X> drops to tol (converged=True) or
    when an outer step did not raise the objective (converged=False; the
    result is still feasible and certified by its gap). Every step that does
    not stop strictly raises a float objective that is bounded above, so
    the loop ends. The objective is nondecreasing across iterations,
    asserted per step.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if alpha.k != qmap.k:
        raise ValueError("weight vector length must match the number of forms")
    n = qmap.n
    Qstack = qmap.Q
    al = alpha.values
    X = np.eye(n) / n
    trace_log: list[float] = []
    prev_val = -np.inf
    for it in itertools.count():
        val = objective(qmap, alpha, X)
        if val < prev_val - 1e-12:
            raise AssertionError(
                f"objective decreased from {prev_val!r} to {val!r} at iteration {it}")
        trace_log.append(val)
        G = gradient(qmap, alpha, X)
        wG, VG = sym_eigen(G)
        v = VG[:, -1]
        gap = float(wG[-1] - np.sum(G * X))
        if gap <= tol or val <= prev_val:
            break
        prev_val = val
        c = _inner_values(Qstack, X)
        d = np.einsum("kij,i,j->k", Qstack, v, v)
        gamma = _line_search(al, c, d)
        X = (1.0 - gamma) * X + gamma * np.outer(v, v)
        X = _sphere_polish(qmap, alpha, X)

    return SdpSolution(
        X_star=X,
        value=objective(qmap, alpha, X),
        fw_gap=gap,
        iterations=it,
        rescale=1.0 / _inner_values(Qstack, X),
        converged=gap <= tol,
        objective_trace=trace_log,
    )

