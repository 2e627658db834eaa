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

One private routine computes <Q_i, X>, the objective and the gradient;
objective, gradient, the solver and its polish all call it.

The optimum is generally not attained at an iterate exactly; the returned
gap is a true suboptimality certificate (value >= optimum - fw_gap) and is
reported alongside all downstream distance bounds rather than folded into
their constants.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .config import DEFAULTS
from .linalg import sym_eigen
from .quadmap import QuadraticMap, SimplexVector


@dataclass
class SdpSolution:
    """Solver output: the point, its value, and the optimality certificate.

    X_star is the solver's last iterate, Y Y' / trace(Y Y') after a
    polish, PSD with unit trace by construction. value and rescale come
    from the one evaluation of X_star: value = sum_i alpha_i ln q_i and
    rescale holds tau_i = 1 / q_i with q_i = <Q_i, X_star>, the positive
    factors that make the rescaled forms satisfy <tau_i Q_i, X_star> = 1;
    rounding uses them directly. converged is False when the solve stopped
    on a stalled objective with the gap still above tolerance.
    """

    X_star: np.ndarray
    value: float
    fw_gap: float
    iterations: int
    rescale: np.ndarray
    converged: bool


def _operands(qmap: QuadraticMap, alpha: SimplexVector):
    """The (k, n^2) view of the form stack and the weights, checked to match."""
    if alpha.k != qmap.k:
        raise ValueError("weight vector length must match the number of forms")
    return qmap.Q.reshape(qmap.k, -1), alpha.values


def _evaluate(Qflat: np.ndarray, al: np.ndarray, X: np.ndarray):
    """q_i = <Q_i, X>, f = sum_i al_i ln q_i and G = sum_i (al_i / q_i) Q_i.

    Qflat is the (k, n^2) view of the forms; X need not have unit trace.
    A q_i <= 0 breaches positive definiteness and raises AssertionError.
    """
    q = Qflat @ X.ravel()
    if np.any(q <= 0.0):
        raise AssertionError(
            "some <Q_i, X> <= 0 on the spectahedron; the positive "
            "definiteness invariant was breached upstream")
    return q, float(al @ np.log(q)), ((al / q) @ Qflat).reshape(X.shape)


def objective(qmap: QuadraticMap, alpha: SimplexVector, X: np.ndarray) -> float:
    """sum_i alpha_i ln <Q_i, X>; finite by positive definiteness."""
    return _evaluate(*_operands(qmap, alpha), X)[1]


def gradient(qmap: QuadraticMap, alpha: SimplexVector, X: np.ndarray) -> np.ndarray:
    """Exact differential sum_i (alpha_i / <Q_i, X>) Q_i; positive definite."""
    return _evaluate(*_operands(qmap, alpha), X)[2]


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


def _sphere_polish(Qflat: np.ndarray, al: np.ndarray, X: np.ndarray):
    """Ascent of f(Y Y' / ||Y||_F^2) over the n x n factor Y from Y = X^(1/2).

    L-BFGS-B minimizes ln ||Y||_F^2 - f(Y Y'), which is scale invariant, so
    the iterates need no projection onto the sphere; its gradient is
    2 (Y / ||Y||_F^2 - G Y) with f and G from _evaluate at Y Y'. Returns
    Y Y' / trace, symmetrized, with its evaluation, or X with its
    evaluation if that value is higher, so the objective never decreases.
    """
    n = X.shape[0]

    def neg(y):
        Y = y.reshape(n, n)
        _, f, G = _evaluate(Qflat, al, Y @ Y.T)
        sq = float(y @ y)
        return math.log(sq) - f, (2.0 * (Y / sq - G @ Y)).ravel()

    w, V = sym_eigen(X)
    Y0 = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
    res = minimize(neg, Y0.ravel(), jac=True, method="L-BFGS-B",
                   options={"gtol": 1e-14, "ftol": 1e-16, "maxiter": 400})
    Y = res.x.reshape(n, n)
    Xt = Y @ Y.T
    Xt = 0.5 * (Xt + Xt.T) / np.trace(Xt)
    before, after = _evaluate(Qflat, al, X), _evaluate(Qflat, al, Xt)
    if after[1] < before[1]:
        return X, before
    return Xt, after


def solve(qmap: QuadraticMap, alpha: SimplexVector,
          tol: float = DEFAULTS.fw_gap) -> SdpSolution:
    """Frank-Wolfe with exact line search and sphere polish; X_0 = I / n.

    Terminates when the gap <G, v v' - X> drops to tol (converged=True) or
    when an outer step did not raise the objective (converged=False; the
    result is still feasible and certified by its gap). Every step that does
    not stop strictly raises a float objective that is bounded above, so
    the loop ends. The objective is nondecreasing across iterations,
    asserted per step. Each iterate is evaluated once.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    Qflat, al = _operands(qmap, alpha)
    X = np.eye(qmap.n) / qmap.n
    q, val, G = _evaluate(Qflat, al, X)
    prev_val = -np.inf
    for it in itertools.count():
        if val < prev_val - 1e-12:
            raise AssertionError(
                f"objective decreased from {prev_val!r} to {val!r} at iteration {it}")
        wG, VG = sym_eigen(G)
        v = VG[:, -1]
        gap = float(wG[-1] - np.sum(G * X))
        if gap <= tol or val <= prev_val:
            break
        prev_val = val
        vertex = np.outer(v, v)
        gamma = _line_search(al, q, _evaluate(Qflat, al, vertex)[0])
        X, (q, val, G) = _sphere_polish(Qflat, al,
                                        (1.0 - gamma) * X + gamma * vertex)

    return SdpSolution(
        X_star=X,
        value=val,
        fw_gap=gap,
        iterations=it,
        rescale=1.0 / q,
        converged=gap <= tol,
    )
