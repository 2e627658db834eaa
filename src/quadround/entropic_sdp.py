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
with a polish phase: writing X = Y Y' with ||Y||_F = 1 turns the feasible
set into the Frobenius unit sphere, on which the objective has Riemannian
gradient 2 (G Y - Y); monotone backtracking ascent steps in Y converge to
the same KKT points (G Y = Y) without any feasibility boundary, and the
combined iteration reaches the threshold in a handful of outer steps. The
polish never decreases the objective and preserves feasibility exactly, so
the per-iteration monotonicity and the gap certificate are unaffected.

The optimum is generally not attained at an iterate exactly; the returned
gap is a true suboptimality certificate (value >= optimum - fw_gap) and is
reported alongside all downstream distance bounds rather than folded into
their constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULTS
from .linalg import sym_eigen
from .quadmap import QuadraticMap, SimplexVector


@dataclass
class SdpSolution:
    """Solver output: the point, its value, and the optimality certificate.

    X_star is the solver's array Y Y' with ||Y||_F = 1, PSD with unit trace
    by construction. rescale holds tau_i = 1 / <Q_i, X_star>, the positive
    factors that make the rescaled forms satisfy <tau_i Q_i, X_star> = 1;
    rounding uses them directly. converged is False when the iteration cap
    was reached with the gap still above tolerance. objective_trace records
    the objective at every outer iteration.
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
    """Monotone ascent of f(Y Y') over ||Y||_F = 1 starting at Y = X^(1/2).

    At most 200 steps of backtracking (Armijo) projected gradient ascent;
    the Riemannian gradient at Y is 2 (G Y - Y) because <2 G Y, Y> =
    2 <G, X> = 2. Returns a feasible X whose objective is at least the
    input's.
    """
    w, V = sym_eigen(X)
    Y = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
    nrm = float(np.linalg.norm(Y))
    if nrm == 0.0:
        return X
    Y = Y / nrm

    Xcur = Y @ Y.T
    val = objective(qmap, alpha, Xcur)
    step = 1.0
    for _ in range(200):
        G = gradient(qmap, alpha, Xcur)
        R = 2.0 * (G @ Y - Y)
        rn = float(np.linalg.norm(R))
        if rn < 1e-14:
            break
        improved = False
        for _ in range(40):
            Yt = Y + step * R
            Yt = Yt / np.linalg.norm(Yt)
            Xt = Yt @ Yt.T
            vt = objective(qmap, alpha, Xt)
            if vt > val + 1e-4 * step * rn * rn:
                Y, val, Xcur = Yt, vt, Xt
                improved = True
                step *= 1.3
                break
            step *= 0.5
        if not improved:
            break
    return 0.5 * (Xcur + Xcur.T)


def solve(qmap: QuadraticMap, alpha: SimplexVector,
          tol: float = DEFAULTS.fw_gap) -> SdpSolution:
    """Frank-Wolfe with exact line search and sphere polish; X_0 = I / n.

    Terminates when the gap <G, v v' - X> drops to tol or after
    DEFAULTS.fw_max_iters outer iterations (then converged=False; the result
    is still feasible and certified by its gap). The objective is
    nondecreasing across iterations, asserted per step.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if alpha.k != qmap.k:
        raise ValueError("weight vector length must match the number of forms")
    max_iters = DEFAULTS.fw_max_iters
    n = qmap.n
    Qstack = qmap.Q
    al = alpha.values
    X = np.eye(n) / n
    trace_log: list[float] = []
    gap = np.inf
    iterations = 0
    converged = False
    prev_val = -np.inf
    for it in range(max_iters + 1):
        val = objective(qmap, alpha, X)
        if val < prev_val - 1e-12:
            raise AssertionError(
                f"objective decreased from {prev_val!r} to {val!r} at iteration {it}")
        prev_val = val
        trace_log.append(val)
        G = gradient(qmap, alpha, X)
        wG, VG = sym_eigen(G)
        v = VG[:, -1]
        gap = float(wG[-1] - np.sum(G * X))
        iterations = it
        if gap <= tol:
            converged = True
            break
        if it == max_iters:
            break
        c = _inner_values(Qstack, X)
        d = np.einsum("kij,i,j->k", Qstack, v, v)
        gamma = _line_search(al, c, d)
        X = (1.0 - gamma) * X + gamma * np.outer(v, v)
        X = _sphere_polish(qmap, alpha, X)

    return SdpSolution(
        X_star=X,
        value=objective(qmap, alpha, X),
        fw_gap=gap,
        iterations=iterations,
        rescale=1.0 / _inner_values(Qstack, X),
        converged=converged,
        objective_trace=trace_log,
    )

