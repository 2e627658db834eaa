import math

import numpy as np
import pytest

from quadround import (GaussianSampler, QuadraticMap, SimplexVector, gradient,
                       hull_point_from_witness, objective, precondition, solve)
import quadround.entropic_sdp as sdp_mod
from quadround.instances import random_map, random_witness

from conftest import make_map, make_simplex, near_rank_one, sandwich_instance


def test_objective_examples():
    m = QuadraticMap([np.eye(2), np.eye(2)])
    alpha = SimplexVector([0.4, 0.6])
    X = np.diag([0.25, 0.75])
    assert objective(m, alpha, X) == pytest.approx(0.0, abs=1e-15)

    m1 = QuadraticMap([np.diag([1.0, 2.0])])
    assert objective(m1, SimplexVector([1.0]),
                     np.diag([0.0, 1.0])) == pytest.approx(math.log(2.0), rel=1e-14)

    m2 = QuadraticMap([np.diag([1.0, 2.0]), np.diag([2.0, 1.0])])
    assert objective(m2, SimplexVector([0.5, 0.5]),
                     np.eye(2) / 2) == pytest.approx(math.log(1.5), rel=1e-14)


def test_gradient_examples():
    m = QuadraticMap([np.eye(3), np.eye(3)])
    G = gradient(m, SimplexVector([0.3, 0.7]), np.eye(3) / 3)
    assert np.allclose(G, np.eye(3), atol=1e-14)

    m1 = QuadraticMap([np.diag([1.0, 2.0])])
    G = gradient(m1, SimplexVector([1.0]), np.eye(2) / 2)
    assert np.allclose(G, np.diag([1.0, 2.0]) / 1.5, rtol=1e-14)


def test_gradient_matches_finite_differences():
    # central differences along random trace-zero symmetric directions; the
    # solver and its sphere polish evaluate f and G with the same routine
    sampler = GaussianSampler(41)
    checked = 0
    for trial in range(20):
        n = 2 + trial % 4
        k = 1 + trial % 5
        qmap = make_map(1000 + trial, n, k)
        alpha = make_simplex(2000 + trial, k)
        X0 = np.eye(n) / n
        D = sampler.normals((n, n))
        D = 0.5 * (D + D.T)
        D -= np.trace(D) / n * np.eye(n)
        D /= np.linalg.norm(D)
        h = 1e-6
        fd = (objective(qmap, alpha, X0 + h * D)
              - objective(qmap, alpha, X0 - h * D)) / (2 * h)
        analytic = float(np.sum(gradient(qmap, alpha, X0) * D))
        assert fd == pytest.approx(analytic, rel=1e-4, abs=1e-10)
        checked += 1
    assert checked == 20


def test_solve_k1_recovers_top_eigenvalue():
    qmap = QuadraticMap([np.diag([1.0, 2.0])])
    sol = solve(qmap, SimplexVector([1.0]))
    assert sol.converged
    assert sol.value == pytest.approx(math.log(2.0), abs=1e-6)
    assert np.allclose(sol.X_star, np.diag([0.0, 1.0]), atol=1e-6)


def test_solve_identity_forms_trivial():
    qmap = QuadraticMap([np.eye(3)] * 2)
    sol = solve(qmap, SimplexVector([0.5, 0.5]))
    assert sol.converged
    assert sol.iterations == 0
    assert sol.fw_gap == pytest.approx(0.0, abs=1e-12)
    assert sol.value == pytest.approx(0.0, abs=1e-12)


def _grid_max_2x2(qmap, alpha, t_step=1e-3, theta_step=1e-3):
    """Dense grid over the 2x2 spectahedron: X = t u u' + (1-t) v v'."""
    t = np.arange(0.5, 1.0 + t_step / 2, t_step)
    theta = np.arange(0.0, math.pi, theta_step)
    c, s = np.cos(theta), np.sin(theta)
    best = -np.inf
    al = alpha.values
    qu = []
    qv = []
    for i in range(qmap.k):
        Q = qmap.Q[i]
        qu.append(Q[0, 0] * c * c + 2 * Q[0, 1] * c * s + Q[1, 1] * s * s)
        # orthogonal direction (-s, c)
        qv.append(Q[0, 0] * s * s - 2 * Q[0, 1] * c * s + Q[1, 1] * c * c)
    for ti in t:
        total = np.zeros_like(theta)
        for i in range(qmap.k):
            total += al[i] * np.log(ti * qu[i] + (1.0 - ti) * qv[i])
        best = max(best, float(total.max()))
    return best


def test_solve_against_dense_grid():
    eps = 0.1
    qmap = QuadraticMap([np.diag([1.0, eps]), np.diag([eps, 1.0])])
    alpha = SimplexVector([0.5, 0.5])
    sol = solve(qmap, alpha)
    grid = _grid_max_2x2(qmap, alpha)
    assert sol.value == pytest.approx(grid, abs=1e-4)
    assert sol.fw_gap <= 1e-6


def test_solve_monotone_feasible_certified():
    for trial in range(8):
        n = 2 + trial % 5
        k = 1 + trial % 5
        qmap = make_map(3000 + trial, n, k)
        alpha = make_simplex(4000 + trial, k)
        sol = solve(qmap, alpha)
        assert sol.converged and sol.fw_gap <= 1e-6
        # feasibility of the returned point
        X = sol.X_star
        assert np.array_equal(X, X.T)
        assert abs(np.trace(X) - 1.0) <= 1e-9
        assert np.linalg.eigvalsh(X)[0] >= -1e-9
        # certificate: no feasible point beats value + gap
        sampler = GaussianSampler(50 + trial)
        for _ in range(50):
            Z = sampler.normals((n, n))
            W = Z @ Z.T
            W = W / np.trace(W)
            val = objective(qmap, alpha, W)
            assert val <= sol.value + sol.fw_gap + 1e-9
        # sandwich lower half: rank-one points cannot beat the relaxation
        for _ in range(50):
            x = sampler.normals((n,))
            x /= np.linalg.norm(x)
            val = objective(qmap, alpha, np.outer(x, x))
            assert val <= sol.value + sol.fw_gap + 1e-9


def test_solve_asserts_monotone_objective(monkeypatch):
    # a polish that lowers the objective trips the per-step guard; every
    # other solve in the suite runs under the same 1e-12 guard
    qmap = make_map(3001, 3, 4)
    alpha = make_simplex(4001, 4)
    start = objective(qmap, alpha, np.eye(3) / 3)
    # by concavity the worst coordinate vertex is below f(I / n)
    worst = min((np.diag(e) for e in np.eye(3)),
                key=lambda V: objective(qmap, alpha, V))
    assert objective(qmap, alpha, worst) < start - 1e-3

    def lowering(Qflat, al, X):
        return worst, sdp_mod._evaluate(Qflat, al, worst)

    monkeypatch.setattr(sdp_mod, "_sphere_polish", lowering)
    with pytest.raises(AssertionError, match="objective decreased"):
        solve(qmap, alpha)


def test_solve_reports_value_of_returned_point():
    # value is the objective at X_star itself, never an earlier iterate's
    cases = [sandwich_instance(seed, j)[:2]
             for seed in (1, 2, 3) for j in range(100)]
    cases += [near_rank_one(n, k, eps)[:2] for n in (2, 3, 4, 6, 8, 16)
              for k in (40, 160) for eps in (1e-2, 1e-4, 1e-6)]
    for qmap, alpha in cases:
        sol = solve(qmap, alpha)
        assert sol.value == objective(qmap, alpha, sol.X_star)


def test_solve_stall_stop_flags_non_convergence():
    # a gap tolerance below roundoff: the solve ends within a few outer
    # steps at the value of the tol = 1e-6 solve, either on a gap that
    # rounds to <= 1e-300 or on the stall stop, and converged says which.
    # On (5021, 5, 8) the gap stalls near 2e-10, so the flag must be False.
    for seed, n, k, stalls in [(5000, 4, 3, False), (5021, 5, 8, True)]:
        qmap = make_map(seed, n, k)
        alpha = make_simplex(seed + 1, k)
        sol = solve(qmap, alpha, tol=1e-300)
        assert sol.iterations <= 3
        assert abs(sol.value - solve(qmap, alpha, tol=1e-6).value) <= 1e-12
        assert sol.converged == (sol.fw_gap <= 1e-300)
        if stalls:
            assert not sol.converged
            assert sol.fw_gap > 0.0


@pytest.mark.parametrize("cap", [1e2, 1e6])
def test_solve_tail_case_converges_in_one_polish(cap):
    # preconditioned n = 4, k = 10 instance with a full-rank optimum (the
    # witness is drawn from the parent stream), the slow case for a
    # first-order polish: the factor's L-BFGS ascent must reach the gap
    # tolerance within two outer steps
    s = GaussianSampler(1038)
    qmap = random_map(s, 4, 10, cap)
    prec = precondition(qmap)
    Xh = prec.push_witness(random_witness(s, qmap))
    sol = solve(prec.hat, hull_point_from_witness(prec.hat, Xh))
    assert sol.converged
    assert sol.iterations <= 2
    assert sol.fw_gap <= 1e-6


def test_objective_fails_loudly_on_invariant_breach():
    # a non-PSD array (objective does not validate its point) must trip the
    # assertion, not return a silent nan
    qmap = QuadraticMap([np.diag([1e-6, 1.0])])
    bad = np.diag([1.5, -0.5])
    with pytest.raises(AssertionError):
        objective(qmap, SimplexVector([1.0]), bad)


def test_rescale_to_unit():
    # sol.rescale holds tau_i with <tau_i Q_i, X_star> = 1
    qmap = QuadraticMap([np.eye(2) * 2.0])
    sol = solve(qmap, SimplexVector([1.0]))
    # for Q = 2I: <Q, X> = 2 trace(X) = 2, tau = 1/2
    assert sol.rescale[0] == pytest.approx(0.5, rel=1e-12)
    assert np.sum(sol.rescale[0] * qmap.Q[0] * sol.X_star) == pytest.approx(1.0, rel=1e-12)

    qmap = QuadraticMap([np.diag([1.0, 2.0])])
    sol = solve(qmap, SimplexVector([1.0]))
    assert np.allclose(sol.rescale[0] * qmap.Q[0], np.diag([0.5, 1.0]), atol=1e-6)

    qmap = make_map(6000, 4, 3)
    alpha = make_simplex(6001, 3)
    sol = solve(qmap, alpha)
    assert np.all(sol.rescale > 0.0)
    vals = np.einsum("kij,ij->k", qmap.Q * sol.rescale[:, None, None], sol.X_star)
    assert np.allclose(vals, 1.0, atol=1e-9)
