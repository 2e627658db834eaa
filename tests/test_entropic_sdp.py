import json
import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize

from quadround import (GaussianSampler, QuadraticMap, SimplexVector,
                       hull_point_from_witness, precondition, solve)
from quadround._util import brentq, scipy_core
from quadround.config import DEFAULTS
from quadround.linalg import sqrt_psd
import quadround.entropic_sdp as sdp_mod
from quadround.instances import random_map, random_witness

from conftest import (gradient, make_map, make_preconditioned, make_simplex,
                      near_rank_one, objective, sandwich_instance)


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


def test_line_search_exact_endpoints():
    # derivative >= 0 at 1 gives exactly 1, <= 0 at 0 exactly 0; the
    # weights, c and d are chosen so the zero derivatives are exact in floats
    ls = sdp_mod._line_search
    one = np.ones(2)
    assert ls(np.array([1.0]), np.array([1.0]), np.array([2.0])) == 1.0
    assert ls(np.array([0.5, 0.5]), one, one) == 1.0
    assert ls(np.array([0.5, 0.25]), one, np.array([2.0, 0.5])) == 1.0
    assert ls(np.array([0.5, 0.25]), one, np.array([1.25, 0.5])) == 0.0
    assert ls(np.array([1.0]), np.array([2.0]), np.array([1.0])) == 0.0


def test_line_search_interior_matches_grid():
    # the maximizer of the concave function on a grid refined around the
    # sign change of its derivative; values alone place it only to about
    # 1e-8, because f is flat to roundoff there
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 20:
        k = int(rng.integers(2, 6))
        al = rng.dirichlet(np.ones(k))
        c, d = rng.uniform(0.1, 2.0, k), rng.uniform(0.01, 3.0, k)

        def deriv(g):
            return (al * (d - c) / (c + np.multiply.outer(g, d - c))).sum(-1)

        if deriv(1.0) >= 0.0 or deriv(0.0) <= 0.0:
            continue
        lo, hi = 0.0, 1.0
        for _ in range(3):
            g = np.linspace(lo, hi, 10001)
            i = int(np.argmax(deriv(g) <= 0.0))
            lo, hi = g[i - 1], g[i]
        assert sdp_mod._line_search(al, c, d) == pytest.approx(0.5 * (lo + hi), abs=1e-9)
        checked += 1


def test_line_search_matches_scipy_brentq():
    # the line search calls the compiled Brent core that scipy's brentq
    # calls, with brentq's arguments: the same root, bit for bit, on
    # random interior brackets
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 200:
        k = int(rng.integers(1, 8))
        al = rng.dirichlet(np.ones(k))
        c, d = rng.uniform(0.01, 3.0, k), rng.uniform(0.01, 3.0, k)
        diff = d - c

        def deriv(g):
            return float(np.sum(al * diff / (c + g * diff)))

        if deriv(1.0) >= 0.0 or deriv(0.0) <= 0.0:
            continue
        want = scipy.optimize.brentq(deriv, 0.0, 1.0, xtol=DEFAULTS.root)
        assert sdp_mod._line_search(al, c, d) == want
        checked += 1


def test_brentq_refuses_nan_and_missing_core():
    # a NaN value stops the root finder with ValueError, as in scipy's
    # brentq; a core that scipy does not ship raises ImportError
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.25 else -1.0, 0.0, 1.0, 1e-12)
    for name in ("optimize._no_such_core", "integrate._no_such_core"):
        with pytest.raises(ImportError, match=name):
            scipy_core(name)


def test_scipy_core_loads_quadpack_without_scipy_integrate():
    # QUADPACK's core loads by file and leaves scipy.integrate (and the
    # scipy.optimize it imports) unloaded; importing scipy.integrate later
    # still works, and its quad still integrates
    code = """
import json, sys
from quadround._util import scipy_core
value, _, ier = scipy_core("integrate._quadpack")._qagse(
    lambda x: x, 0.0, 1.0, (), 0, 1e-10, 1e-12, 50)
loaded = [m for m in sys.modules
          if m.startswith(("scipy.integrate", "scipy.optimize"))]
import scipy.integrate
print(json.dumps([value, ier, loaded,
                  scipy.integrate.quad(lambda x: x * x, 0.0, 3.0)[0]]))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    value, ier, loaded, cube = json.loads(proc.stdout)
    assert (value, ier, loaded) == (0.5, 0, [])
    assert cube == pytest.approx(9.0, rel=1e-14)


def _polish_cases():
    """The seed-1 sandwich instances and three preconditioned n = 64 maps."""
    cases = [sandwich_instance(1, j)[:2] for j in range(100)]
    for seed in range(3):
        prec, Xh = make_preconditioned(700 + seed, 64, 10)
        cases.append((prec.hat, hull_point_from_witness(prec.hat, Xh)))
    return cases


def test_polish_matches_scipy_minimize_bit_for_bit(monkeypatch):
    # the polish drives scipy's L-BFGS-B core itself; from every point
    # solve polishes on the cases, it returns what the same ascent through
    # scipy.optimize.minimize returns, bit for bit. A scipy release that
    # changes the core's arguments or its iterates fails here.
    starts = []
    polish = sdp_mod._sphere_polish

    def recording(Qflat, al, X):
        starts.append((Qflat, al, X.copy()))
        return polish(Qflat, al, X)

    monkeypatch.setattr(sdp_mod, "_sphere_polish", recording)
    for qmap, alpha in _polish_cases():
        solve(qmap, alpha)
    assert len(starts) > 100
    for Qflat, al, X in starts:
        n = X.shape[0]

        def neg(y):
            Y = y.reshape(n, n)
            _, f, G = sdp_mod._evaluate(Qflat, al, Y @ Y.T)
            sq = float(y @ y)
            return math.log(sq) - f, (2.0 * (Y / sq - G @ Y)).ravel()

        res = scipy.optimize.minimize(
            neg, sqrt_psd(X).ravel(), jac=True, method="L-BFGS-B",
            options={"gtol": 1e-9, "ftol": 1e-16, "maxiter": 400})
        Y = res.x.reshape(n, n)
        Xt = Y @ Y.T
        Xt = 0.5 * (Xt + Xt.T) / np.trace(Xt)
        before, after = (sdp_mod._evaluate(Qflat, al, Z) for Z in (X, Xt))
        want, value = (X, before[1]) if after[1] < before[1] else (Xt, after[1])
        got = polish(Qflat, al, X)
        assert np.array_equal(got[0], want) and got[1][1] == value


def test_polish_stop_matches_roundoff_reference(monkeypatch):
    # the polish stops at gtol 1e-9; run to gtol 1e-14 (roundoff) it gains
    # at most 1e-14 on the seed-1 sandwich instances and n = 64 maps
    cases = _polish_cases()
    sols = [solve(qmap, alpha) for qmap, alpha in cases]
    monkeypatch.setattr(sdp_mod, "_POLISH_GTOL", 1e-14)
    for (qmap, alpha), sol in zip(cases, sols):
        ref = solve(qmap, alpha)
        assert sol.converged and ref.converged
        assert abs(sol.value - ref.value) <= 1e-14


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


def test_solve_rejects_mismatched_weights():
    with pytest.raises(ValueError, match="number of forms"):
        solve(make_map(3002, 3, 4), make_simplex(4002, 3))


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
