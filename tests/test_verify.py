import math
import types

import numpy as np
import pytest
from scipy.optimize import minimize

from quadround import (GaussianSampler, QuadraticMap, SimplexVector,
                       check_sandwich, mc_abs_log_moment, mc_rank_m_abs_log,
                       mc_tail, phi, sphere_max_oracle)
import quadround.verify as verify_mod
from quadround.verify import (SUITES, abs_log, mc_estimates, suite_constants,
                              suite_lemma21, suite_lemma51, suite_sandwich,
                              tail_indicator)

from conftest import make_map, make_simplex, near_rank_one, sandwich_instance


def test_sphere_oracle_trivials(sampler):
    qmap = QuadraticMap([np.eye(3), np.eye(3)])
    alpha = SimplexVector([0.3, 0.7])
    assert sphere_max_oracle(qmap, alpha, sampler) == pytest.approx(
        0.0, abs=1e-10)
    # k = 1: the Rayleigh quotient maximum is the top eigenvalue
    qmap1 = QuadraticMap([np.diag([1.0, 1.5, 2.0])])
    val = sphere_max_oracle(qmap1, SimplexVector([1.0]), sampler)
    assert val == pytest.approx(math.log(2.0), abs=1e-8)
    # n = 2 grid starts
    qmap2 = QuadraticMap([np.diag([1.0, 2.0])])
    val2 = sphere_max_oracle(qmap2, SimplexVector([1.0]), sampler)
    assert val2 == pytest.approx(math.log(2.0), abs=1e-10)


def _grid_sphere_max(qmap, alpha):
    """Reference n = 2 sphere maximum: 10^6 equispaced angles on [0, pi)."""
    theta = np.linspace(0.0, math.pi, 10 ** 6, endpoint=False)
    c, s = np.cos(theta), np.sin(theta)
    total = np.zeros(theta.size)
    for i in range(qmap.k):
        Q = qmap.Q[i]
        q = Q[0, 0] * c * c + 2.0 * Q[0, 1] * c * s + Q[1, 1] * s * s
        total += alpha.values[i] * np.log(q)
    return float(total.max())


def test_sphere_oracle_against_dense_grid():
    # the n = 2 oracle is exact to roundoff: never below the dense grid,
    # and above it by at most the grid's resolution error
    for trial in range(5):
        qmap = make_map(300 + trial, 2, 3)
        alpha = make_simplex(400 + trial, 3)
        grid = _grid_sphere_max(qmap, alpha)
        val = sphere_max_oracle(qmap, alpha, GaussianSampler(1))
        assert grid - 1e-12 <= val <= grid + 1e-9


def test_sphere_oracle_constant_map_caps_ascents(monkeypatch):
    # a constant map makes nearly every grid angle a peak; the oracle still
    # starts at most _ORACLE_RESTARTS ascents
    calls = []
    ascend = verify_mod._ascend

    def counting(*args):
        calls.append(1)
        return ascend(*args)

    monkeypatch.setattr(verify_mod, "_ascend", counting)
    qmap = QuadraticMap([np.eye(2)] * 3)
    val = sphere_max_oracle(qmap, SimplexVector([1 / 3] * 3),
                            GaussianSampler(1))
    assert val == pytest.approx(0.0, abs=1e-10)
    assert 1 <= len(calls) <= verify_mod._ORACLE_RESTARTS


def _per_start_reference(qmap, alpha, sampler):
    """Best of one converged L-BFGS-B ascent per oracle start (n >= 3).

    Draws the oracle's starts from a sampler in the same state and ascends
    from each with its own scipy call: gtol 1e-14, ftol 1e-16 and scipy's
    default iteration cap.
    """
    Q, al = qmap.Q, alpha.values

    def neg(x):
        Qx = Q @ x
        q = Qx @ x
        sq = float(x @ x)
        return (math.log(sq) - float(al @ np.log(q)),
                2.0 * x / sq - 2.0 * (al / q) @ Qx)

    best = -math.inf
    for _ in range(verify_mod._ORACLE_RESTARTS):
        x0 = sampler.normals((qmap.n,))
        if not np.any(x0):
            continue
        res = minimize(neg, x0 / np.linalg.norm(x0), jac=True,
                       method="L-BFGS-B",
                       options={"gtol": 1e-14, "ftol": 1e-16})
        x = res.x / np.linalg.norm(res.x)
        best = max(best, float(al @ np.log((Q @ x) @ x)))
    return best


def test_sphere_oracle_matches_per_start_reference():
    # the oracle's stop rule loses nothing measurable against ascents run to
    # gtol 1e-14 from the same starts (measured within 9e-16; gtol 1e-5
    # would lose 4.7e-11), and each start keeps its own trajectory: one
    # stacked L-BFGS-B call over all starts ends up to 0.13 lower here
    cases = [sandwich_instance(1, j)
             for j in [j for j in range(100) if j % 5][:10]]
    for n in (3, 4, 6):
        for k in (40, 160):
            for eps in (1e-4, 1e-6):
                cases.append(near_rank_one(n, k, eps))
    for qmap, alpha, s in cases:
        # two samplers in the state of s: the oracle's and the reference's
        val = sphere_max_oracle(qmap, alpha, GaussianSampler(s.seed, s.jumps))
        ref = _per_start_reference(qmap, alpha,
                                   GaussianSampler(s.seed, s.jumps))
        assert val >= ref - 1e-12, (qmap.n, qmap.k, val - ref)


def test_ascend_matches_scipy_minimize_bit_for_bit(monkeypatch):
    # _ascend drives scipy's L-BFGS-B core itself; from every start of the
    # seed-1 sandwich instances (n = 2 grid peaks, n >= 3 random starts) and
    # of the near-rank-one grid it ends at the value scipy.optimize.minimize
    # ends at, calling the objective as often. A scipy release that changes
    # the core's arguments or its iterates fails here.
    starts = []
    ascend = verify_mod._ascend
    monkeypatch.setattr(verify_mod, "_ascend", lambda Q, al, x0: (
        starts.append((Q, al, np.array(x0))) or 0.0))
    cases = [sandwich_instance(1, j)
             for j in range(verify_mod._SANDWICH_INSTANCES)]
    cases += [near_rank_one(n, k, eps) for n in (2, 3, 4, 6, 8, 16)
              for k in (40, 160) for eps in (1e-2, 1e-4, 1e-6)]
    for qmap, alpha, s in cases:
        sphere_max_oracle(qmap, alpha, s)
    assert len(starts) > 2000

    calls = [0]

    def counting_log(v):
        calls[0] += 1
        return math.log(v)

    # the objective calls math.log once per evaluation
    monkeypatch.setattr(verify_mod, "math",
                        types.SimpleNamespace(log=counting_log))
    for Q, al, x0 in starts:
        ref_calls = [0]

        def neg(x):
            ref_calls[0] += 1
            q = np.einsum("kij,i,j->k", Q, x, x)
            sq = float(x @ x)
            grad = 2.0 * (x / sq - np.einsum("k,kij,j->i", al / q, Q, x))
            return math.log(sq) - float(al @ np.log(q)), grad

        res = minimize(neg, x0, jac=True, method="L-BFGS-B",
                       options={"gtol": 1e-9, "ftol": 1e-16, "maxiter": 400})
        x = res.x / np.linalg.norm(res.x)
        ref = float(np.sum(al * np.log(np.einsum("kij,i,j->k", Q, x, x))))
        calls[0] = 0
        assert ascend(Q, al, x0) == ref, (Q.shape, res.message)
        assert calls[0] == ref_calls[0] == res.nfev, res.message


def test_check_sandwich_trivial_and_random(sampler):
    qmap = QuadraticMap([np.eye(2)] * 3)
    rep = check_sandwich(qmap, SimplexVector([1 / 3] * 3), sampler)
    assert rep.lower_ok and rep.upper_ok
    assert rep.sphere_value == pytest.approx(0.0, abs=1e-9)
    assert rep.sdp_value == pytest.approx(0.0, abs=1e-9)

    qmap1 = QuadraticMap([np.diag([0.5, 2.0, 1.0])])
    rep = check_sandwich(qmap1, SimplexVector([1.0]), sampler)
    # relaxation is tight for a single form
    assert rep.excess == pytest.approx(0.0, abs=1e-6)

    for trial in range(10):
        qmap = make_map(500 + trial, 2 + trial % 5, 1 + trial % 5)
        alpha = make_simplex(600 + trial, qmap.k)
        rep = check_sandwich(qmap, alpha, GaussianSampler(700 + trial))
        assert rep.lower_ok and rep.upper_ok
        assert rep.excess <= 4.8


def test_check_sandwich_near_rank_one_corpus():
    # adversarial family Q_i = v_i v_i' + eps I, unit v_i in general
    # position, k >> n, uniform a: the relaxation sits well above the sphere
    # maximum (measured excess 0.20-0.67, the random corpus peaks below
    # 0.01), and both sandwich inequalities must still hold
    excess = []
    for n in (2, 3, 4, 6):
        for k in (40, 160):
            for eps in (1e-2, 1e-4):
                rep = check_sandwich(*near_rank_one(n, k, eps))
                assert rep.lower_ok and rep.upper_ok, (n, k, eps)
                excess.append(rep.excess)
    assert max(excess) > 0.5


def test_mc_abs_log_moment_rank_one():
    est = mc_abs_log_moment(SimplexVector([1.0]), 10 ** 5, GaussianSampler(1))
    assert abs(est.mean - 1.76) <= max(0.03, 3 * est.stderr)
    assert est.mean < 2.75
    assert est.samples == 10 ** 5
    with pytest.raises(ValueError):
        mc_abs_log_moment(SimplexVector([1.0]), 100, GaussianSampler(1))


def test_mc_abs_log_moment_concentration():
    # near-uniform spectrum in high dimension: q concentrates at its mean
    n = 10 ** 4
    form = SimplexVector(np.full(n, 1.0 / n))
    est = mc_abs_log_moment(form, 2000, GaussianSampler(2))
    assert est.mean < 0.1


def test_mc_abs_log_moment_random_forms():
    for trial in range(5):
        lam = make_simplex(800 + trial, 3 + trial)
        est = mc_abs_log_moment(lam, 10 ** 4, GaussianSampler(900 + trial))
        assert est.mean < 2.75 + 3 * est.stderr


def test_mc_tail():
    # chi-square survival at 6 via the complementary error function
    est = mc_tail(SimplexVector([1.0]), 1, 6.0, 10 ** 5, GaussianSampler(3))
    exact = math.erfc(math.sqrt(3.0))
    assert abs(est.mean - exact) <= 3 * est.stderr + 1e-4
    assert est.mean <= phi(6.0)

    # m = 10 at t = 2 stays below the Laplace bound exp(5 (1 - 2 + ln 2))
    est = mc_tail(SimplexVector([0.6, 0.4]), 10, 2.0, 10 ** 4, GaussianSampler(4))
    assert est.mean <= math.exp(5.0 * (1.0 - 2.0 + math.log(2.0))) + 3 * est.stderr

    # t = 1: the bound is 1, trivially satisfied
    est = mc_tail(SimplexVector([1.0]), 1, 1.0, 10 ** 3, GaussianSampler(5))
    assert est.mean <= 1.0
    with pytest.raises(ValueError):
        mc_tail(SimplexVector([1.0]), 1, 0.0, 10 ** 3, GaussianSampler(5))


def test_mc_rank_m_abs_log():
    est = mc_rank_m_abs_log(SimplexVector([1.0]), 1, 10 ** 4, GaussianSampler(6))
    assert abs(est.mean - 1.76) <= 0.1
    assert est.mean <= 6.0

    est = mc_rank_m_abs_log(SimplexVector([1.0]), 100, 10 ** 4, GaussianSampler(7))
    assert est.mean <= 0.6 + 3 * est.stderr

    est = mc_rank_m_abs_log(SimplexVector([0.5, 0.5]), 4, 10 ** 4,
                            GaussianSampler(8))
    assert est.mean <= 3.0 + 3 * est.stderr


def test_mc_threads_bit_identical():
    form = SimplexVector([0.3, 0.7])
    e1 = mc_abs_log_moment(form, 10 ** 5, GaussianSampler(10), threads=1)
    e2 = mc_abs_log_moment(form, 10 ** 5, GaussianSampler(10), threads=4)
    assert e1.mean == e2.mean and e1.stderr == e2.stderr


def test_mc_estimates_one_pass_matches_single_estimators():
    # the shared pass gives each reducer exactly what its own estimator gives
    form = SimplexVector([0.2, 0.5, 0.3])
    for m in (1, 4):
        est, tail = mc_estimates(form, m, 5000, GaussianSampler(13),
                                 [abs_log, tail_indicator(2.0)])
        assert est == mc_rank_m_abs_log(form, m, 5000, GaussianSampler(13))
        assert tail == mc_tail(form, m, 2.0, 5000, GaussianSampler(13))
    assert mc_abs_log_moment(form, 5000, GaussianSampler(13)) == \
        mc_rank_m_abs_log(form, 1, 5000, GaussianSampler(13))
    with pytest.raises(ValueError):
        mc_estimates(form, 1, 999, GaussianSampler(13), [abs_log])


def test_mean_squares_m1_is_squared_box_muller():
    sq = GaussianSampler(14).mean_squares(1, (50, 3))
    assert np.array_equal(sq, GaussianSampler(14).normals((50, 3)) ** 2)
    with pytest.raises(ValueError):
        GaussianSampler(14).mean_squares(0, (5,))


def _direct_average(lam, m, rows, sampler):
    """q_m from m explicit Gaussian draws per sample, no Gamma identity."""
    x = sampler.normals((rows, m, lam.size))
    return (x ** 2 @ lam).mean(axis=1)


def _mean_se(vals):
    return vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size)


@pytest.mark.parametrize("m", [4, 16, 100])
def test_gamma_law_matches_direct_gaussian_average(m):
    lam = np.array([0.55, 0.3, 0.1, 0.05])
    rows = 20000
    t = 1.0 + 3.0 / math.sqrt(m)
    est, tail, mean = mc_estimates(SimplexVector(lam), m, rows,
                                   GaussianSampler(20 + m),
                                   [abs_log, tail_indicator(t), lambda q: q])
    qm = _direct_average(lam, m, rows, GaussianSampler(30 + m))
    for gamma_est, direct in ((est, np.abs(np.log(qm))),
                              (tail, (qm >= t).astype(float))):
        d_mean, d_se = _mean_se(direct)
        assert abs(gamma_est.mean - d_mean) <= 4.0 * math.hypot(
            gamma_est.stderr, d_se)
    assert abs(mean.mean - 1.0) <= 4.0 * mean.stderr


def test_mc_suites_threads_bit_identical_across_blocks(monkeypatch):
    # small blocks: every estimate spans several blocks, the last one ragged,
    # so threads=3 really runs the pool (normals path m = 1, Gamma path m = 4)
    monkeypatch.setattr(verify_mod, "_MC_BLOCK_ELEMS", 1 << 12)

    def rows(threads):
        r21, _ = suite_lemma21(seed=5, samples=10 ** 4, threads=threads)
        r51, _ = suite_lemma51(seed=5, samples=10 ** 4, threads=threads)
        return [(r.name, r.value, r.satisfied) for r in r21 + r51]

    assert rows(1) == rows(3)


def test_suite_constants():
    rows, _ = suite_constants()
    assert all(r.satisfied for r in rows)


def test_suite_lemma21_small():
    rows, _ = suite_lemma21(seed=2025, samples=20000)
    assert all(r.satisfied for r in rows), [r.name for r in rows if not r.satisfied]
    names = [r.name for r in rows]
    assert any("rank1" in n for n in names)
    assert any("t=10" in n for n in names)


def test_suite_lemma51_small():
    rows, _ = suite_lemma51(seed=2025, samples=20000)
    assert all(r.satisfied for r in rows), [r.name for r in rows if not r.satisfied]


def test_suite_sandwich_small(monkeypatch):
    monkeypatch.setattr(verify_mod, "_SANDWICH_INSTANCES", 6)
    rows, extras = suite_sandwich(seed=2025)
    assert all(r.satisfied for r in rows)
    assert extras["max_excess"] <= 4.8
    assert len(rows) == 6
    # an oracle above the relaxation breaks the lower inequality: the
    # report says so and the suite fails the row instead of raising
    monkeypatch.setattr(verify_mod, "sphere_max_oracle", lambda *a: 100.0)
    rep = check_sandwich(QuadraticMap([np.eye(2)]), SimplexVector([1.0]),
                         GaussianSampler(1))
    assert not rep.lower_ok and rep.upper_ok
    monkeypatch.setattr(verify_mod, "_SANDWICH_INSTANCES", 2)
    rows, _ = suite_sandwich(seed=2025)
    assert [r.satisfied for r in rows] == [False, False]
    assert all(r.value < -90.0 for r in rows)


def test_suite_registry():
    assert set(SUITES) == {"constants", "lemma21", "lemma51", "sandwich"}
