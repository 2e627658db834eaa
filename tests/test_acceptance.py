"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
Every tolerance is pinned here; the Monte Carlo criteria use fixed seeds so
a failure is a real bound violation, not sampling noise.
"""

import json
import math

import numpy as np
import pytest

from quadround import (GaussianSampler, SimplexVector, gauss_log_moments,
                       gradient, hull_point_from_combination, laplace_tail_upper,
                       objective, phi, phi_expression, pinsker_lower_bound,
                       solve, sphere_max_oracle, sym_eigen)
from quadround._util import sha256_hex
from quadround.cli import result_digest, run_round
from quadround.instances import random_map, random_witness
from quadround.quadmap import instance_from_json, instance_to_json
from quadround.verify import _simplex_from, suite_lemma21, suite_lemma51

SEED_SANDWICH = 314159
SEED_LEMMA21 = 271828
SEED_LEMMA51 = 161803
SEED_RANK_ONE = 577215
SEED_RANK_M = 141421


def _report(criterion: str, ok: bool, detail: str):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


# --- shared computations --------------------------------------------------

@pytest.fixture(scope="module")
def sandwich_runs():
    """100 seeded instances, n <= 6, k <= 5, condition <= 100, solved once."""
    runs = []
    for j in range(100):
        n = 2 + (j % 5)
        k = 1 + ((j // 5) % 5)
        sampler = GaussianSampler(SEED_SANDWICH + j)
        qmap = random_map(sampler, n, k, 100.0)
        alpha = _simplex_from(sampler.substream(k + 1), k)
        sol = solve(qmap, alpha, tol=1e-6)
        sphere = sphere_max_oracle(qmap, alpha, sampler)
        runs.append((n, k, qmap, alpha, sol, sphere))
    return runs


def _instance_doc(seed: int, n: int, k: int):
    sampler = GaussianSampler(seed)
    qmap = random_map(sampler, n, k, 100.0)
    witness = random_witness(sampler.substream(k), qmap)
    return instance_to_json(qmap, witness=witness)


def _run_result(doc: dict, seed: int, m, budget: int):
    """The same result-file assembly the CLI performs."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    qmap, spec = instance_from_json(doc)
    outcome, payload = run_round(qmap, spec, seed=seed, budget=budget,
                                 tol=1e-6, m=m)
    mode = "--rank-one" if m is None else f"--rank-m {m}"
    result = {"instance_digest": sha256_hex(text),
              "command": f"round {mode} --budget {budget} --seed {seed} "
                         f"--tol {1e-6!r}",
              **payload}
    result["result_digest"] = result_digest(result)
    return outcome, result


@pytest.fixture(scope="module")
def rank_one_runs():
    """Criterion 5 corpus: 100 instances with witnesses, budget 1000."""
    runs = []
    for i in range(100):
        n = 2 + (i % 7)
        k = 1 + (i % 6)
        doc = _instance_doc(SEED_RANK_ONE + i, n, k)
        outcome, result = _run_result(doc, seed=SEED_RANK_ONE + 1000 + i,
                                      m=None, budget=1000)
        runs.append((outcome, result))
    return runs


@pytest.fixture(scope="module")
def rank_m_runs():
    """Criterion 6 corpus: 25 instances x m in {1, 4, 16, 64}, budget 200."""
    from quadround import precondition
    runs = []
    for i in range(25):
        n = 2 + (i % 5)
        k = 1 + (i % 5)
        doc = _instance_doc(SEED_RANK_M + i, n, k)
        hat = precondition(instance_from_json(doc)[0]).hat
        for m in (1, 4, 16, 64):
            outcome, result = _run_result(doc, seed=SEED_RANK_M + 1000 + i,
                                          m=m, budget=200)
            runs.append((m, outcome, result, hat))
    return runs


# --- criteria --------------------------------------------------------------

def test_criterion_1_constants():
    phi6 = phi(6.0)
    at3 = phi_expression(6.0, 3.0)
    m1, m2 = gauss_log_moments()
    lap = laplace_tail_upper(10, 1.0 + 3.0 / math.sqrt(10.0))
    ok = (phi6 <= 5.0 / 72.0
          and abs(at3 - 5.0 / 72.0) <= 1e-9
          and 6.54 < m2 < 6.55
          and 1.75 < m1 < 1.77
          and lap <= math.exp(-9.0 / 8.0))
    _report("1 (constants)", ok,
            f"phi(6)={phi6:.8f} <= 5/72, expr(6,3)-5/72={at3 - 5/72:.2e}, "
            f"m1={m1:.5f}, m2={m2:.5f}, laplace={lap:.5f} <= {math.exp(-9/8):.5f}")


def test_criterion_2_lemma21_mc():
    rows, _ = suite_lemma21(SEED_LEMMA21, samples=10 ** 6)
    bad = [r.name for r in rows if not r.satisfied]
    rank1 = next(r for r in rows if r.name == "abs_log_moment[rank1] near 1.76")
    ok = not bad and abs(rank1.value - 1.76) <= 0.02
    _report("2 (single-draw moments and tails, 1e6 samples)", ok,
            f"{len(rows)} checks, rank-1 estimate {rank1.value:.4f}, "
            f"failures: {bad or 'none'}")


def test_criterion_3_lemma51_mc():
    rows, _ = suite_lemma51(SEED_LEMMA51, samples=10 ** 6)
    bad = [r.name for r in rows if not r.satisfied]
    ok = not bad
    _report("3 (averaged-form tails and moments)", ok,
            f"{len(rows)} checks, failures: {bad or 'none'}")


def test_criterion_4_sandwich(sandwich_runs):
    max_excess = -math.inf
    lower_fail = upper_fail = 0
    for n, k, qmap, alpha, sol, sphere in sandwich_runs:
        if not (sphere <= sol.value + sol.fw_gap + 1e-6):
            lower_fail += 1
        if not (sol.value - sphere <= 4.8):
            upper_fail += 1
        max_excess = max(max_excess, sol.value - sphere)
    ok = lower_fail == 0 and upper_fail == 0
    _report("4 (relaxation sandwich, 100 instances)", ok,
            f"max relaxation excess {max_excess:.6f} (informational, "
            f"bound 4.8), violations: {lower_fail} lower / {upper_fail} upper")


def test_criterion_5_rank_one_end_to_end(rank_one_runs):
    kl_fail = rate_fail = pinsker_fail = 0
    worst_kl = -math.inf
    for outcome, result in rank_one_runs:
        gap = outcome.sdp.fw_gap
        if not (outcome.kl <= 4.8 + gap):
            kl_fail += 1
        worst_kl = max(worst_kl, outcome.kl)
        rate = outcome.accepted_count / outcome.draws
        stderr = math.sqrt(max(rate * (1 - rate), 0.0) / outcome.draws)
        if not (rate >= 0.01 - 3 * stderr):
            rate_fail += 1
        a = SimplexVector(result["a"])
        if not (pinsker_lower_bound(a, outcome.b) <= outcome.kl + 1e-12):
            pinsker_fail += 1
    ok = kl_fail == 0 and rate_fail == 0 and pinsker_fail == 0
    _report("5 (rank-one rounding, 100 instances, budget 1000)", ok,
            f"worst kl {worst_kl:.6f} vs 4.8, failures: {kl_fail} kl / "
            f"{rate_fail} rate / {pinsker_fail} pinsker")


def test_criterion_6_rank_m_end_to_end(rank_m_runs):
    kl_fail = resid_fail = rederive_fail = rate_fail = 0
    worst_margin = math.inf
    for m, outcome, result, hat_map in rank_m_runs:
        gap = outcome.sdp.fw_gap
        bound = 15.0 / math.sqrt(m)
        if not (outcome.kl <= bound + gap):
            kl_fail += 1
        worst_margin = min(worst_margin, bound + gap - outcome.kl)
        # reconstruction residual of the decomposition
        recon = np.einsum("mi,mj->ij", outcome.points, outcome.points) / m
        if not (np.linalg.norm(recon - outcome.witness_Y) <= 1e-8):
            resid_fail += 1
        # b re-derived from the decomposition (points live in the
        # preconditioned coordinates)
        b2, _ = hull_point_from_combination(
            hat_map, list(outcome.points),
            SimplexVector(np.full(m, 1.0 / m)))
        if not np.allclose(b2.values, outcome.b.values, atol=1e-8):
            rederive_fail += 1
        rate = outcome.accepted_count / outcome.draws
        stderr = math.sqrt(max(rate * (1 - rate), 0.0) / outcome.draws)
        if not (rate >= 0.17 - 3 * stderr):
            rate_fail += 1
    ok = (kl_fail == 0 and resid_fail == 0 and rederive_fail == 0
          and rate_fail == 0)
    _report("6 (rank-m rounding, 25 instances x m in {1,4,16,64})", ok,
            f"min margin to 15/sqrt(m) {worst_margin:.6f}, failures: "
            f"{kl_fail} kl / {resid_fail} residual / {rederive_fail} "
            f"rederive / {rate_fail} rate")


def test_criterion_7_solver_properties(sandwich_runs):
    # the solver asserts its own per-step monotonicity on every solve
    gap_fail = 0
    for _, _, _, _, sol, _ in sandwich_runs:
        if not (sol.fw_gap <= 1e-6):
            gap_fail += 1
    # k = 1 instances recover the top eigenvalue
    k1_fail = 0
    for i in range(20):
        n = 2 + (i % 7)
        qmap = random_map(GaussianSampler(900000 + i), n, 1, 100.0)
        sol = solve(qmap, SimplexVector([1.0]), tol=1e-6)
        w, _ = sym_eigen(qmap.Q[0])
        if abs(sol.value - math.log(w[-1])) > 1e-6:
            k1_fail += 1
    # gradient vs central finite differences on 20 (instance, direction) pairs
    fd_fail = 0
    dir_sampler = GaussianSampler(910000)
    for i in range(20):
        n = 2 + (i % 4)
        k = 1 + (i % 5)
        qmap = random_map(GaussianSampler(920000 + i), n, k, 100.0)
        alpha = _simplex_from(GaussianSampler(930000 + i), k)
        X0 = np.eye(n) / n
        D = dir_sampler.normals((n, n))
        D = 0.5 * (D + D.T)
        D -= np.trace(D) / n * np.eye(n)
        D /= np.linalg.norm(D)
        h = 1e-6
        fp = objective(qmap, alpha, X0 + h * D)
        fm = objective(qmap, alpha, X0 - h * D)
        fd = (fp - fm) / (2 * h)
        an = float(np.sum(gradient(qmap, alpha, X0) * D))
        if abs(fd - an) > 1e-4 * max(1e-6, abs(an)):
            fd_fail += 1
    ok = gap_fail == 0 and k1_fail == 0 and fd_fail == 0
    _report("7 (solver properties)", ok,
            f"failures: {gap_fail} gap / "
            f"{k1_fail} k=1 recovery / {fd_fail} gradient FD")


def test_criterion_8_determinism(rank_one_runs, rank_m_runs):
    mismatches = 0
    for i, (_, result) in enumerate(rank_one_runs):
        n = 2 + (i % 7)
        k = 1 + (i % 6)
        doc = _instance_doc(SEED_RANK_ONE + i, n, k)
        _, again = _run_result(doc, seed=SEED_RANK_ONE + 1000 + i,
                               m=None, budget=1000)
        if again["result_digest"] != result["result_digest"]:
            mismatches += 1
    idx = 0
    for i in range(25):
        n = 2 + (i % 5)
        k = 1 + (i % 5)
        doc = _instance_doc(SEED_RANK_M + i, n, k)
        for m in (1, 4, 16, 64):
            _, again = _run_result(doc, seed=SEED_RANK_M + 1000 + i,
                                   m=m, budget=200)
            if again["result_digest"] != rank_m_runs[idx][2]["result_digest"]:
                mismatches += 1
            idx += 1
    ok = mismatches == 0
    _report("8 (determinism of result digests)", ok,
            f"{len(rank_one_runs) + idx} reruns, {mismatches} digest mismatches")
