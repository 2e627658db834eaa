"""Randomized rounding of relaxation solutions to actual image points.

Given a preconditioned map (forms summing to I), a hull point a with
spectahedron witness X, the pipeline solves the entropic relaxation with
weights a, factors the solution A = T^2, and pushes standard Gaussian
vectors through T:

  rank-one:  y = T x / ||T x||          gives b = psi(y), an exact image
             point with sum_i b_i = 1;
  rank-m:    Y = (sum_j ||T x_j||^2)^-1 sum_j (T x_j)(T x_j)'  gives
             b_i = <Q_i, Y>, a convex combination of at most m image points.

Acceptance predicates certify the distance: a draw with ||T x||^2 < 6 and
sum_i a_i ln q'_i(T x) > -3 (primes denote the rescaled forms with
<Q'_i, A> = 1) yields D(a||b) <= 3 + ln 6 + gap < 4.8 + gap; a batch with
mean squared norm at most 1 + 3/sqrt(m) and mean-value log-score at least
-12/sqrt(m) yields D(a||b) <= 12/sqrt(m) + ln(1 + 3/sqrt(m)) + gap
< 15/sqrt(m) + gap. Per draw the first event has probability at least
1 - 0.07 - 0.92 = 0.01 and per batch the second at least
1 - 0.33 - 0.5 = 0.17, so finite budgets fail only with vanishing
probability; the implementation draws the whole budget and keeps the
minimum-KL outcome (at least as good as the first accepted draw), flagging
accepted=False if no draw fired.

All randomness flows through a counter-based generator (Philox) so that a
fixed seed reproduces outcomes bit for bit; draws are partitioned into
fixed-size blocks, one RNG substream per block, so multithreaded evaluation
returns the identical result (minimum KL, lowest index wins ties).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import map_indexed
from .config import DEFAULTS
from .entropic_sdp import SdpSolution, solve
from .linalg import SymMatrix, sqrt_psd, sym_eigen
from .quadmap import (QuadraticMap, SimplexVector, SpectahedronPoint,
                      evaluate, evaluate_batch, hull_point_from_witness,
                      kl_divergence)

# Draw-block size for substream assignment; fixed so results never depend on
# thread count or available memory.
_BLOCK = 256


class GaussianSampler:
    """Deterministic standard normal stream: Box-Muller over Philox uniforms.

    A fixed seed reproduces the exact sample sequence. ``substream(i)``
    derives an independent stream (a 2^128 jump of the counter per index),
    intended for one level of fan-out: consumers take disjoint indices and
    do not hand the parent stream out again. ``mean_squares`` draws means of
    squared normals from the same generator, as exact Gamma variates when
    more than one normal is averaged.
    """

    __slots__ = ("seed", "jumps", "_gen")

    def __init__(self, seed: int, jumps: int = 0):
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        self.seed = int(seed)
        self.jumps = int(jumps)
        bg = np.random.Philox(key=self.seed)
        if self.jumps:
            bg = bg.jumped(self.jumps)
        self._gen = np.random.Generator(bg)

    def substream(self, index: int) -> "GaussianSampler":
        if index < 0:
            raise ValueError("substream index must be nonnegative")
        return GaussianSampler(self.seed, self.jumps + 1 + index)

    def normals(self, shape) -> np.ndarray:
        """Standard normal array of the given shape; advances the stream.

        Box-Muller consumes uniforms in pairs, so a request for an odd count
        discards one spare variate.
        """
        if np.isscalar(shape):
            shape = (int(shape),)
        count = int(np.prod(shape)) if shape else 1
        npairs = (count + 1) // 2
        u1 = 1.0 - self._gen.random(npairs)  # in (0, 1], keeps the log finite
        u2 = self._gen.random(npairs)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * math.pi) * u2
        z = np.empty(2 * npairs)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return z[:count].reshape(shape)

    def mean_squares(self, m: int, shape) -> np.ndarray:
        """Means of m squared standard normals, elementwise; advances the stream.

        m = 1 squares Box-Muller normals. For m >= 2 each mean is drawn from
        its exact law Gamma(m/2, scale 2/m) (a chi-square with m degrees of
        freedom over m), so the cost does not grow with m.
        """
        if m < 1:
            raise ValueError("m must be at least 1")
        if m == 1:
            return self.normals(shape) ** 2
        return self._gen.standard_gamma(0.5 * m, size=shape) * (2.0 / m)


def sample_gaussian(sampler: GaussianSampler, n: int) -> np.ndarray:
    """Draw one standard Gaussian vector in R^n; advances the sampler."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return sampler.normals((n,))


@dataclass
class RoundingOutcome:
    """Rounded point(s) with the full self-contained certificate.

    points holds the certificate vectors (one for rank-one, m rows with
    equal weights 1/m for rank-m; zero rows pad when the witness has lower
    rank). b is reproduced exactly by evaluating the map at the points
    (averaged for rank-m), kl equals the recomputed divergence from a, and
    witness_Y carries the spectahedron witness in the rank-m case. sdp is
    the relaxation solution the rounding was built on; its gap widens the
    certified distance bound. samples_drawn counts every Gaussian vector
    consumed, including the measure-zero redraws of exactly-zero pushes;
    accepted_count / draws is the empirical acceptance rate (draws counts
    single vectors for rank-one and batches for rank-m).
    """

    points: np.ndarray
    b: SimplexVector
    kl: float
    samples_drawn: int
    accepted: bool
    witness_Y: SpectahedronPoint | None
    sdp: SdpSolution
    m: int | None = None
    accepted_count: int = 0
    draws: int = 0


def accept_rank_one(x, T: SymMatrix, qmap: QuadraticMap,
                    alpha: SimplexVector) -> bool:
    """Acceptance predicate for a single draw against the rescaled map.

    Requires the forms rescaled so <Q_i, T^2> = 1. True iff ||T x||^2 < 6
    and sum_i alpha_i ln q_i(T x) > -3. A zero push T x = 0 (probability
    zero) is rejected.
    """
    tx = T.mat @ np.asarray(x, dtype=float).reshape(-1)
    nrm2 = float(tx @ tx)
    if nrm2 == 0.0:
        return False
    if nrm2 >= 6.0:
        return False
    vals = evaluate(qmap, tx)
    return float(np.sum(alpha.values * np.log(vals))) > -3.0


def _check_preconditioned(qmap: QuadraticMap):
    resid = float(np.linalg.norm(qmap.Q.sum(axis=0) - np.eye(qmap.n)))
    if resid > DEFAULTS.precondition_residual * 10.0:
        raise ValueError(
            f"map is not preconditioned (sum of forms is {resid:.3e} from I)")


def _check_hull_consistent(qmap: QuadraticMap, a: SimplexVector,
                           witness: SpectahedronPoint):
    recomputed = hull_point_from_witness(qmap, witness)
    err = float(np.abs(recomputed.values - a.values).max())
    if err > DEFAULTS.hull_sum:
        raise ValueError(
            f"hull point disagrees with its witness by {err:.3e}")


def _prepare(qmap, a, witness, tol, max_iters):
    """Shared pipeline head: solve the relaxation and factor A = T^2."""
    _check_preconditioned(qmap)
    _check_hull_consistent(qmap, a, witness)
    sol = solve(qmap, a, tol=tol, max_iters=max_iters)
    T = sqrt_psd(sol.X_star.X)
    return sol, T


def round_rank_one(qmap: QuadraticMap, a: SimplexVector,
                   X_witness: SpectahedronPoint, sampler: GaussianSampler,
                   budget: int = DEFAULTS.rank_one_budget,
                   tol: float = DEFAULTS.fw_gap,
                   max_iters: int = DEFAULTS.fw_max_iters,
                   threads: int = 1) -> RoundingOutcome:
    """Round to a single image point b = psi(y), y = T x / ||T x||.

    Draws ``budget`` Gaussians and returns the minimum-KL draw. If any draw
    passes the acceptance predicate (probability at least 0.01 each), the
    result satisfies D(a||b) <= 3 + ln 6 + fw_gap < 4.8 + fw_gap; otherwise
    the best-effort outcome is returned with accepted=False.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    sol, T = _prepare(qmap, a, X_witness, tol, max_iters)
    Qstack = qmap.Q
    av = a.values
    log_a = np.log(av)
    tau = sol.rescale
    Tm = T.mat
    n = qmap.n

    nblocks = (budget + _BLOCK - 1) // _BLOCK

    def run_block(bi: int):
        rows = _BLOCK if bi < nblocks - 1 else budget - _BLOCK * (nblocks - 1)
        sub = sampler.substream(bi)
        drawn = 0
        tx = np.empty((rows, n))
        need = np.arange(rows)
        while need.size:
            z = sub.normals((need.size, n))
            drawn += need.size
            cand = z @ Tm.T
            good = np.einsum("bi,bi->b", cand, cand) > 0.0
            tx[need[good]] = cand[good]
            need = need[~good]
        nrm2 = np.einsum("bi,bi->b", tx, tx)
        # One evaluation serves both: q(y) = q(tx) / ||tx||^2 by homogeneity.
        qtx = evaluate_batch(Qstack, tx)
        bvals = qtx / nrm2[:, None]
        kl = np.einsum("k,bk->b", av, log_a[None, :] - np.log(bvals))
        logterm = np.einsum("k,bk->b", av, np.log(qtx * tau))
        acc = int(np.count_nonzero((nrm2 < 6.0) & (logterm > -3.0)))
        best = int(np.argmin(kl))
        return float(kl[best]), tx[best] / np.sqrt(nrm2[best]), acc, drawn

    results = map_indexed(run_block, nblocks, threads)
    best_kl, best_y, accepted_count, total = math.inf, None, 0, 0
    for kl_b, y_b, acc_b, drawn_b in results:
        total += drawn_b
        accepted_count += acc_b
        if kl_b < best_kl:
            best_kl, best_y = kl_b, y_b

    b = SimplexVector(evaluate(qmap, best_y))
    return RoundingOutcome(
        points=best_y.reshape(1, n),
        b=b,
        kl=kl_divergence(a, b),
        samples_drawn=total,
        accepted=accepted_count > 0,
        witness_Y=None,
        sdp=sol,
        m=None,
        accepted_count=accepted_count,
        draws=budget,
    )


def round_rank_m(qmap: QuadraticMap, a: SimplexVector,
                 X_witness: SpectahedronPoint, m: int,
                 sampler: GaussianSampler,
                 budget: int = DEFAULTS.rank_m_budget,
                 tol: float = DEFAULTS.fw_gap,
                 max_iters: int = DEFAULTS.fw_max_iters,
                 threads: int = 1) -> RoundingOutcome:
    """Round to a convex combination of at most m image points.

    Each of ``budget`` batches draws m Gaussians x_1..x_m and forms the
    rank <= m spectahedron point Y = (sum_j ||T x_j||^2)^-1 sum_j
    (T x_j)(T x_j)', giving b_i = <Q_i, Y> with sum_i b_i = trace(Y) = 1.
    A batch passing both acceptance thresholds (probability at least 0.17)
    certifies D(a||b) <= 12/sqrt(m) + ln(1 + 3/sqrt(m)) + fw_gap
    < 15/sqrt(m) + fw_gap. The best batch by KL is returned, decomposed into
    m equally weighted certificate points.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    sol, T = _prepare(qmap, a, X_witness, tol, max_iters)
    Qstack = qmap.Q
    av = a.values
    log_a = np.log(av)
    tau = sol.rescale
    Tm = T.mat
    n = qmap.n
    sqm = math.sqrt(m)

    batches_per_block = max(1, _BLOCK // m)
    nblocks = (budget + batches_per_block - 1) // batches_per_block

    def run_block(bi: int):
        nb = (batches_per_block if bi < nblocks - 1
              else budget - batches_per_block * (nblocks - 1))
        sub = sampler.substream(bi)
        drawn = 0
        tx = np.empty((nb, m, n))
        need = np.arange(nb)
        while need.size:
            z = sub.normals((need.size, m, n))
            drawn += need.size * m
            cand = (z.reshape(-1, n) @ Tm.T).reshape(z.shape)
            good = np.einsum("bmi,bmi->b", cand, cand) > 0.0
            tx[need[good]] = cand[good]
            need = need[~good]
        nrm2 = np.einsum("bmi,bmi->bm", tx, tx)
        S = nrm2.sum(axis=1)
        qvals = evaluate_batch(Qstack, tx.reshape(nb * m, n)).reshape(nb, m, -1)
        bvals = qvals.sum(axis=1) / S[:, None]
        kl = np.einsum("k,bk->b", av, log_a[None, :] - np.log(bvals))
        mean_rescaled = qvals.mean(axis=1) * tau[None, :]
        logterm = np.einsum("k,bk->b", av, np.log(mean_rescaled))
        cond = (S / m <= 1.0 + 3.0 / sqm) & (logterm >= -12.0 / sqm)
        acc = int(np.count_nonzero(cond))
        best = int(np.argmin(kl))
        return float(kl[best]), tx[best], acc, drawn

    results = map_indexed(run_block, nblocks, threads)
    best_kl, best_tx, accepted_count, total = math.inf, None, 0, 0
    for kl_b, tx_b, acc_b, drawn_b in results:
        total += drawn_b
        accepted_count += acc_b
        if kl_b < best_kl:
            best_kl, best_tx = kl_b, tx_b

    S = float(np.einsum("mi,mi->", best_tx, best_tx))
    Y = np.einsum("mi,mj->ij", best_tx, best_tx) / S
    witness_Y = SpectahedronPoint(Y)
    b = SimplexVector(np.einsum("kij,ij->k", Qstack, witness_Y.mat))
    points, _weights = decompose_rank_m(witness_Y, m)
    return RoundingOutcome(
        points=points,
        b=b,
        kl=kl_divergence(a, b),
        samples_drawn=total,
        accepted=accepted_count > 0,
        witness_Y=witness_Y,
        sdp=sol,
        m=m,
        accepted_count=accepted_count,
        draws=budget,
    )


def decompose_rank_m(Y: SpectahedronPoint, m: int,
                     rank_tol: float = DEFAULTS.decompose_rank,
                     resid_tol: float = DEFAULTS.decompose_residual):
    """Split Y of rank <= m into Y = (1/m) sum_j y_j (x) y_j.

    The points are y_j = sqrt(m lambda_j) u_j over the leading eigenpairs
    (descending), padded with zero vectors up to m; the map sends zero to
    zero, so b stays a convex combination of at most m image points with
    the uniform weights 1/m. Raises when eigenvalues beyond the m-th exceed
    rank_tol or the reconstruction residual exceeds resid_tol.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    n = Y.n
    w, V = sym_eigen(Y.X)
    if n > m and float(w[: n - m].max()) > rank_tol:
        raise ValueError(
            f"rank exceeds {m}: eigenvalue {w[: n - m].max():.3e} beyond the m-th")
    order = np.argsort(w)[::-1][: min(m, n)]
    lam = np.clip(w[order], 0.0, None)
    pts = np.zeros((m, n))
    pts[: order.size] = (V[:, order] * np.sqrt(m * lam)).T
    recon = np.einsum("mi,mj->ij", pts, pts) / m
    resid = float(np.linalg.norm(recon - Y.mat))
    if resid > resid_tol:
        raise ValueError(f"reconstruction residual {resid:.3e} out of tolerance")
    return pts, SimplexVector(np.full(m, 1.0 / m))
