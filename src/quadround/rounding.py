"""Randomized rounding of relaxation solutions to actual image points.

Given a preconditioned map (forms summing to I) and a spectahedron
witness X, which fixes the hull point a_i = <Q_i, X>, the pipeline
computes a once, solves the entropic relaxation with weights a, factors
the solution A = T^2, and pushes batches of standard Gaussian vectors
through T. One kernel does this for both modes; rank-one is the batch of
a single draw:

  rank-one:  y = T x / ||T x||          gives b = psi(y), an exact image
             point with sum_i b_i = 1;
  rank-m:    Y = (sum_j ||T x_j||^2)^-1 sum_j (T x_j)(T x_j)'  gives
             b_i = <Q_i, Y>, a convex combination of at most m image points.

A batch needs only the sums sum_j q_i(T x_j) = <Q_i, sum_j (T x_j)(T x_j)'>.
Narrow batches get them by evaluating the map at every push; batches wide
enough that a block holds at most k of them get them from their Gram
matrices: 2 n^2 flops per push and 2 k n^2 per batch, against 2 k n^2 per
push.

One acceptance predicate certifies the distance, with closed inequalities
and thresholds set by the batch width (primes denote the rescaled forms
with <Q'_i, A> = 1): a draw with ||T x||^2 <= 6 and
sum_i a_i ln q'_i(T x) >= -3 yields D(a||b) <= 3 + ln 6 + gap < 4.8 + gap;
a batch with mean squared norm at most 1 + 3/sqrt(m) and mean-value
log-score at least -12/sqrt(m) yields
D(a||b) <= 12/sqrt(m) + ln(1 + 3/sqrt(m)) + gap < 15/sqrt(m) + gap. Per
draw the first event has probability at least 1 - 0.07 - 0.92 = 0.01 and
per batch the second at least 1 - 0.33 - 0.5 = 0.17, so finite budgets fail
only with vanishing probability; the implementation draws the whole budget
and keeps the minimum-KL outcome (at least as good as the first accepted
draw), flagging accepted=False if no draw fired.

All randomness flows through a counter-based generator (Philox) so that a
fixed seed reproduces outcomes bit for bit; batches are partitioned into
fixed-size blocks, one RNG substream per block, so multithreaded evaluation
returns the identical result (minimum KL, lowest index wins ties). The
outcome carries a and the distance bound it is certified against, so it
is a certificate on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import map_indexed
from .bounds import (BETA_RANK_ONE, LOG_SCORE_CUTOFF, TAIL_THRESHOLD,
                     rank_m_beta)
from .config import DEFAULTS
from .entropic_sdp import SdpSolution, solve
from .linalg import sqrt_psd, sym_eigen
from .quadmap import (PreconditionedMap, SimplexVector, SpectahedronPoint,
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
    do not hand the parent stream out again. ``mean_square_rows`` streams
    means of squared normals from the same generator, as exact Gamma
    variates when more than one normal is averaged.
    """

    __slots__ = ("seed", "jumps", "_gen")

    def __init__(self, seed: int, jumps: int = 0):
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        self.seed = int(seed)
        self.jumps = int(jumps)
        # the state of Philox(key).jumped(jumps), which adds jumps * 2^128
        # to the counter, set at construction: jumped() builds a second one
        self._gen = np.random.Generator(np.random.Philox(
            key=self.seed, counter=self.jumps << 128))

    def substream(self, index: int) -> "GaussianSampler":
        if index < 0:
            raise ValueError("substream index must be nonnegative")
        return GaussianSampler(self.seed, self.jumps + 1 + index)

    def normals(self, shape) -> np.ndarray:
        """New standard normal array of the given shape; advances the stream.

        Box-Muller consumes uniforms in pairs, so a request for an odd count
        discards one spare variate.
        """
        count = int(np.prod(shape))
        (z,) = self._box_muller(count, [count])
        return z.reshape(shape)

    def mean_square_rows(self, m: int, rows: int, k: int, chunk: int):
        """Yield a (rows, k) array of means of m squared standard normals
        as (r, k) pieces of ``chunk`` (even) rows; advances the stream.

        m = 1 squares Box-Muller normals in place. For m >= 2 each mean is
        drawn from its exact law Gamma(m/2, scale 2/m) (a chi-square with m
        degrees of freedom over m), so the cost does not grow with m. Either
        way the pieces join to the values of one request for the whole
        array, and leave the stream where it would. A last single row joins
        the piece before it: numpy sends a one-row matrix-vector product to
        its dot routine, which rounds otherwise than the matrix-vector one.
        Every piece lives in a buffer that the next one re-uses.
        """
        if m < 1:
            raise ValueError("m must be at least 1")
        ends = [*range(chunk, rows, chunk), rows]
        if len(ends) > 1 and ends[-1] - ends[-2] == 1:
            del ends[-2]
        ends = [e * k for e in ends]
        if m == 1:
            for z in self._box_muller(rows * k, ends):
                yield np.multiply(z, z, out=z).reshape(-1, k)
            return
        buf = np.empty(_widest(ends))
        start = 0
        for end in ends:
            g = buf[: end - start]
            self._gen.standard_gamma(0.5 * m, out=g)
            g *= 2.0 / m
            yield g.reshape(-1, k)
            start = end

    def _box_muller(self, count: int, ends):
        """Yield ``count`` standard normals in pieces that end at the
        offsets ``ends`` (ascending, even but for the last, which is count).

        Box-Muller reads every radius uniform of a request before any angle
        uniform, so the radii R = sqrt(-2 ln(1 - u)) are computed for the
        whole request and the angles are drawn and used one piece at a time:
        the same stream, and the same contiguous ufunc loops, as one draw,
        so the same bits. Every piece is a view of one buffer that this
        call allocates and the next piece re-uses.
        """
        npairs = (count + 1) // 2
        r = self._gen.random(npairs)
        np.subtract(1.0, r, out=r)  # in (0, 1], keeps the log finite
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        buf = np.empty(((_widest(ends) + 1) // 2, 2))
        start = 0
        for end in ends:
            p0, p1 = start // 2, (end + 1) // 2
            theta = self._gen.random(p1 - p0)
            theta *= 2.0 * math.pi
            z = buf[: p1 - p0]
            np.multiply(r[p0:p1], np.cos(theta), out=z[:, 0])
            np.multiply(r[p0:p1], np.sin(theta, out=theta), out=z[:, 1])
            yield z.reshape(-1)[: end - start]
            start = end


def _widest(ends) -> int:
    """Longest piece of a split at the ascending offsets ``ends``."""
    return max(b - a for a, b in zip([0, *ends], ends))


@dataclass
class RoundingOutcome:
    """Rounded point(s) with the full self-contained certificate.

    a is the hull point the input witness fixes and bound the certified
    distance (4.8 for rank-one, 15/sqrt(m) for rank-m), to which the solver
    gap is added. points holds the certificate vectors (one for rank-one, m
    rows with equal weights 1/m for rank-m; zero rows pad when the witness
    has lower rank). b is reproduced exactly by evaluating the map at the
    points (averaged for rank-m), and kl equals the recomputed divergence
    from a. sdp is the relaxation solution the rounding was built on;
    its gap widens the certified distance bound. samples_drawn counts every
    Gaussian vector consumed, including the measure-zero redraws of
    exactly-zero pushes; accepted_count / draws is the empirical acceptance
    rate (draws counts single vectors for rank-one and batches for rank-m).
    """

    a: SimplexVector
    bound: float
    points: np.ndarray
    b: SimplexVector
    kl: float
    samples_drawn: int
    accepted: bool
    sdp: SdpSolution
    m: int | None = None
    accepted_count: int = 0
    draws: int = 0


def acceptance(sq_norm_mean, log_score, m: int | None = None):
    """The paper's acceptance event, elementwise over draws or batches.

    sq_norm_mean is the mean of ||T x_j||^2 over a batch and log_score is
    sum_i a_i ln of the batch-mean value of the rescaled forms (those with
    <Q'_i, T^2> = 1). For rank-one (m None, one draw per batch) the event is
    ||T x||^2 <= 6 and log_score >= -3; for rank-m it is a mean of at most
    1 + 3/sqrt(m) and log_score >= -12/sqrt(m). A zero push has log_score
    -inf and is rejected.
    """
    if m is None:
        cap, floor = TAIL_THRESHOLD, LOG_SCORE_CUTOFF
    else:
        sqm = math.sqrt(m)
        cap, floor = 1.0 + 3.0 / sqm, -12.0 / sqm
    return (sq_norm_mean <= cap) & (log_score >= floor)


def _round(prec: PreconditionedMap, witness: SpectahedronPoint,
           sampler: GaussianSampler, m: int | None, budget: int, tol: float,
           threads: int) -> RoundingOutcome:
    """The rounding kernel: ``budget`` batches of m draws (one for m None).

    Computes a from the witness (the one place it is computed), solves the
    relaxation, factors A = T^2 and pushes the batches through T in fixed
    blocks, one substream per block, redrawing any batch whose pushes are
    all zero. A batch is scored by its sums s_i = sum_j q_i(T x_j): b is
    s / sum_j ||T x_j||^2 by homogeneity and the log-score uses s / m.
    Rank-one draws, and batches narrow enough that a block holds more than
    k of them, sum ``evaluate_batch`` over the pushes. Wider batches take
    s_i = <Q_i, G> from their Gram matrices G = sum_j (T x_j)(T x_j)',
    with one product of the block's Grams and the flattened forms; the
    rule keeps the Grams no larger than the (k, n, n) form stack. The
    paths agree to roundoff. The minimum-KL batch
    (lowest index wins ties) becomes the certificate: for rank-one the unit
    point y = T x / ||T x|| with b = psi(y); for rank-m the spectahedron
    point Y = sum_j (T x_j)(T x_j)' / sum_j ||T x_j||^2 with b_i = <Q_i, Y>,
    decomposed into m equally weighted points.
    """
    if m is not None and m < 1:
        raise ValueError("m must be at least 1")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    qmap = prec.hat
    a = hull_point_from_witness(qmap, witness)
    sol = solve(qmap, a, tol=tol)
    Tt = sqrt_psd(sol.X_star).T
    Qstack, av, tau, n, k = qmap.Q, a.values, sol.rescale, qmap.n, qmap.k
    log_a = np.log(av)
    width = 1 if m is None else m
    per_block = max(1, _BLOCK // width)
    nblocks = (budget + per_block - 1) // per_block
    # a block's (nb, n, n) Grams are then no larger than the (k, n, n) forms
    gram = width > 1 and per_block <= k
    Qflat = Qstack.reshape(k, -1).T

    def run_block(bi: int):
        nb = (per_block if bi < nblocks - 1
              else budget - per_block * (nblocks - 1))
        sub = sampler.substream(bi)
        drawn = 0
        tx = np.empty((nb, width, n))
        need = np.arange(nb)
        while need.size:
            z = sub.normals((need.size, width, n))
            drawn += need.size * width
            cand = (z.reshape(-1, n) @ Tt).reshape(z.shape)
            good = np.einsum("bmi,bmi->b", cand, cand) > 0.0
            tx[need[good]] = cand[good]
            need = need[~good]
        S = np.einsum("bmi,bmi->bm", tx, tx).sum(axis=1)
        if gram:
            G = np.matmul(tx.transpose(0, 2, 1), tx)
            qsum = G.reshape(nb, -1) @ Qflat
        else:
            qsum = evaluate_batch(Qstack, tx.reshape(-1, n)).reshape(
                nb, width, -1).sum(axis=1)
        bvals = qsum / S[:, None]
        kl = np.einsum("k,bk->b", av, log_a[None, :] - np.log(bvals))
        log_score = np.einsum("k,bk->b", av, np.log(qsum / width * tau))
        acc = int(np.count_nonzero(acceptance(S / width, log_score, m)))
        best = int(np.argmin(kl))
        return float(kl[best]), tx[best], acc, drawn

    best_kl, best_tx, accepted_count, total = math.inf, None, 0, 0
    for kl_b, tx_b, acc_b, drawn_b in map_indexed(run_block, nblocks, threads):
        total += drawn_b
        accepted_count += acc_b
        if kl_b < best_kl:
            best_kl, best_tx = kl_b, tx_b
    sq = float(np.einsum("mi,mi->", best_tx, best_tx))
    if m is None:
        points = best_tx / np.sqrt(sq)
        b = SimplexVector(evaluate(qmap, points[0]))
    else:
        Y = np.einsum("mi,mj->ij", best_tx, best_tx) / sq
        b = SimplexVector(np.einsum("kij,ij->k", Qstack, Y))
        points = decompose_rank_m(Y, m)
    return RoundingOutcome(
        a=a,
        bound=BETA_RANK_ONE if m is None else rank_m_beta(m),
        points=points,
        b=b,
        kl=kl_divergence(a, b),
        samples_drawn=total,
        accepted=accepted_count > 0,
        sdp=sol,
        m=m,
        accepted_count=accepted_count,
        draws=budget,
    )


def round_rank_one(prec: PreconditionedMap, X_witness: SpectahedronPoint,
                   sampler: GaussianSampler,
                   budget: int = DEFAULTS.rank_one_budget,
                   tol: float = DEFAULTS.fw_gap,
                   threads: int = 1) -> RoundingOutcome:
    """Round to a single image point b = psi(y), y = T x / ||T x||.

    The hull point is a_i = <Q_i, X_witness> on the preconditioned forms
    ``prec.hat``. Draws ``budget`` Gaussians and returns the minimum-KL
    draw. If any draw passes the acceptance predicate (probability at least
    0.01 each), the result satisfies D(a||b) <= 3 + ln 6 + fw_gap
    < 4.8 + fw_gap; otherwise the best-effort outcome is returned with
    accepted=False.
    """
    return _round(prec, X_witness, sampler, None, budget, tol, threads)


def round_rank_m(prec: PreconditionedMap, X_witness: SpectahedronPoint,
                 m: int, sampler: GaussianSampler,
                 budget: int = DEFAULTS.rank_m_budget,
                 tol: float = DEFAULTS.fw_gap,
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
    return _round(prec, X_witness, sampler, m, budget, tol, threads)


def decompose_rank_m(Y: np.ndarray, m: int) -> np.ndarray:
    """Split Y of rank <= m into Y = (1/m) sum_j y_j (x) y_j.

    Returns the (m, n) array of points y_j = sqrt(m lambda_j) u_j over the
    leading eigenpairs (descending), padded with zero vectors up to m; the
    map sends zero to zero, so b stays a convex combination of at most m
    image points with the uniform weights 1/m. Y is a symmetric PSD array;
    its one eigendecomposition here is residual-checked, and the call
    raises when eigenvalues beyond the m-th exceed DEFAULTS.decompose_rank
    or the reconstruction residual exceeds DEFAULTS.decompose_residual.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    n = Y.shape[0]
    w, V = sym_eigen(Y)
    if n > m and not float(w[: n - m].max()) <= DEFAULTS.decompose_rank:
        raise ValueError(
            f"rank exceeds {m}: eigenvalue {w[: n - m].max():.3e} beyond the m-th")
    order = np.argsort(w)[::-1][: min(m, n)]
    lam = np.clip(w[order], 0.0, None)
    pts = np.zeros((m, n))
    pts[: order.size] = (V[:, order] * np.sqrt(m * lam)).T
    recon = np.einsum("mi,mj->ij", pts, pts) / m
    resid = float(np.linalg.norm(recon - Y))
    if not resid <= DEFAULTS.decompose_residual:
        raise ValueError(f"reconstruction residual {resid:.3e} out of tolerance")
    return pts
