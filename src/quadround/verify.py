"""Independent oracles: sphere maximization and Monte Carlo bound checks.

Everything here deliberately avoids the code paths it is checking. The
sphere maximum of sum_i alpha_i ln q_i(x) is the best of one L-BFGS ascent
from each of a few starts: the peaks of an angle grid for n = 2, random
points for n >= 3 (a certified lower bound on the true maximum, which is all
the relaxation sandwich needs). Each ascent drives its own copy of scipy's
compiled L-BFGS-B core directly, with the same stop tests and the same
iterates as ``scipy.optimize.minimize``. The ascents of one instance share
each batched objective evaluation, which reduces row by row, so no ascent's
iterates depend on the others. The probabilistic claims about Gaussian
values of normalized forms are estimated by seeded Monte Carlo with
binomial or sample standard errors; diagonal forms suffice because the
Gaussian measure is rotation invariant and the claims depend only on the
spectrum. Each (form, m) is sampled in one pass that feeds every estimate
made for it. The m-fold average q_m = (1/m) sum_j q(x_j) of a diagonal form
is sum_i lambda_i G_i with independent G_i ~ Gamma(m/2, scale 2/m), an
exact identity; for m >= 2 it is drawn that way, so a sample costs n
variates rather than m * n normals (the tests keep a direct Gaussian
m-fold average as an independent cross-check). A suite hands every
(estimate, block) pair to one thread pool as one task. _MC_BLOCK_ELEMS
fixes the blocks, one RNG substream each, and so the values; the row chunk
_MC_CHUNK_ROWS in which a block draws and reduces its samples only bounds
its memory.

Every Monte Carlo assertion leaves a 3 * stderr margin so that a fixed-seed
suite fails only on a real bound violation, not on sampling noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import map_indexed, scipy_core
from .bounds import (BETA_RANK_ONE, BoundReport, constants_report,
                     laplace_tail_upper, phi, rank_m_abs_log)
from .entropic_sdp import solve
from .instances import random_map
from .quadmap import QuadraticMap, SimplexVector
from .rounding import GaussianSampler

# Block size in variates (n per sample) for chunked Monte Carlo accumulation,
# one RNG substream per block; fixed so the estimate is bit-identical
# regardless of thread count.
_MC_BLOCK_ELEMS = 1 << 22

# Rows of q_m a block draws and reduces at a time. It sets memory, not the
# values: a multiple of 16 keeps OpenBLAS's matrix-vector product rounding
# each row as the whole block's product does.
_MC_CHUNK_ROWS = 1 << 13

# Fewest samples a Monte Carlo estimate accepts.
MIN_SAMPLES = 10 ** 3

# Most local ascents of the sphere oracle: random starts for n >= 3, and the
# cap on grid peaks for n = 2.
_ORACLE_RESTARTS = 24

# Angles of the sphere oracle's start grid for n = 2.
_ORACLE_GRID = 4096

# Random instances in the sandwich suite.
_SANDWICH_INSTANCES = 100


@dataclass
class McEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    stderr: float
    samples: int


@dataclass
class SandwichReport:
    """One relaxation sandwich check: sphere oracle vs relaxation value."""

    sphere_value: float
    sdp_value: float
    fw_gap: float
    excess: float          # sdp_value - sphere_value, at most the 4.8 constant
    lower_ok: bool
    upper_ok: bool


def _simplex_from(sampler: GaussianSampler, k: int) -> SimplexVector:
    """A random interior point of the simplex (normalized squared normals)."""
    z = sampler.normals((k,)) ** 2 + 1e-12
    return SimplexVector(z / z.sum())


def _q_rows(Qstack: np.ndarray, X: np.ndarray) -> np.ndarray:
    """q_i(x) = <Q_i, x x'> for each row x of X, one (k,) row per x."""
    b = X.shape[0]
    xx = (X[:, :, None] * X[:, None, :]).reshape(b, 1, -1)
    return (Qstack.reshape(Qstack.shape[0], -1) * xx).sum(axis=-1)


def _neg_rows(Qstack: np.ndarray, al: np.ndarray, X: np.ndarray):
    """ln ||x||^2 - sum_i al_i ln q_i(x) and its gradient, for each row x of X.

    Every reduction runs along its own row, so a row's f and g are the same
    doubles whatever else is in the batch.
    """
    q = _q_rows(Qstack, X)
    sq = (X * X).sum(axis=1)
    f = np.log(sq) - (al * np.log(q)).sum(axis=1)
    g = np.einsum("bk,kij,bj->bi", al / q, Qstack, X)
    g = 2.0 * (X / sq[:, None] - g)
    return f, g


def _ascend(Qstack: np.ndarray, al: np.ndarray,
            starts: np.ndarray) -> np.ndarray:
    """One local ascent of sum_i al_i ln q_i on the unit sphere per start.

    L-BFGS-B minimizes ln ||x||^2 - sum_i al_i ln q_i(x), which is scale
    invariant, so the iterates need no projection. Each start (a row of
    ``starts``) drives its own copy of scipy's compiled L-BFGS-B core
    (setulb), as scipy's _minimize_lbfgsb does (memory 10, at most 20
    line-search steps, no bounds), with its own workspace, line search and
    stop tests. The starts run in lockstep: one pass steps every live start
    until it asks for f and g at a new x, then _neg_rows evaluates all those
    points in one call. A request at an unmoved x re-uses the last value, as
    ``minimize`` does. Since _neg_rows works row by row, each start's stop
    tests, iterates and number of evaluations are those of
    ``minimize(method="L-BFGS-B")`` on that row's objective bit for bit,
    whichever starts share its batches. A start stops when the largest
    gradient entry is at most 1e-9 (gtol), when one step lowers the
    objective by at most a relative 1e-16 (ftol), when the line search
    fails, after 400 iterations, or after 15 000 evaluations.
    The value of a start is sum_i al_i ln q_i at its normalized end point: a
    certified lower bound on the sphere maximum whatever the optimizer's
    exit status. The stopping tests do not steer the iterates, so a tighter
    gtol only extends this same trajectory, and each extra step can only
    raise the value: near a maximum the gain left is of order the squared
    gradient. On the sandwich and near-rank-one corpora the steps that a
    gtol of 1e-14 adds move the value by less than 1e-15.
    """
    setulb = scipy_core("optimize._lbfgsb").setulb
    x = np.array(starts, dtype=np.float64)      # row s: start s's iterate
    S, n = x.shape
    m = 10
    f, g = np.zeros(S), np.zeros((S, n))
    unbounded, nbd = np.zeros(n), np.zeros(n, np.int32)
    wa = np.zeros((S, 2 * m * n + 5 * n + 11 * m * m + 8 * m))
    iwa = np.zeros((S, 3 * n), np.int32)
    task, ln_task = np.zeros((S, 2), np.int32), np.zeros((S, 2), np.int32)
    lsave, isave, dsave = (np.zeros((S, 4), np.int32),
                           np.zeros((S, 44), np.int32), np.zeros((S, 29)))
    # each start's own rows of the workspaces, which setulb updates in place
    rows = list(zip(x, g, wa, iwa, task, lsave, isave, dsave, ln_task))
    factr = 1e-16 / np.finfo(float).eps
    at = [None] * S               # the point each f and g were computed at
    nit, nfev = [0] * S, [0] * S
    live = range(S)
    while live:
        pending = []              # starts waiting for f and g at a new x
        for s in live:
            xr, gr, war, iwar, tr, lr, ir, dr, lnr = rows[s]
            while True:
                setulb(m, xr, unbounded, unbounded, nbd, f[s], gr, factr,
                       1e-9, war, iwar, tr, lr, ir, dr, 20, lnr)
                if tr[0] == 3:        # FG: f and g at x, re-used if unmoved
                    xs = xr.tolist()
                    if xs != at[s]:
                        at[s] = xs
                        nfev[s] += 1
                        pending.append(s)
                        break
                elif tr[0] == 1:      # NEW_X: one iteration done
                    nit[s] += 1
                    if nit[s] >= 400 or nfev[s] > 15000:
                        break
                else:                 # converged, or the line search failed
                    break
        if pending:
            f[pending], g[pending] = _neg_rows(Qstack, al, x[pending])
        live = pending
    x /= np.sqrt((x * x).sum(axis=1))[:, None]
    return (al * np.log(_q_rows(Qstack, x))).sum(axis=1)


def sphere_max_oracle(qmap: QuadraticMap, alpha: SimplexVector,
                      sampler: GaussianSampler) -> float:
    """Best value of sum_i alpha_i ln q_i(x) over the unit sphere.

    One local ascent from each start, each with its own line search and
    stop tests, all run in lockstep by _ascend, returning the best value,
    which is a certified lower bound on the sphere maximum. n = 2: the
    starts are the local maxima of _ORACLE_GRID equispaced angles on
    [0, pi) (antipodal points coincide), highest first and at most
    _ORACLE_RESTARTS of them, so the result is the exact maximum to
    roundoff whenever the grid resolves the peaks. n >= 3: _ORACLE_RESTARTS
    random normal starts drawn from sampler. A start's value is the one it
    reaches alone, so the result does not depend on how many starts share
    the lockstep.
    """
    Qstack = qmap.Q
    al = alpha.values
    if qmap.n == 2:
        theta = np.linspace(0.0, math.pi, _ORACLE_GRID, endpoint=False)
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        total = np.log(np.einsum("kij,bi,bj->bk", Qstack, pts, pts)) @ al
        peaks = np.flatnonzero((total >= np.roll(total, 1))
                               & (total >= np.roll(total, -1)))
        order = peaks[np.argsort(-total[peaks], kind="stable")]
        starts = pts[order[:_ORACLE_RESTARTS]]
    else:
        xs = [sampler.normals((qmap.n,)) for _ in range(_ORACLE_RESTARTS)]
        starts = np.array([x / np.linalg.norm(x) for x in xs if np.any(x)])
    return float(np.max(_ascend(Qstack, al, starts)))


def check_sandwich(qmap: QuadraticMap, alpha: SimplexVector,
                   sampler: GaussianSampler) -> SandwichReport:
    """Verify the relaxation sandwich on one instance.

    Solves the relaxation to DEFAULTS.fw_gap, runs the sphere oracle, and
    checks sphere_value <= sdp_value + fw_gap + 1e-6 (the
    relaxation upper bounds the sphere) and
    sdp_value <= sphere_value + 4.8 + fw_gap. The
    oracle only lower-bounds the true sphere maximum, which suffices: if the
    relaxation is within 4.8 of the lower bound it is certainly within 4.8
    of the maximum. The report carries the verdict of each inequality.
    """
    sol = solve(qmap, alpha)
    s = sphere_max_oracle(qmap, alpha, sampler)
    return SandwichReport(
        sphere_value=s,
        sdp_value=sol.value,
        fw_gap=sol.fw_gap,
        excess=sol.value - s,
        lower_ok=s <= sol.value + sol.fw_gap + 1e-6,
        upper_ok=sol.value <= s + BETA_RANK_ONE + sol.fw_gap,
    )


def abs_log(q: np.ndarray) -> np.ndarray:
    """Reducer for E |ln q_m|."""
    return np.abs(np.log(q))


def tail_indicator(t: float):
    """Reducer for the frequency of {q_m >= t} (or {q_m <= t} when t <= 1)."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    if t > 1.0:
        return lambda q: (q >= t).astype(float)
    return lambda q: (q <= t).astype(float)


def mc_batch(jobs, threads: int = 1) -> list[list[McEstimate]]:
    """One sampling pass of q_m for each job (lam, m, samples, sampler,
    reducers), with every (job, block) pair one task of one thread pool.

    Each reducer maps an array of q_m values to per-sample values; a job's
    result holds one mean with its standard error per reducer, all from
    the same ``samples`` draws. A job's blocks of _MC_BLOCK_ELEMS variates draw from its sampler's
    substreams, one per block, and each block's per-reducer totals are
    summed in block order, so the estimates do not depend on the thread
    count. A block streams its q_m values through the reduction in pieces
    of _MC_CHUNK_ROWS rows, so it never holds its (rows, n) variates.
    """
    tasks = []
    for j, (lam, m, samples, sampler, reducers) in enumerate(jobs):
        if samples < MIN_SAMPLES:
            raise ValueError(f"need at least {MIN_SAMPLES} samples")
        block = max(1, _MC_BLOCK_ELEMS // lam.k)
        nblocks = (samples + block - 1) // block
        tasks += [(j, bi, min(block, samples - block * bi))
                  for bi in range(nblocks)]

    def run_task(i: int):
        j, bi, rows = tasks[i]
        lam, m, _samples, sampler, reducers = jobs[j]
        qm = np.empty(rows)
        r0 = 0
        for sq in sampler.substream(bi).mean_square_rows(
                m, rows, lam.k, _MC_CHUNK_ROWS):
            qm[r0: r0 + sq.shape[0]] = sq @ lam.values
            r0 += sq.shape[0]
        out = []
        for red in reducers:
            vals = red(qm)
            out.append((float(vals.sum()), float((vals * vals).sum())))
        return out

    totals = [np.zeros((len(job[4]), 2)) for job in jobs]
    for (j, _bi, _rows), part in zip(tasks, map_indexed(run_task, len(tasks),
                                                        threads)):
        totals[j] += part
    results = []
    for (_lam, _m, samples, _sampler, _reducers), tot in zip(jobs, totals):
        estimates = []
        for s, sq in tot.tolist():
            mean = s / samples
            var = max(0.0, (sq - samples * mean * mean) / (samples - 1))
            estimates.append(McEstimate(
                mean=mean, stderr=math.sqrt(var / samples), samples=samples))
        results.append(estimates)
    return results


def mc_abs_log_moment(lam: SimplexVector, samples: int,
                      sampler: GaussianSampler, threads: int = 1) -> McEstimate:
    """Estimate E |ln q| for the form under the standard Gaussian measure."""
    return mc_batch([(lam, 1, samples, sampler, [abs_log])], threads)[0][0]


def mc_tail(lam: SimplexVector, m: int, t: float, samples: int,
            sampler: GaussianSampler, threads: int = 1) -> McEstimate:
    """Empirical frequency of {q_m >= t} (or {q_m <= t} when t <= 1)."""
    return mc_batch([(lam, m, samples, sampler, [tail_indicator(t)])],
                    threads)[0][0]


def mc_rank_m_abs_log(lam: SimplexVector, m: int, samples: int,
                      sampler: GaussianSampler, threads: int = 1) -> McEstimate:
    """Estimate E |ln q_m| for the m-fold average of the form."""
    return mc_batch([(lam, m, samples, sampler, [abs_log])], threads)[0][0]


# ---------------------------------------------------------------------------
# Named verification suites (shared by the CLI and the acceptance tests)
# ---------------------------------------------------------------------------

def _derived_sampler(seed: int, index: int) -> GaussianSampler:
    """Independent sampler per estimator: distinct Philox keys never collide."""
    return GaussianSampler((seed * 1_000_003 + index) % (1 << 128))


def suite_constants():
    """Closed-form constants against their documented targets; instant."""
    rows = constants_report()
    return rows, {}


def suite_lemma21(seed: int, samples: int = 10 ** 6, threads: int = 1):
    """Moment and tail bounds for single Gaussian evaluations.

    Twenty random diagonal forms (dimensions cycling 2..8) plus the pure
    rank-one form: E |ln q| stays below 2.75 within 3 * stderr, the rank-one
    estimate lands within 1.76 +- 0.02, and every empirical tail frequency
    P(q >= t) for t in 2, 4, 6, 10 stays below phi(t) within 3 * stderr.
    All estimates of a form come from one pass of ``samples`` draws.
    """
    tail_ts = (2.0, 4.0, 6.0, 10.0)
    rows = []
    forms = [("rank1", SimplexVector([1.0]))]
    for i in range(20):
        n = 2 + (i % 7)
        forms.append((f"form{i:02d}", _simplex_from(_derived_sampler(seed, i), n)))
    reducers = [abs_log] + [tail_indicator(t) for t in tail_ts]
    jobs = [(form, 1, samples, _derived_sampler(seed, 20 + j), reducers)
            for j, (_name, form) in enumerate(forms)]
    for (name, _form), (est, *tails) in zip(forms, mc_batch(jobs, threads)):
        rows.append(BoundReport(
            f"abs_log_moment[{name}]", est.mean, 2.75,
            est.mean < 2.75 + 3.0 * est.stderr, "<"))
        if name == "rank1":
            # 0.02 absolute window at the nominal 1e6 samples; smaller runs
            # fall back to the 3 * stderr margin
            window = max(0.02, 3.0 * est.stderr)
            rows.append(BoundReport(
                "abs_log_moment[rank1] near 1.76", est.mean, 1.76,
                abs(est.mean - 1.76) <= window, "~="))
        for t, tail in zip(tail_ts, tails):
            bound = phi(t)
            rows.append(BoundReport(
                f"tail[{name}, t={t:g}]", tail.mean, bound,
                tail.mean <= bound + 3.0 * tail.stderr, "<="))
    return rows, {}


def suite_lemma51(seed: int, samples: int = 10 ** 6, threads: int = 1):
    """Averaged-form tail and moment bounds.

    For each m in 1, 4, 16, 100 and five random diagonal forms: the upper
    tail at t = 1 + 3/sqrt(m) and the lower tail at
    t = max(0.25, 1 - 3/sqrt(m)) stay below the Laplace-transform bound
    within 3 * stderr, and E |ln q_m| stays below 6/sqrt(m) within
    3 * stderr. All three estimates of a form come from one pass of
    max(1e3, min(samples, 4e6 / m)) draws of q_m.
    """
    cases, jobs = [], []
    for m in (1, 4, 16, 100):
        n_samples = max(10 ** 3, min(samples, 4_000_000 // m))
        t_up = 1.0 + 3.0 / math.sqrt(m)
        t_lo = max(0.25, 1.0 - 3.0 / math.sqrt(m))
        reducers = [tail_indicator(t_up), tail_indicator(t_lo), abs_log]
        for j in range(5):
            stream = 2 * len(jobs)
            lam = _simplex_from(_derived_sampler(seed, stream), 2 + j)
            cases.append((m, j, t_up, t_lo))
            jobs.append((lam, m, n_samples,
                         _derived_sampler(seed, stream + 1), reducers))
    rows = []
    for (m, j, t_up, t_lo), (up, lo, est) in zip(cases,
                                                  mc_batch(jobs, threads)):
        for t, tail in ((t_up, up), (t_lo, lo)):
            bound = laplace_tail_upper(m, t)
            rows.append(BoundReport(
                f"tail[m={m}, form{j}, t={t:.3f}]", tail.mean, bound,
                tail.mean <= bound + 3.0 * tail.stderr, "<="))
        bound = rank_m_abs_log(m)
        rows.append(BoundReport(
            f"abs_log_moment[m={m}, form{j}]", est.mean, bound,
            est.mean <= bound + 3.0 * est.stderr, "<="))
    return rows, {}


def suite_sandwich(seed: int):
    """Relaxation sandwich over a sweep of random instances.

    _SANDWICH_INSTANCES instances sweep the (n, k) grid with n in 2..6 and
    k in 1..5 at condition cap 100; each is checked by check_sandwich.
    Returns one row per instance (value = relaxation excess over the sphere
    oracle) plus the maximum excess observed.
    """
    rows = []
    max_excess = -math.inf
    for j in range(_SANDWICH_INSTANCES):
        n = 2 + (j % 5)
        k = 1 + ((j // 5) % 5)
        sampler = _derived_sampler(seed, j)
        qmap = random_map(sampler, n, k, 100.0)
        alpha = _simplex_from(sampler.substream(k + 1), k)
        rep = check_sandwich(qmap, alpha, sampler)
        max_excess = max(max_excess, rep.excess)
        rows.append(BoundReport(
            f"sandwich[{j:03d}, n={n}, k={k}]", rep.excess, BETA_RANK_ONE,
            rep.lower_ok and rep.upper_ok, "<="))
    return rows, {"max_excess": max_excess}


SUITES = {
    "constants": suite_constants,
    "lemma21": suite_lemma21,
    "lemma51": suite_lemma51,
    "sandwich": suite_sandwich,
}
