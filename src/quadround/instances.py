"""Random instance generation: SPD forms with capped condition numbers.

Used by the CLI generator, the verification suites, and the test harness;
all randomness flows through GaussianSampler so instances are reproducible
from a seed alone.
"""

from __future__ import annotations

import numpy as np

from .linalg import sym_eigen
from .quadmap import QuadraticMap
from .rounding import GaussianSampler


def random_spd(sampler: GaussianSampler, n: int,
               condition_cap: float = 100.0) -> np.ndarray:
    """G G' + eps I with the spectrum shifted so cond <= condition_cap.

    condition_cap = 1 forces all eigenvalues equal (a multiple of the
    identity); otherwise a uniform spectral shift caps the ratio of extreme
    eigenvalues without changing eigenvectors. The shifted matrix
    (V diag(w) V') is symmetric only up to roundoff; QuadraticMap
    symmetrizes it.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if condition_cap < 1.0:
        raise ValueError("condition_cap must be at least 1")
    G = sampler.normals((n, n))
    Q = G @ G.T + 1e-3 * np.eye(n)
    w, V = sym_eigen(Q)
    if condition_cap == 1.0:
        return np.eye(n) * float(w.mean())
    cond = w[-1] / w[0]
    if cond > condition_cap:
        shift = (w[-1] - condition_cap * w[0]) / (condition_cap - 1.0)
        Q = (V * (w + shift)) @ V.T
    return Q


def random_map(sampler: GaussianSampler, n: int, k: int,
               condition_cap: float = 100.0) -> QuadraticMap:
    """k independent capped-condition SPD forms on R^n."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return QuadraticMap([
        random_spd(sampler.substream(i), n, condition_cap) for i in range(k)
    ])


def random_witness(sampler: GaussianSampler, qmap: QuadraticMap) -> np.ndarray:
    """Normalized Wishart witness: X = H H' scaled so sum_i <Q_i, X> = 1.

    The scaling makes the induced hull point a_i = <Q_i, X> a probability
    vector; after preconditioning the transported witness T X T has unit
    trace and lands on the spectahedron. Raises ArithmeticError when the
    sum is not positive or the scaled X would overflow (forms so small
    that the sum is subnormal); W's largest entry is on its diagonal.
    """
    H = sampler.normals((qmap.n, qmap.n))
    W = H @ H.T
    total = float(np.einsum("kij,ij->", qmap.Q, W))
    if not total > 0.0:
        raise ArithmeticError("degenerate Wishart draw")
    if float(np.max(W)) / total > np.finfo(float).max:
        raise ArithmeticError(
            f"the witness overflows when scaled by 1 / {total!r}")
    return W / total
