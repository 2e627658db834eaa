"""Shared helpers for the test suite: seeded instance and vector factories."""

import numpy as np
import pytest

from quadround import (GaussianSampler, QuadraticMap, SimplexVector,
                       precondition)
from quadround.instances import random_map, random_witness
import quadround.verify as verify_mod


def make_map(seed: int, n: int, k: int, condition_cap: float = 100.0) -> QuadraticMap:
    return random_map(GaussianSampler(seed), n, k, condition_cap)


def make_simplex(seed: int, k: int) -> SimplexVector:
    z = GaussianSampler(seed).normals((k,)) ** 2 + 1e-9
    return SimplexVector(z / z.sum())


def make_preconditioned(seed: int, n: int, k: int, condition_cap: float = 100.0):
    """A preconditioned random instance plus a transported random witness."""
    qmap = make_map(seed, n, k, condition_cap)
    prec = precondition(qmap)
    witness_orig = random_witness(GaussianSampler(seed + 77), qmap)
    X_hat = prec.push_witness(witness_orig)
    return prec, X_hat


def near_rank_one(n, k, eps):
    """Q_i = v_i v_i' + eps I with unit v_i in general position, uniform a,
    and the sampler the oracle draws its starts from."""
    s = GaussianSampler(100 * n + k)
    V = s.normals((k, n))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    qmap = QuadraticMap([np.outer(v, v) + eps * np.eye(n) for v in V])
    return qmap, SimplexVector(np.full(k, 1.0 / k)), s.substream(k + 1)


def sandwich_instance(seed, j):
    """Instance j of suite_sandwich(seed): map, weights and oracle sampler."""
    n, k = 2 + j % 5, 1 + (j // 5) % 5
    s = verify_mod._derived_sampler(seed, j)
    qmap = random_map(s, n, k, 100.0)
    return qmap, verify_mod._simplex_from(s.substream(k + 1), k), s


@pytest.fixture
def sampler():
    return GaussianSampler(20259)
