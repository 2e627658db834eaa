import math

import numpy as np
import pytest

from quadround import (GaussianSampler, LinalgError, NotPositiveDefinite,
                       cholesky, inverse_spd, sqrt_psd, sym_eigen)
from quadround.linalg import EigenConvergenceError, fro_norm


def _sym(sampler, n):
    G = sampler.normals((n, n))
    return 0.5 * (G + G.T)


def test_nonsymmetric_input_fails_loudly():
    # nothing in linalg re-symmetrizes its input; the residual checks
    # reject a matrix that is not symmetric instead of factoring half of it
    A = np.array([[4.0, 1.0], [0.0, 9.0]])
    with pytest.raises(EigenConvergenceError):
        sym_eigen(A)
    for fn in (cholesky, sqrt_psd, inverse_spd):
        with pytest.raises(LinalgError):
            fn(A)


def test_sym_eigen_examples():
    w, v = sym_eigen(np.diag([3.0, 1.0]))
    assert np.allclose(w, [1.0, 3.0])
    assert np.allclose(np.abs(v), np.eye(2)[:, ::-1])

    w, v = sym_eigen(np.eye(4))
    assert np.allclose(w, 1.0)
    assert np.allclose(v.T @ v, np.eye(4), atol=1e-12)

    # characteristic polynomial by hand: lambda^2 - 4 lambda + 3
    w, v = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(w, [1.0, 3.0], atol=1e-12)
    assert np.allclose(np.abs(v[:, 0]), [1 / math.sqrt(2)] * 2, atol=1e-12)
    assert np.allclose(np.abs(v[:, 1]), [1 / math.sqrt(2)] * 2, atol=1e-12)


def test_sym_eigen_reconstructs_random():
    sampler = GaussianSampler(12)
    for i in range(30):
        n = 2 + i % 6
        A = _sym(sampler, n)
        w, v = sym_eigen(A)
        assert np.all(np.diff(w) >= 0)
        resid = np.linalg.norm((v * w) @ v.T - A)
        assert resid <= 1e-9 * max(1.0, np.linalg.norm(A))


def test_cholesky_examples():
    L = cholesky(np.diag([4.0, 9.0]))
    assert np.allclose(L, np.diag([2.0, 3.0]))
    assert np.allclose(cholesky(np.eye(3)), np.eye(3))
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))  # determinant -3


def test_cholesky_agrees_with_spectrum():
    # cholesky succeeds exactly when the smallest eigenvalue is positive
    sampler = GaussianSampler(13)
    seen_pd = seen_indef = False
    for i in range(60):
        n = 2 + i % 4
        A = _sym(sampler, n) + (i % 3) * np.eye(n)
        w, _ = sym_eigen(A)
        try:
            cholesky(A)
            ok = True
            seen_pd = True
        except NotPositiveDefinite:
            ok = False
            seen_indef = True
        assert ok == (w[0] > 0)
    assert seen_pd and seen_indef


def test_sqrt_psd_examples():
    T = sqrt_psd(np.diag([4.0, 9.0]))
    assert np.allclose(T, np.diag([2.0, 3.0]))

    x = np.array([0.6, 0.8])  # unit vector, rank-1 projector is idempotent
    P = np.outer(x, x)
    assert np.allclose(sqrt_psd(P), P, atol=1e-12)

    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    T = sqrt_psd(A)
    w, _ = sym_eigen(T)
    assert np.allclose(w, [1.0, math.sqrt(3.0)], atol=1e-12)
    assert np.linalg.norm(T @ T - A) <= 1e-9

    with pytest.raises(NotPositiveDefinite):
        sqrt_psd(np.diag([1.0, -0.5]))


def test_sqrt_psd_roundtrip_random_spd():
    sampler = GaussianSampler(14)
    for i in range(50):
        n = 2 + i % 6
        G = sampler.normals((n, n))
        A = G @ G.T + 1e-6 * np.eye(n)
        T = sqrt_psd(A)
        assert np.array_equal(T, T.T)
        assert np.linalg.norm(T @ T - A) <= 1e-9 * max(1.0, np.linalg.norm(A))
        w, _ = sym_eigen(A)
        assert w[0] > 0


def test_inverse_spd():
    assert np.allclose(inverse_spd(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))
    assert np.allclose(inverse_spd(np.eye(3)), np.eye(3))
    sampler = GaussianSampler(15)
    G = sampler.normals((3, 3))
    A = G @ G.T + 0.1 * np.eye(3)
    inv = inverse_spd(A)
    assert np.array_equal(inv, inv.T)
    assert np.linalg.norm(A @ inv - np.eye(3)) <= 1e-9
    with pytest.raises(NotPositiveDefinite):
        inverse_spd(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_checks_scale_without_overflow(sampler):
    # squares of entries beyond 1e154 overflow; an overflowed scale would
    # let every relative check pass, so this indefinite matrix must still
    # be refused, and 1e200 I still factors
    big = np.array([[0.5, 1e200], [1e200, 0.5]])
    assert fro_norm(big) == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
    with pytest.raises(NotPositiveDefinite):
        sqrt_psd(big)
    assert np.allclose(cholesky(1e200 * np.eye(3)), 1e100 * np.eye(3))
    # on ordinary input the scaled norm is np.linalg.norm bit for bit
    for n in (1, 4, 30):
        a = _sym(sampler, n) * 10.0 ** (n - 10)
        assert fro_norm(a) == float(np.linalg.norm(a))
