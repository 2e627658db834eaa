import math

import numpy as np
import pytest

from quadround import (GaussianSampler, PreconditionedMap, QuadraticMap,
                       SimplexVector, SpectahedronPoint, acceptance,
                       decompose_rank_m, evaluate, hull_point_from_combination,
                       hull_point_from_witness, kl_divergence, precondition,
                       round_rank_m, round_rank_one, solve, sphere_max_oracle,
                       sqrt_psd)

from quadround.quadmap import evaluate_batch
import quadround.rounding as rounding_mod

from conftest import make_map, make_preconditioned, pinsker_lower_bound


# --- sampler -----------------------------------------------------------

def test_sampler_determinism():
    s1 = GaussianSampler(123)
    s2 = GaussianSampler(123)
    a = s1.normals((5,))
    b = s1.normals((5,))
    assert not np.array_equal(a, b)       # the stream advances
    assert np.array_equal(a, s2.normals((5,)))
    assert np.array_equal(b, s2.normals((5,)))
    # substreams differ from the parent and from each other
    c = GaussianSampler(123).substream(0).normals((5,))
    d = GaussianSampler(123).substream(1).normals((5,))
    assert not np.array_equal(c, d)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        GaussianSampler(-1)
    # odd request consumes a full Box-Muller pair
    assert GaussianSampler(9).normals((3,)).shape == (3,)


@pytest.mark.parametrize("key", [0, (1 << 128) - 1])
@pytest.mark.parametrize("jumps", [0, 1, (1 << 64) - 1, 1 << 64, (1 << 64) + 5,
                                   1 << 100, (1 << 128) - 1])
def test_sampler_substream_is_philox_jumped(key, jumps):
    # the sampler sets the counter of Philox(key).jumped(jumps) itself
    ref = np.random.Philox(key=key)
    if jumps:
        ref = ref.jumped(jumps)
    gen = GaussianSampler(key, jumps)._gen
    got, want = gen.bit_generator.state, ref.state
    for field in ("counter", "key"):
        assert np.array_equal(got["state"][field], want["state"][field])
    assert np.array_equal(got["buffer"], want["buffer"])
    assert [got[f] for f in ("buffer_pos", "has_uint32", "uinteger")] == \
        [want[f] for f in ("buffer_pos", "has_uint32", "uinteger")]
    assert np.array_equal(gen.random(9), np.random.Generator(ref).random(9))


def test_sampler_moments():
    n, draws = 6, 10 ** 5
    z = GaussianSampler(2024).normals((draws, n))
    means = z.mean(axis=0)
    assert np.all(np.abs(means) <= 0.01)            # 3 / sqrt(1e5) margin
    sq = float((z ** 2).sum(axis=1).mean())
    assert abs(sq - n) <= 3.0 * math.sqrt(2.0 * n / draws)


def _box_muller_reference(gen, shape):
    """Out-of-place Box-Muller over two uniform draws per request."""
    if np.isscalar(shape):
        shape = (int(shape),)
    count = int(np.prod(shape)) if shape else 1
    npairs = (count + 1) // 2
    u1 = 1.0 - gen.random(npairs)
    u2 = gen.random(npairs)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * math.pi) * u2
    z = np.empty(2 * npairs)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return z[:count].reshape(shape)


def test_sampler_matches_out_of_place_box_muller():
    # the in-place sampler gives the reference's bytes, and consumes the
    # stream as it does, over one stream read by many requests: each request
    # starts where the one before it left the stream, including requests of
    # one pair less than, exactly and one pair more than one and two chunks
    # of 2^16 normals, the pieces normals was once split into
    chunk = 1 << 16
    s = GaussianSampler(31)
    gen = np.random.Generator(np.random.Philox(key=31))
    for shape in (0, 1, 2, 3, 10 ** 5 + 1, (), 7, (5, 7, 3), (0,), (4, 1),
                  chunk - 1, chunk, chunk + 1, 2 * chunk - 1, 2 * chunk,
                  2 * chunk + 1, 5, (2, chunk + 1)):
        z = s.normals(shape)
        ref = _box_muller_reference(gen, shape)
        assert z.shape == ref.shape and z.tobytes() == ref.tobytes(), shape
    for rows, k in ((1, 1), (7, 3), (50, 3), (4097, 5)):
        sq = np.concatenate([piece.copy() for piece in GaussianSampler(
            32).mean_square_rows(1, rows, k, 64)])
        ref = _box_muller_reference(
            np.random.Generator(np.random.Philox(key=32)), (rows, k)) ** 2
        assert sq.tobytes() == ref.tobytes(), (rows, k)


def test_sampler_returns_a_fresh_array_per_call():
    # each normals call returns a view of a buffer of its own: no result
    # shares memory with another, each is writable, and writing into one
    # changes neither a later draw nor the stream
    shapes = (5, (), 0, (3, 4, 2), 8, (2, 3))
    s = GaussianSampler(33)
    gen = np.random.Generator(np.random.Philox(key=33))
    zs = [s.normals(shape) for shape in shapes]
    refs = [_box_muller_reference(gen, shape) for shape in shapes]
    for i, z in enumerate(zs):
        assert z.flags.writeable and z.shape == refs[i].shape, shapes[i]
        assert not any(np.shares_memory(z, w) for w in zs[:i]), shapes[i]
    for i, z in enumerate(zs):
        z[...] = np.nan
        for w, ref, shape in zip(zs[i + 1:], refs[i + 1:], shapes[i + 1:]):
            assert w.tobytes() == ref.tobytes(), (shapes[i], shape)
    assert s.normals(7).tobytes() == _box_muller_reference(gen, 7).tobytes()


# --- acceptance predicate ----------------------------------------------

def _symmetric_rescaled(k=2, n=2):
    """Uniform forms I/k with the trivial solution, rescaled to unit values."""
    qmap = QuadraticMap([np.eye(n) / k] * k)
    alpha = SimplexVector(np.full(k, 1.0 / k))
    sol = solve(qmap, alpha)
    resc = QuadraticMap(qmap.Q * sol.rescale[:, None, None])
    T = sqrt_psd(sol.X_star)
    return resc, T, alpha


def test_accept_rank_one_symmetric_instance():
    resc, T, alpha = _symmetric_rescaled()

    def accepts(x):
        tx = T @ x
        with np.errstate(divide="ignore"):
            score = float(alpha.values @ np.log(evaluate(resc, tx)))
        return bool(acceptance(float(tx @ tx), score))

    # scale x so that ||T x||^2 = 1: the rescaled log-score is exactly 0
    x = np.array([1.0, 0.0])
    x = x / math.sqrt(float(x @ T @ T @ x))
    assert accepts(x)
    # norm cutoff: ||T x||^2 = 7 rejects regardless of the log term
    x7 = x * math.sqrt(7.0)
    assert not accepts(x7)
    # zero push is rejected (log-score -inf)
    assert not accepts(np.zeros(2))
    # the inequalities are closed, with thresholds set by the batch width
    assert acceptance(6.0, -3.0) and not acceptance(np.nextafter(6.0, 7.0), 0.0)
    assert not acceptance(1.0, np.nextafter(-3.0, -4.0))
    assert acceptance(1.0 + 3.0 / 2.0, -12.0 / 2.0, m=4)
    assert not acceptance(2.6, 0.0, m=4) and not acceptance(1.0, -6.1, m=4)
    assert np.array_equal(acceptance(np.array([1.0, 7.0, 1.0]),
                                     np.array([0.0, 0.0, -4.0])),
                          [True, False, False])


def test_accept_rank_one_rate_floor():
    # empirical acceptance over 1e4 draws beats the 0.01 guarantee
    qmap = make_map(42, 4, 3)
    prec = precondition(qmap)
    from quadround.instances import random_witness
    Xh = prec.push_witness(random_witness(GaussianSampler(43), qmap))
    a = hull_point_from_witness(prec.hat, Xh)
    sol = solve(prec.hat, a)
    resc_Q = prec.hat.Q * sol.rescale[:, None, None]
    T = sqrt_psd(sol.X_star)
    draws = 10 ** 4
    z = GaussianSampler(99).normals((draws, 4))
    tx = z @ T.T
    nrm2 = np.einsum("bi,bi->b", tx, tx)
    logterm = np.einsum("k,bk->b", a.values,
                        np.log(np.einsum("kij,bi,bj->bk", resc_Q, tx, tx)))
    paper = (nrm2 <= 6.0) & (logterm >= -3.0)
    rate = float(np.mean(paper))
    stderr = math.sqrt(rate * (1.0 - rate) / draws)
    assert rate >= 0.01 - 3.0 * stderr
    # the predicate agrees with the paper's inequalities on every draw
    assert np.array_equal(acceptance(nrm2, logterm), paper)


# --- rank-one rounding --------------------------------------------------

def _identity_preconditioned(k, n):
    """Forms I/k, which already sum to I, with T = I."""
    return PreconditionedMap(QuadraticMap([np.eye(n) / k] * k),
                             np.eye(n), np.eye(n))


def test_round_rank_one_uniform_forms_zero_kl():
    k, n = 3, 4
    prec = _identity_preconditioned(k, n)
    X = SpectahedronPoint(np.eye(n) / n)
    out = round_rank_one(prec, X, GaussianSampler(5), budget=20)
    assert out.kl == 0.0
    assert out.accepted
    a = hull_point_from_witness(prec.hat, X)
    assert np.array_equal(out.a.values, a.values)
    assert out.bound == 4.8
    assert np.allclose(out.b.values, out.a.values)


def test_round_rank_one_single_form_zero_kl():
    prec = precondition(make_map(61, 3, 1))
    X = SpectahedronPoint(np.eye(3) / 3)
    out = round_rank_one(prec, X, GaussianSampler(6), budget=10)
    assert out.a.values[0] == 1.0
    assert out.kl <= 1e-12


def _ellipse_centre(delta):
    """The centre of an n = 2 ellipse family, with its exact distance d*.

    For n = 2 the sphere oracle is exact to roundoff, so d* = sum_i a_i ln
    a_i - max_sphere sum_i a_i ln q_i is the distance from a to the image.
    Returns the preconditioned map, the transported witness and d*.
    """
    qmap = QuadraticMap([np.diag([1.0, delta]), np.diag([delta, 1.0]),
                         np.array([[1.0, 1.0 - delta], [1.0 - delta, 1.0]])])
    X = np.eye(2) / 2
    prec = precondition(qmap)
    Xh = prec.push_witness(X / np.einsum("kij,ij->", qmap.Q, X))
    a = hull_point_from_witness(prec.hat, Xh)
    d_star = (float(a.values @ np.log(a.values))
              - sphere_max_oracle(prec.hat, a, GaussianSampler(1)))
    return prec, Xh, d_star


@pytest.mark.parametrize("delta", [1e-1, 1e-2, 1e-3, 1e-4])
def test_round_rank_one_attains_exact_distance_ellipse_centre(delta):
    # known answer: the centre sits 0.05-0.06 away from the image, and
    # rank-one rounding must land at d* up to its draw resolution
    prec, Xh, d_star = _ellipse_centre(delta)
    assert 0.05 < d_star < 0.06
    out = round_rank_one(prec, Xh, GaussianSampler(1), budget=1000)
    assert d_star - 1e-12 <= out.kl <= d_star + 1e-6


@pytest.mark.parametrize("delta", [1e-1, 1e-2, 1e-3, 1e-4])
def test_round_rank_m_known_answer_ellipse_centre(delta):
    # m = 1 rounds to an image point, so kl >= d*, and lands within the
    # measured 1.1e-5 to 1.6e-5 of it; m = 4 and 16 round to hull points,
    # which can sit much closer to a (measured kl 4.1e-5 to 1.6e-4)
    prec, Xh, d_star = _ellipse_centre(delta)
    out = round_rank_m(prec, Xh, 1, GaussianSampler(1), budget=200)
    assert d_star - 1e-12 <= out.kl <= d_star + 1e-4
    for m in (4, 16):
        out = round_rank_m(prec, Xh, m, GaussianSampler(1), budget=200)
        assert 0.0 <= out.kl <= 5e-4, m


def test_round_rank_one_certificate_and_determinism():
    prec, Xh = make_preconditioned(71, 5, 4)
    a = hull_point_from_witness(prec.hat, Xh)
    out1 = round_rank_one(prec, Xh, GaussianSampler(72), budget=300)
    out2 = round_rank_one(prec, Xh, GaussianSampler(72), budget=300)
    # bit-identical outcome for identical (instance, seed, budget)
    assert out1.kl == out2.kl
    assert np.array_equal(out1.points, out2.points)
    assert out1.accepted_count == out2.accepted_count
    # and identical when evaluated on two worker threads
    out3 = round_rank_one(prec, Xh, GaussianSampler(72), budget=300,
                          threads=2)
    assert out3.kl == out1.kl and np.array_equal(out3.points, out1.points)

    # self-consistent certificate: same arithmetic path reproduces b and kl
    y = out1.points[0]
    assert np.array_equal(SimplexVector(evaluate(prec.hat, y)).values,
                          out1.b.values)
    assert abs(float(evaluate(prec.hat, y).sum()) - 1.0) <= 1e-9
    assert np.array_equal(out1.a.values, a.values)
    assert out1.kl == kl_divergence(a, out1.b)
    assert np.all(out1.b.values > 0)
    assert abs(float(np.linalg.norm(y)) - 1.0) <= 1e-9
    # certified distance with room for the solver gap
    assert out1.accepted
    assert out1.kl <= 4.8 + out1.sdp.fw_gap
    assert pinsker_lower_bound(a, out1.b) <= out1.kl + 1e-12
    assert out1.samples_drawn == 300 and out1.draws == 300


def test_round_rank_one_budget_exhausted_flag():
    # frozen seed whose single draw fails the acceptance predicate
    qmap = make_map(42, 4, 3)
    prec = precondition(qmap)
    from quadround.instances import random_witness
    Xh = prec.push_witness(random_witness(GaussianSampler(43), qmap))
    a = hull_point_from_witness(prec.hat, Xh)
    out = round_rank_one(prec, Xh, GaussianSampler(248), budget=1)
    assert not out.accepted
    assert out.accepted_count == 0
    # the outcome is still a valid image point with a true KL value
    assert abs(float(out.b.values.sum()) - 1.0) <= 1e-12
    assert out.kl == kl_divergence(a, out.b)


def test_round_rank_one_rejects_bad_inputs():
    prec, Xh = make_preconditioned(81, 3, 2)
    with pytest.raises(ValueError):
        round_rank_one(prec, Xh, GaussianSampler(1), budget=0)
    with pytest.raises(ValueError):
        # a raw (unnormalized) map cannot pose as a preconditioned one: the
        # constructor is the one check that the forms sum to I
        PreconditionedMap(make_map(81, 3, 2), np.eye(3), np.eye(3))


# --- rank-m rounding ----------------------------------------------------

def test_round_rank_m_uniform_forms_zero_kl():
    k, n = 3, 4
    X = SpectahedronPoint(np.eye(n) / n)
    out = round_rank_m(_identity_preconditioned(k, n), X, 5,
                       GaussianSampler(7), budget=10)
    assert out.kl <= 1e-14
    assert out.accepted


def test_round_rank_m_m1_is_rank_one_point():
    prec, Xh = make_preconditioned(91, 4, 3)
    out = round_rank_m(prec, Xh, 1, GaussianSampler(92), budget=50)
    # Y = y (x) y for a unit vector y, rebuilt from the certificate points
    Y = out.points.T @ out.points
    assert np.array_equal(Y, Y.T)
    w = np.linalg.eigvalsh(Y)
    assert np.allclose(w[:-1], 0.0, atol=1e-12)
    assert w[-1] == pytest.approx(1.0, abs=1e-12)
    assert out.points.shape == (1, 4)
    assert abs(float(np.linalg.norm(out.points[0])) - 1.0) <= 1e-8


def test_round_rank_m_invariants():
    prec, Xh = make_preconditioned(93, 5, 4)
    a = hull_point_from_witness(prec.hat, Xh)
    for m in (2, 4, 16):
        out = round_rank_m(prec, Xh, m, GaussianSampler(94), budget=60)
        assert out.bound == 15.0 / math.sqrt(m)
        assert abs(float(out.b.values.sum()) - 1.0) <= 1e-9
        assert np.all(out.b.values > 0)
        assert out.kl <= 15.0 / math.sqrt(m) + out.sdp.fw_gap
        assert out.accepted
        assert out.points.shape == (m, 5)
        # b re-derived from the decomposition matches to 1e-8
        a2, _ = hull_point_from_combination(
            prec.hat, list(out.points), SimplexVector(np.full(m, 1.0 / m)))
        assert np.allclose(a2.values, out.b.values, atol=1e-8)
        assert out.kl == kl_divergence(a, out.b)
    # determinism across thread counts
    o1 = round_rank_m(prec, Xh, 4, GaussianSampler(95), budget=40)
    o2 = round_rank_m(prec, Xh, 4, GaussianSampler(95), budget=40, threads=3)
    assert o1.kl == o2.kl and np.array_equal(o1.points, o2.points)


def test_round_rank_m_batch_rejection_flag():
    qmap = make_map(42, 4, 3)
    prec = precondition(qmap)
    from quadround.instances import random_witness
    Xh = prec.push_witness(random_witness(GaussianSampler(43), qmap))
    out = round_rank_m(prec, Xh, 1, GaussianSampler(108), budget=1)
    assert not out.accepted


def test_round_rank_m_acceptance_rate_floor():
    prec, Xh = make_preconditioned(96, 4, 4)
    budget = 400
    out = round_rank_m(prec, Xh, 4, GaussianSampler(97), budget=budget)
    rate = out.accepted_count / out.draws
    stderr = math.sqrt(max(rate * (1 - rate), 1e-12) / budget)
    assert rate >= 0.17 - 3.0 * stderr


# --- the shared kernel --------------------------------------------------

def _round_mode(prec, X, m, seed, budget, threads=1):
    sampler = GaussianSampler(seed)
    if m is None:
        return round_rank_one(prec, X, sampler, budget=budget, threads=threads)
    return round_rank_m(prec, X, m, sampler, budget=budget, threads=threads)


# Budgets of two blocks, the second ragged: 256 + 44 draws for rank-one,
# 64 + 6 batches of 4 and 4 + 2 batches of 64 for rank-m. On these k = 4
# maps a block holds more than k batches of 4, which evaluate_batch scores,
# and k batches of 64, which their Gram matrices score.
WIDTHS = [(None, 300), (4, 70), (64, 6)]


@pytest.mark.parametrize("m, budget", WIDTHS)
def test_round_redraws_zero_push(monkeypatch, m, budget):
    # Block 0's first request (a full block) gets an all-zero first draw
    # (a whole zero batch for rank-m); the kernel must redraw it.
    prec, Xh = make_preconditioned(71, 5, 4)
    a = hull_point_from_witness(prec.hat, Xh)
    real = GaussianSampler.normals
    zeroed = []

    def normals(self, shape):
        z = real(self, shape)
        if (self.seed, self.jumps) == (72, 1) and shape[0] > 1:
            z[0] = 0.0
            zeroed.append(shape)
        return z

    monkeypatch.setattr(GaussianSampler, "normals", normals)
    width = 1 if m is None else m
    outs = []
    for threads in (1, 2, 3):
        out = _round_mode(prec, Xh, m, 72, budget, threads)
        assert out.samples_drawn == budget * width + width
        assert math.isfinite(out.kl) and out.kl == kl_divergence(a, out.b)
        assert abs(float(out.b.values.sum()) - 1.0) <= 1e-12
        outs.append(out)
    assert len(zeroed) == 3
    for out in outs[1:]:
        assert out.kl == outs[0].kl
        assert np.array_equal(out.points, outs[0].points)
        assert out.accepted_count == outs[0].accepted_count


@pytest.mark.parametrize("m, budget", WIDTHS)
def test_round_matches_explicit_reference(m, budget):
    # A rank-one witness puts a on the boundary of the hull, so some draws
    # fail each rank-one inequality and some batches the rank-m norm cap.
    prec, seed = precondition(make_map(65, 5, 4)), 66
    qmap = prec.hat
    u = GaussianSampler(70).normals((5,))
    Xh = SpectahedronPoint(np.outer(u, u) / (u @ u))
    a = hull_point_from_witness(qmap, Xh)
    outs = [_round_mode(prec, Xh, m, seed, budget, threads)
            for threads in (1, 2, 3)]

    sol = solve(qmap, a)
    T = sqrt_psd(sol.X_star)
    width = 1 if m is None else m
    per_block = 256 // width          # the fixed draw-block size
    kls, accepted, drawn = [], 0, 0
    for bi in range(-(-budget // per_block)):
        nb = min(per_block, budget - bi * per_block)
        z = GaussianSampler(seed).substream(bi).normals((nb * width, 5))
        drawn += nb * width
        for batch in z.reshape(nb, width, 5):
            pushes = [T @ x for x in batch]
            q = np.array([[p @ Q @ p for Q in qmap.Q] for p in pushes])
            sq = sum(float(p @ p) for p in pushes)
            b = q.sum(axis=0) / sq
            kls.append(float(np.sum(a.values * np.log(a.values / b))))
            score = float(np.sum(a.values * np.log(sol.rescale * q.mean(axis=0))))
            if m is None:
                accepted += sq <= 6.0 and score >= -3.0
            else:
                accepted += (sq / m <= 1.0 + 3.0 / math.sqrt(m)
                             and score >= -12.0 / math.sqrt(m))
    for out in outs:
        assert out.samples_drawn == drawn == budget * width
        assert out.accepted_count == accepted
        assert abs(out.kl - min(kls)) <= 1e-12
        assert out.kl == outs[0].kl
        assert np.array_equal(out.points, outs[0].points)


@pytest.mark.parametrize("cap", [1e2, 1e6])
def test_gram_sums_match_evaluate_batch(cap):
    # A wide batch's sums <Q_i, G>, with G the Gram matrix of its pushes,
    # computed as the kernel does, against the per-push values summed.
    Qstack = precondition(make_map(81, 12, 5, cap)).hat.Q
    k, n = Qstack.shape[:2]
    tx = GaussianSampler(82).normals((5, 64, n)) * np.logspace(-3, 0, n)
    G = np.matmul(tx.transpose(0, 2, 1), tx)
    gram = G.reshape(5, -1) @ Qstack.reshape(k, -1).T
    ref = evaluate_batch(Qstack, tx.reshape(-1, n)).reshape(5, 64, k).sum(axis=1)
    assert np.max(np.abs(gram - ref) / ref) <= 1e-13


@pytest.mark.parametrize("m, k, gram", [(2, 5, False), (16, 5, False),
                                        (16, 20, True), (64, 4, True)])
def test_round_scores_wide_batches_by_gram(monkeypatch, m, k, gram):
    # Gram matrices score a batch exactly when a block holds at most k
    # batches (256 // m <= k), so a block's Grams never outgrow the forms.
    calls = []
    real = rounding_mod.evaluate_batch
    monkeypatch.setattr(rounding_mod, "evaluate_batch",
                        lambda Q, pts: calls.append(pts.shape) or real(Q, pts))
    prec, Xh = make_preconditioned(91, 3, k)
    round_rank_m(prec, Xh, m, GaussianSampler(92), budget=3)
    assert calls == ([] if gram else [(3 * m, 3)])


# --- decomposition ------------------------------------------------------

def test_decompose_rank_m_examples():
    u = np.array([0.6, 0.0, 0.8])
    pts = decompose_rank_m(np.outer(u, u), 2)
    assert pts.shape == (2, 3)
    assert np.allclose(np.abs(pts[0]), math.sqrt(2.0) * np.abs(u), atol=1e-12)
    assert np.allclose(pts[1], 0.0)

    pts = decompose_rank_m(np.eye(2) / 2, 2)
    # eigenvalues 1/2 each, sqrt(2 * 1/2) = 1: the standard basis up to
    # order and sign
    assert np.allclose(sorted(np.abs(pts).tolist()), [[0.0, 1.0], [1.0, 0.0]],
                       atol=1e-12)


def test_decompose_rank_m_random_reconstruction():
    sampler = GaussianSampler(33)
    G = sampler.normals((6, 3))          # rank-3 PSD
    Y = G @ G.T
    Y = Y / np.trace(Y)
    pts = decompose_rank_m(Y, 4)
    recon = np.einsum("mi,mj->ij", pts, pts) / 4
    assert np.linalg.norm(recon - Y) <= 1e-8
    with pytest.raises(ValueError):
        decompose_rank_m(Y, 2)   # rank 3 exceeds m = 2
    with pytest.raises(ValueError):
        decompose_rank_m(Y, 0)
