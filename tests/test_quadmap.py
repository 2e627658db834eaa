import hashlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from quadround import (GaussianSampler, NotPositiveDefinite, QuadraticMap,
                       SimplexVector, SpectahedronPoint, evaluate,
                       hull_point_from_combination, hull_point_from_witness,
                       instance_from_json, instance_to_json, kl_divergence,
                       precondition)
from quadround.cli import main as cli_main
from quadround.instances import random_map, random_witness
import quadround.quadmap as quadmap_mod
from quadround.quadmap import (InstanceFormatError, _split_q, evaluate_batch,
                               load_instance)

from conftest import make_map, make_simplex, pinsker_lower_bound


def test_quadratic_map_validation():
    with pytest.raises(NotPositiveDefinite):
        QuadraticMap([np.array([[1.0, 2.0], [2.0, 1.0]])])
    with pytest.raises(ValueError):
        QuadraticMap([])
    with pytest.raises(ValueError):
        QuadraticMap([np.eye(2), np.eye(3)])
    m = QuadraticMap([np.eye(2), np.diag([1.0, 2.0])])
    assert m.n == 2 and m.k == 2
    assert np.array_equal(m.Q[1], np.diag([1.0, 2.0]))


def test_quadratic_map_symmetrizes_and_validates():
    # the boundary check: square, n >= 1, finite, symmetrized once
    m = QuadraticMap([[[1.0, 2.0], [0.0, 3.0]]])
    assert np.array_equal(m.Q[0], m.Q[0].T)
    assert m.Q[0, 0, 1] == 1.0
    with pytest.raises(ValueError):
        QuadraticMap([[[1.0, 2.0]]])
    with pytest.raises(ValueError):
        QuadraticMap([[[np.nan]]])
    with pytest.raises(ValueError):
        QuadraticMap([np.zeros((0, 0))])
    X = SpectahedronPoint([[0.5, 0.2], [0.0, 0.5]])
    assert np.array_equal(X.mat, X.mat.T)
    assert X.mat[0, 1] == 0.1
    with pytest.raises(ValueError):
        SpectahedronPoint([[np.inf]])
    # finite entries whose sum A + A' overflows are refused as well
    with pytest.raises(ValueError, match="must be finite"):
        QuadraticMap([[[1.7e308, 0.0], [0.0, 1.0]]])
    with pytest.raises(ValueError, match="must be finite"):
        SpectahedronPoint([[0.5, 1e308], [1e308, 0.5]])


def test_boundary_symmetrization_is_exact():
    # Products such as (V * w) @ V.T, T^-1 Q T^-1 and T X T are symmetric
    # only up to roundoff; the boundary constructors make them exactly so,
    # and the result digests depend on it.
    for n, k in ((4, 3), (24, 10)):
        sampler = GaussianSampler(n + k)
        qmap = random_map(sampler, n, k, condition_cap=100.0)
        assert np.array_equal(qmap.Q, qmap.Q.transpose(0, 2, 1))
        prec = precondition(qmap)
        assert np.array_equal(prec.hat.Q, prec.hat.Q.transpose(0, 2, 1))
        X = prec.push_witness(random_witness(sampler.substream(k), qmap)).mat
        assert np.array_equal(X, X.T)


def test_simplex_vector():
    s = SimplexVector([0.2, 0.3, 0.5])
    assert s.values.sum() == pytest.approx(1.0, abs=1e-15)
    # renormalizes small drift
    s = SimplexVector([0.2 + 1e-8, 0.3, 0.5])
    assert s.values.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        SimplexVector([0.2, 0.3])           # sums to 0.5
    with pytest.raises(ValueError):
        SimplexVector([1.2, -0.2])          # negative entry
    with pytest.raises(ValueError):
        SimplexVector([])


def test_spectahedron_point():
    SpectahedronPoint(np.eye(3) / 3)
    with pytest.raises(ValueError):
        SpectahedronPoint(np.eye(3))        # trace 3
    with pytest.raises(ValueError):
        SpectahedronPoint(np.diag([1.5, -0.5]))  # not PSD


def test_boundary_arrays_are_read_only():
    # each boundary type owns a read-only copy of its input
    forms = [np.diag([1.0, 2.0]), np.eye(2)]
    m = QuadraticMap(forms)
    w = np.array([0.25, 0.75])
    a = SimplexVector(w)
    Xin = np.diag([0.5, 0.5])
    X = SpectahedronPoint(Xin)
    for arr in (m.Q, a.values, X.mat):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2.0
    forms[0][0, 0] = w[0] = Xin[0, 0] = 7.0
    assert m.Q[0, 0, 0] == 1.0 and a.values[0] == 0.25 and X.mat[0, 0] == 0.5


def test_evaluate_examples():
    m1 = QuadraticMap([np.eye(2)])
    assert np.allclose(evaluate(m1, [1.0, 0.0]), [1.0])
    assert np.allclose(evaluate(m1, [0.0, 0.0]), [0.0])
    m2 = QuadraticMap([np.diag([1.0, 2.0]), np.diag([3.0, 1.0])])
    assert np.allclose(evaluate(m2, [1.0, 1.0]), [3.0, 4.0])
    with pytest.raises(ValueError):
        evaluate(m2, [1.0, 1.0, 1.0])


def test_evaluate_batch_is_frobenius_bridge():
    # x' A x equals <A, x (x) x> = sum_ij A_ij x_i x_j for symmetric A
    sampler = GaussianSampler(11)
    for i in range(50):
        n = 2 + i % 5
        G = sampler.normals((n, n))
        A = 0.5 * (G + G.T)
        x = sampler.normals((n,))
        assert evaluate_batch(A[None], x[None])[0, 0] == pytest.approx(
            float(np.sum(A * np.outer(x, x))), rel=1e-12, abs=1e-12)


def test_evaluate_homogeneity():
    m = make_map(101, 4, 3)
    sampler = GaussianSampler(5)
    for _ in range(20):
        x = sampler.normals((4,))
        t = float(abs(sampler.normals(1)[0])) + 0.1
        assert np.allclose(evaluate(m, t * x), t * t * evaluate(m, x), rtol=1e-12)


@pytest.mark.parametrize("b", [1, 257])
@pytest.mark.parametrize("n", [1, 3, 64])
@pytest.mark.parametrize("k", [1, 20])
def test_evaluate_batch_matches_explicit_forms(b, n, k):
    Q = make_map(7 + n + k, n, k).Q
    pts = GaussianSampler(b + n + k).normals((b, n))
    got = evaluate_batch(Q, pts)
    assert got.shape == (b, k)
    want = np.array([[x @ Qi @ x for Qi in Q] for x in pts])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_evaluate_batch_rank_one_shortcut():
    # q(tx) / ||tx||^2 equals q(tx / ||tx||) to roundoff (homogeneity)
    Q = make_map(11, 64, 20).Q
    tx = GaussianSampler(12).normals((257, 64)) * 3.0
    nrm2 = np.einsum("bi,bi->b", tx, tx)
    shortcut = evaluate_batch(Q, tx) / nrm2[:, None]
    direct = evaluate_batch(Q, tx / np.sqrt(nrm2)[:, None])
    np.testing.assert_allclose(shortcut, direct, rtol=1e-13, atol=0.0)


def test_precondition_examples():
    prec = precondition(QuadraticMap([np.diag([4.0, 9.0])]))
    assert np.allclose(prec.T, np.diag([2.0, 3.0]))
    assert np.allclose(prec.hat.Q[0], np.eye(2), atol=1e-12)

    prec = precondition(QuadraticMap([np.eye(2), np.eye(2)]))
    assert np.allclose(prec.T, math.sqrt(2.0) * np.eye(2))
    assert np.allclose(prec.hat.Q, np.stack([np.eye(2) / 2] * 2), atol=1e-12)

    # each form is finite, but their sum S overflows
    with pytest.raises(ValueError, match="sum of the forms overflows"):
        precondition(QuadraticMap([np.diag([5e307, 1.0])] * 4))


def test_precondition_stack_matches_per_form_congruence():
    # the normalized forms written and symmetrized in place in one stack
    # equal bit for bit the per-form (M + M') / 2 with M = T^-1 Q_i T^-1
    for n, k in ((3, 2), (24, 5), (200, 3)):
        qmap = random_map(GaussianSampler(30 + n), n, k, 1e4)
        prec = precondition(qmap)
        for Q, form in zip(qmap.Q, prec.hat.Q):
            M = prec.T_inv @ Q @ prec.T_inv
            assert form.tobytes() == (0.5 * (M + M.T)).tobytes()
        assert not prec.hat.Q.flags.writeable


def test_precondition_preserves_image():
    qmap = make_map(102, 4, 3)
    prec = precondition(qmap)
    assert np.linalg.norm(prec.hat.Q.sum(axis=0) - np.eye(4)) <= 1e-9
    sampler = GaussianSampler(6)
    for _ in range(100):
        x = sampler.normals((4,))
        lhs = evaluate(prec.hat, prec.T @ x)
        rhs = evaluate(qmap, x)
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("cap", [1e2, 1e4, 1e6])
def test_precondition_congruence_invariance(cap):
    # hat(T x) = psi(x) entrywise on seeded maps with n in 2..8 up to
    # condition cap 1e6 (measured worst relative error 8.2e-15; none of the
    # maps is refused by the normalized-form gate)
    for j in range(40):
        n, k = 2 + j % 7, 1 + (j // 7) % 5
        qmap = make_map(9000 + j, n, k, cap)
        prec = precondition(qmap)
        sampler = GaussianSampler(9100 + j)
        for _ in range(10):
            x = sampler.normals((n,))
            want = evaluate(qmap, x)
            got = evaluate(prec.hat, prec.T @ x)
            assert np.all(np.abs(got - want) <= 1e-12 * want), (cap, j)


def test_hat_values_sum_to_squared_norm():
    prec = precondition(make_map(103, 5, 4))
    sampler = GaussianSampler(7)
    for _ in range(30):
        y = sampler.normals((5,))
        assert float(evaluate(prec.hat, y).sum()) == pytest.approx(
            float(y @ y), rel=1e-10)


def test_hull_point_from_witness():
    k, n = 4, 3
    uniform_map = QuadraticMap([np.eye(n) / k] * k)
    X = SpectahedronPoint(np.diag([0.5, 0.3, 0.2]))
    a = hull_point_from_witness(uniform_map, X)
    assert np.allclose(a.values, np.full(k, 1.0 / k))

    prec = precondition(make_map(104, 3, 3))
    x = np.array([0.6, 0.0, 0.8])
    a = hull_point_from_witness(prec.hat, SpectahedronPoint(np.outer(x, x)))
    assert np.allclose(a.values, evaluate(prec.hat, x), rtol=1e-12)

    # linearity in the witness: random rank-decomposed witness
    sampler = GaussianSampler(8)
    us = [sampler.normals((3,)) for _ in range(3)]
    us = [u / np.linalg.norm(u) for u in us]
    w = make_simplex(9, 3).values
    X = sum(wi * np.outer(u, u) for wi, u in zip(w, us))
    a = hull_point_from_witness(prec.hat, SpectahedronPoint(X))
    expected = sum(wi * evaluate(prec.hat, u) for wi, u in zip(w, us))
    assert np.allclose(a.values, expected, rtol=1e-10)

    # affinity: the midpoint witness maps to the midpoint hull point
    X1 = SpectahedronPoint(np.outer(us[0], us[0]))
    X2 = SpectahedronPoint(np.outer(us[1], us[1]))
    mid = SpectahedronPoint(0.5 * (X1.mat + X2.mat))
    a1 = hull_point_from_witness(prec.hat, X1).values
    a2 = hull_point_from_witness(prec.hat, X2).values
    am = hull_point_from_witness(prec.hat, mid).values
    assert np.allclose(am, 0.5 * (a1 + a2), rtol=1e-12)

    # un-preconditioned map is rejected
    raw = make_map(105, 3, 3)
    with pytest.raises(ValueError):
        hull_point_from_witness(raw, SpectahedronPoint(np.eye(3) / 3))


def test_hull_point_from_combination():
    prec = precondition(make_map(106, 4, 3))
    x = GaussianSampler(10).normals((4,))
    x = x / np.linalg.norm(x)
    a, X = hull_point_from_combination(prec.hat, [x], SimplexVector([1.0]))
    assert np.allclose(a.values, evaluate(prec.hat, x), rtol=1e-10)
    assert np.allclose(X, np.outer(x, x), atol=1e-12)

    # antipodal points give the same hull point (the forms are even)
    a2, _ = hull_point_from_combination(
        prec.hat, [x, -x], SimplexVector([0.5, 0.5]))
    assert np.allclose(a2.values, a.values, rtol=1e-12)

    # consistency: the returned witness reproduces the hull point
    sampler = GaussianSampler(11)
    pts = [sampler.normals((4,)) for _ in range(3)]
    w = make_simplex(12, 3)
    a3, X3 = hull_point_from_combination(prec.hat, pts, w)
    assert np.allclose(hull_point_from_witness(prec.hat, SpectahedronPoint(X3))
                       .values, a3.values, atol=1e-10)

    # any map: a_i = <Q_i, X> with unit sum, on the original forms too
    raw = make_map(106, 4, 3)
    a4, X4 = hull_point_from_combination(raw, pts, w)
    assert np.allclose(np.einsum("kij,ij->k", raw.Q, X4), a4.values,
                       rtol=1e-12)
    assert float(np.einsum("kij,ij->", raw.Q, X4)) == pytest.approx(1.0)

    # a point of weight 0 is dropped, even one whose square overflows
    a5, X5 = hull_point_from_combination(
        raw, [np.full(4, 1e200), pts[0]], SimplexVector([0.0, 1.0]))
    a6, X6 = hull_point_from_combination(raw, [pts[0]], SimplexVector([1.0]))
    assert np.array_equal(a5.values, a6.values) and np.array_equal(X5, X6)

    with pytest.raises(ValueError):
        hull_point_from_combination(prec.hat, [np.zeros(4), np.zeros(4)],
                                    SimplexVector([0.5, 0.5]))


def test_kl_divergence_examples():
    half = SimplexVector([0.5, 0.5])
    assert kl_divergence(half, half) == 0.0
    assert kl_divergence(SimplexVector([1.0, 0.0]), half) == pytest.approx(
        math.log(2.0), rel=1e-14)
    assert kl_divergence(SimplexVector([0.75, 0.25]),
                         SimplexVector([0.25, 0.75])) == pytest.approx(
        0.5 * math.log(3.0), rel=1e-14)
    # mass where the target has none: +inf sentinel
    assert kl_divergence(SimplexVector([1.0, 0.0]),
                         SimplexVector([0.0, 1.0])) == math.inf
    with pytest.raises(ValueError):
        kl_divergence(half, SimplexVector([1.0, 0.0, 0.0]))


def test_pinsker_lower_bound():
    half = SimplexVector([0.5, 0.5])
    assert pinsker_lower_bound(half, half) == 0.0
    # l1 distance 2, natural-log constant 1/2
    assert pinsker_lower_bound(SimplexVector([1.0, 0.0]),
                               SimplexVector([0.0, 1.0])) == pytest.approx(2.0)
    a = SimplexVector([0.6, 0.4])
    b = SimplexVector([0.5, 0.5])
    assert pinsker_lower_bound(a, b) <= kl_divergence(a, b)


def test_kl_dominates_pinsker_quantified():
    # 1e4 random simplex pairs across dimensions
    sampler = GaussianSampler(13)
    for i in range(10 ** 4):
        k = 2 + i % 6
        za = sampler.normals((k,)) ** 2 + 1e-12
        zb = sampler.normals((k,)) ** 2 + 1e-12
        a = SimplexVector(za / za.sum())
        b = SimplexVector(zb / zb.sum())
        kl = kl_divergence(a, b)
        pb = pinsker_lower_bound(a, b)
        assert pb >= 0.0
        assert kl + 1e-12 >= pb


def test_instance_json_roundtrip():
    qmap = make_map(107, 3, 2)
    X = np.eye(3)
    X = X / float(np.einsum("kij,ij->", qmap.Q, X))
    doc = instance_to_json(qmap, witness=X)
    qmap2, X2 = instance_from_json(doc)
    assert np.array_equal(qmap2.Q, qmap.Q)
    assert np.allclose(X2, X, atol=1e-12)
    # a combination witness loads as its matrix
    doc2 = {**instance_to_json(qmap),
            "witness": {"points": [[1.0, 1.0, 1.0]], "weights": [1.0]}}
    _, X3 = instance_from_json(doc2)
    ones = np.ones((3, 3))
    assert np.allclose(X3, ones / float(np.einsum("kij,ij->", qmap.Q, ones)),
                       rtol=1e-12)

    with pytest.raises(InstanceFormatError):
        instance_from_json({"n": 2, "k": 1})
    with pytest.raises(InstanceFormatError):
        instance_from_json({"n": 2, "k": 1, "Q": [[[1.0, 0.0]]]})
    # malformed headers and entries are format errors, not ValueErrors
    for bad in ({"n": 1e400, "k": 1, "Q": [[[1.0]]]},
                {"n": 1, "k": 1e400, "Q": [[[1.0]]]},
                {"n": 2, "k": 1, "Q": [[[1.0, 0.0], [0.0]]]},
                {"n": 2, "k": 1, "Q": [[[1.0, "x"], [0.0, 1.0]]]},
                {"n": 1, "k": 1, "Q": [[[10 ** 400]]]},
                {"n": 1, "k": 1, "Q": [[[1.0]]], "witness": {"X": [["x"]]}}):
        with pytest.raises(InstanceFormatError):
            instance_from_json(bad)
    with pytest.raises(NotPositiveDefinite):
        instance_from_json({"n": 2, "k": 1,
                            "Q": [[[1.0, 2.0], [2.0, 1.0]]]})


def _reference_load(path):
    """The stdlib loader: json.loads of the text, then instance_from_json,
    and the sha256 of the file's bytes."""
    data = path.read_bytes()
    try:
        doc = json.loads(data.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    return *instance_from_json(doc), hashlib.sha256(data).hexdigest()


def _outcome(load, path):
    """The bytes of the loaded Q and X and the digest, or the class of the
    exception."""
    try:
        qmap, X, digest = load(path)
    except Exception as exc:
        return type(exc)
    return qmap.Q.tobytes(), None if X is None else X.tobytes(), digest


def _loader_documents(tmp_path):
    """Valid and invalid instance texts that stress the loader's scan."""
    gen = tmp_path / "gen.json"
    assert cli_main(["--quiet", "gen", "--n", "5", "--k", "3", "--seed", "4",
                     "--witness-random", "--out", str(gen)]) == 0
    indented = gen.read_text(encoding="utf-8")
    doc = json.loads(indented)
    compact = json.dumps(doc, separators=(",", ":"))
    Q, W = json.dumps(doc["Q"]), json.dumps(doc["witness"])
    rest = compact[1:]
    note = r'"\"Q\": [[ ] { \\\"\\"'    # holds "Q": [[ ] { \" and ends in \\
    valid = [
        indented,
        compact,
        json.dumps(dict(reversed(doc.items()))),
        '{"n": 5, "k": 3, "witness": %s, "Q": %s}' % (W, Q),
        '{"n": 5, "k": 3, "Q": %s, "witness": %s}' % (Q, W),
        compact.replace(",", ",\r\n\t").replace(":", "\t:\r\n "),
        '{"note": %s, "note2": "]]", %s' % (note, rest),
        compact.replace('"Q"', r'"\u0051"'),
        '{"Q": [[[1.0]]], ' + rest,
        '{"Q": [[[1.0]]], ' + compact.replace('"Q"', r'"\u0051"')[1:],
        '{"Q": 7, ' + rest,
        compact[:-2] + ', "Q": [[[9.0]]]}}',
        '{"n": 1, "k": 2, "Q": [ [[1]] ,\n[[2]] ]}',
    ]
    invalid = [
        '["Q", [[[1]]]]',
        '{"n": 1, "k": 2, "Q": [[[1]] x [[2]]]}',
        '{"n": 1, "k": 2, "Q": [[[1]],,[[2]]]}',
        '{"n": 1, "k": 2, "Q": [[[1]], [[2]],]}',
        '{"n": 1, "k": 2, "Q": [x [[1]], [[2]]]}',
        '{"n": 1, "k": 2, "Q": [1, 2]}',
        '{"n": 1, "k": 2, "Q": [[[1]], 2]}',
        '{"n": 1, "k": 1, "Q": [[[1]]}}',
        '{"n": 1, "k": 1, "Q": [[[1]]]',
        '{"n": 1, "k": 1, "Q": [[[1]]], "note": "abc}',
        '{"n": 1, "k": 1, "Q": [[[1}]]}',
        '{"n": 1, "k": 1, "Q": [[[1]]], "bad": "\\x"}',
        '{"n": 1, "k": 1, "Q": [[[1]]], "Q": 5}',
        '{"n": 1, "k": 1, "Q": [[[1]]], "Q": {"a": [[[1]]]}}',
        '{"n": 1, "k": 1}',
        '{"n": 1, "k": 1, "Q": [[["a"]]]}',
        '{"n": 1, "k": 2, "Q": [[[1]], [[2',
        '{"n": 1, "k": 2, "Q": [[[1]], ',
        compact + " x",
        compact + " {}",
    ]
    return valid, invalid


def _check_loader_documents(tmp_path):
    valid, invalid = _loader_documents(tmp_path)
    path = tmp_path / "inst.json"
    for text in valid + invalid:
        path.write_bytes(text.encode())
        got = _outcome(load_instance, path)
        assert got == _outcome(_reference_load, path), text
        assert isinstance(got, tuple) == (text in valid), text
        if text in valid:
            # the forms of every valid document are parsed one at a time
            with path.open("rb") as fh:
                assert _split_q(fh, hashlib.sha256())[1] is not None, text


def test_loader_matches_stdlib_json(tmp_path):
    # load_instance parses the forms of Q one at a time; on each document it
    # must return the same Q and X bytes as stdlib json, or raise the same
    # exception class
    _check_loader_documents(tmp_path)
    path = tmp_path / "inst.json"
    path.write_bytes(b'{"n": 1, "k": 1, "Q": [[[1.0]]], "note": "\xff"}')
    assert _outcome(load_instance, path) is InstanceFormatError


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_loader_reads_across_chunk_boundaries(tmp_path, monkeypatch, chunk):
    # the file is read in pieces of _READ_CHUNK bytes; with pieces this
    # small every bracket, quote, backslash run, "Q" key and its colon
    # straddles a boundary somewhere, and every document still loads as
    # stdlib json reads it, with the digest of all of its bytes
    monkeypatch.setattr(quadmap_mod, "_READ_CHUNK", chunk)
    _check_loader_documents(tmp_path)


@pytest.mark.parametrize("chunk", [1 << 20, 7])
def test_loader_reads_an_instance_once(tmp_path, monkeypatch, chunk):
    # every byte of the file is read once, also when the document is not an
    # instance and parsing its text says why
    monkeypatch.setattr(quadmap_mod, "_READ_CHUNK", chunk)
    counts = []

    class Counting(io.BufferedReader):
        def readinto(self, b):
            counts.append(super().readinto(b))
            return counts[-1]

        def read(self, size=-1):
            data = super().read(size)
            counts.append(len(data))
            return data

    monkeypatch.setattr(quadmap_mod, "open",
                        lambda path, mode: Counting(io.FileIO(path, mode)),
                        raising=False)
    inst = tmp_path / "inst.json"
    assert cli_main(["--quiet", "gen", "--n", "5", "--k", "3", "--seed", "4",
                     "--witness-random", "--out", str(inst)]) == 0
    assert load_instance(str(inst))[0].k == 3
    assert sum(counts) == inst.stat().st_size
    counts.clear()
    inst.write_text('{"n": 1, "k": 1, "Q": 5}')
    with pytest.raises(InstanceFormatError, match="expected 1 matrices in Q"):
        load_instance(str(inst))
    assert sum(counts) == inst.stat().st_size


def test_loader_peak_memory_below_file_size(tmp_path):
    # the file is read in pieces and each form is parsed as it arrives, so
    # loading holds neither the whole text nor every form's lists: the peak
    # of traced allocations stays below the size of the file
    inst = tmp_path / "inst.json"
    assert cli_main(["--quiet", "gen", "--n", "120", "--k", "30", "--seed",
                     "1", "--witness-random", "--out", str(inst)]) == 0
    size = inst.stat().st_size
    assert size > 10e6
    load_instance(str(inst))    # untraced: one-time set-up such as orjson's
    tracemalloc.start()
    try:
        qmap, X, _ = load_instance(str(inst))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert qmap.k == 30 and X is not None
    assert peak < size, (peak, size)


def test_quadratic_map_writes_one_stack_and_not_its_input():
    # the symmetrized forms go straight into one stack, equal bit for bit
    # to the per-form (A + A') / 2, and the caller's arrays stay unwritten
    sampler = GaussianSampler(21)
    stack = sampler.normals((5, 7, 7))
    stack = stack @ stack.transpose(0, 2, 1) + np.eye(7)
    stack += 1e-3 * sampler.normals((5, 7, 7))      # not symmetric
    before = stack.copy()
    qmap = QuadraticMap(stack)
    assert np.array_equal(stack, before)
    assert not np.shares_memory(qmap.Q, stack)
    for a, form in zip(stack, qmap.Q):
        assert form.tobytes() == (0.5 * (a + a.T)).tobytes()
    forms = list(stack)
    assert QuadraticMap(forms).Q.tobytes() == qmap.Q.tobytes()
    assert all(np.array_equal(f, b) for f, b in zip(forms, before))


def test_loader_differences_from_stdlib_json(tmp_path):
    # the four kinds of document that load_instance reads otherwise than
    # stdlib json
    path = tmp_path / "inst.json"
    # NaN and Infinity literals: still rejected, now as invalid JSON
    for lit in ("NaN", "Infinity", "-Infinity"):
        path.write_text('{"n": 1, "k": 1, "Q": [[[%s]]]}' % lit)
        with pytest.raises(InstanceFormatError, match="not finite"):
            _reference_load(path)
        with pytest.raises(InstanceFormatError, match="invalid JSON"):
            load_instance(str(path))
    # an integer beyond 64 bits loads as the nearest float; stdlib json
    # keeps the int, which numpy gives an object dtype
    path.write_text('{"n": 1, "k": 1, "Q": [[[%d]]]}' % 2 ** 70)
    with pytest.raises(InstanceFormatError, match="numbers only"):
        _reference_load(path)
    qmap, _, _ = load_instance(str(path))
    assert qmap.Q[0, 0, 0] == 1.1805916207174113e+21 == float(2 ** 70)
    # a lone surrogate in a string that the loader does not read
    path.write_text('{"n": 1, "k": 1, "Q": [[[1.0]]], "note": "\\ud800"}')
    assert _reference_load(path)[0].k == 1
    with pytest.raises(InstanceFormatError, match="invalid JSON"):
        load_instance(str(path))
    # an earlier duplicate "Q" that is not an array of numeric matrices:
    # stdlib json keeps only the last "Q", the loader refuses the document
    for text, msg in (('{"Q":[1,2],"Q":[[[1]]],"n":1,"k":1}', "array of matrices"),
                      ('{"Q":[[["a"]]],"Q":[[[1]]],"n":1,"k":1}', "numbers only")):
        path.write_text(text)
        assert _reference_load(path)[0].k == 1
        with pytest.raises(InstanceFormatError, match=msg):
            load_instance(str(path))


def test_points_witness_loads_as_matrix():
    # Seeded maps and combinations: the loader returns the matrix witness
    # X = sum_t (w_t / s) x_t x_t' with s = sum_t w_t sum_i q_i(x_t), which
    # does not change when every point is scaled by 1e200.
    sampler = GaussianSampler(15)
    for j in range(40):
        n, k, t = 1 + j % 6, 1 + (j // 6) % 5, 1 + j % 4
        qmap = random_map(sampler.substream(2 * j), n, k)
        pts = sampler.normals((t, n))
        w = make_simplex(200 + j, t).values
        doc = {**instance_to_json(qmap), "witness": {
            "points": pts.tolist(), "weights": w.tolist()}}
        _, X = instance_from_json(doc)
        assert np.allclose(X, X.T, rtol=0, atol=1e-15 * np.linalg.norm(X))
        assert np.linalg.eigvalsh(X)[0] >= -1e-12 * np.linalg.norm(X)
        q = np.einsum("kij,ti,tj->tk", qmap.Q, pts, pts)
        s = float(w @ q.sum(axis=1))
        a = np.einsum("kij,ij->k", qmap.Q, X)
        assert np.allclose(a, w @ q / s, rtol=1e-10, atol=0)
        assert float(a.sum()) == pytest.approx(1.0, abs=1e-12)
        doc["witness"]["points"] = (1e200 * pts).tolist()
        _, X_big = instance_from_json(doc)
        assert np.allclose(X_big, X, rtol=0, atol=1e-12 * np.linalg.norm(X))
