"""Quadratic maps, preconditioning, hull-point certificates, and KL distance.

A quadratic map psi sends x in R^n to (q_1(x), ..., q_k(x)) where each
q_i(x) = x' Q_i x is a positive definite form. The preconditioning step
replaces Q_i by T^-1 Q_i T^-1 with T = (sum_i Q_i)^(1/2), which normalizes
sum_i Q_i = I without changing the image of the map: the new map evaluated
at T x equals the old map at x.

A point a of the convex hull of the image, scaled so its coordinates sum
to 1, is always carried together with a witness: a PSD matrix X with
a_i = <Q_i, X>. For a preconditioned map trace(X) = sum_i a_i = 1, so the
witness lives on the spectahedron. A witness given as a convex combination
of points becomes its matrix X when the instance is loaded, so the
pipeline carries matrices only. The rounding procedures take the witness
alone and derive a from it, so a and its certificate never disagree.

Distances between hull points and image points are measured by relative
entropy D(a||b) = sum_i a_i ln(a_i / b_i), natural logarithm throughout.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .config import DEFAULTS
from .linalg import (NotPositiveDefinite, cholesky, fro_norm, inverse_spd,
                     sqrt_psd, sym_eigen)


def _sym_array(mat) -> np.ndarray:
    """Validated symmetric float array (A + A') / 2 of a square matrix.

    The one input check for user matrices, called at the boundaries only
    (QuadraticMap, SpectahedronPoint, a witness X on instance load): the
    matrix must be square with n >= 1 and finite entries. Everything inside
    the package passes the resulting arrays on as they are.
    """
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return 0.5 * (a + a.T)


class SimplexVector:
    """Nonnegative k-vector summing to 1 (probability vector).

    Construction renormalizes by the sum, but rejects input whose sum
    deviates from 1 by more than DEFAULTS.simplex_sum and input with
    genuinely negative entries (values above -1e-12 are clamped to zero
    first).
    """

    __slots__ = ("values",)

    def __init__(self, values):
        v = np.array(values, dtype=float).reshape(-1)
        if v.size < 1:
            raise ValueError("simplex vector must have at least one entry")
        if not np.all(np.isfinite(v)):
            raise ValueError("simplex vector entries must be finite")
        if np.any(v < -1e-12):
            raise ValueError(f"negative entry {v.min():.3e} in simplex vector")
        v = np.clip(v, 0.0, None)
        s = float(v.sum())
        if abs(s - 1.0) > DEFAULTS.simplex_sum:
            raise ValueError(
                f"entries sum to {s!r}, more than {DEFAULTS.simplex_sum} from 1")
        self.values = v / s

    @property
    def k(self) -> int:
        return self.values.size

    def __repr__(self):
        return f"SimplexVector({np.array2string(self.values, precision=4)})"


class SpectahedronPoint:
    """PSD matrix with unit trace (a point of the spectahedron).

    Construction symmetrizes the input and checks both conditions against
    DEFAULTS.psd_check and DEFAULTS.trace_check; ``mat`` holds the array.
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        X = _sym_array(mat)
        w, _ = sym_eigen(X)
        scale = max(fro_norm(X), 1e-300)
        if w[0] < -DEFAULTS.psd_check * scale:
            raise ValueError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
        tr = float(np.trace(X))
        if abs(tr - 1.0) > DEFAULTS.trace_check:
            raise ValueError(
                f"trace is {tr!r}, more than {DEFAULTS.trace_check} from 1")
        self.mat = X

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def __repr__(self):
        return f"SpectahedronPoint(n={self.n})"


class QuadraticMap:
    """k positive definite quadratic forms on R^n.

    Each form is symmetrized and validated positive definite by Cholesky on
    construction. The stacked array of form matrices is exposed as ``Q``
    (shape k x n x n) for vectorized evaluation.
    """

    __slots__ = ("Q",)

    def __init__(self, forms):
        mats = [_sym_array(f) for f in forms]
        if len(mats) < 1:
            raise ValueError("a quadratic map needs at least one form")
        n = mats[0].shape[0]
        for i, m in enumerate(mats):
            if m.shape[0] != n:
                raise ValueError(f"form {i} has dimension {m.shape[0]}, expected {n}")
            try:
                cholesky(m)
            except Exception as exc:
                raise type(exc)(f"form {i} is not positive definite: {exc}") from exc
        self.Q = np.stack(mats)

    @property
    def n(self) -> int:
        return self.Q.shape[1]

    @property
    def k(self) -> int:
        return self.Q.shape[0]

    def __repr__(self):
        return f"QuadraticMap(n={self.n}, k={self.k})"


class PreconditionedMap:
    """A map together with its normalized version and the change of variables.

    ``hat`` holds the forms T^-1 Q_i T^-1 where T (an array, as is its
    inverse ``T_inv``) is the symmetric square root of S = sum_i Q_i, so the
    hat forms sum to the identity (to DEFAULTS.precondition_residual). The
    two maps have the same image; hat evaluated at T x equals the original
    at x.
    """

    __slots__ = ("hat", "T", "T_inv")

    def __init__(self, hat: QuadraticMap, T: np.ndarray, T_inv: np.ndarray):
        resid = float(np.linalg.norm(hat.Q.sum(axis=0) - np.eye(hat.n)))
        if resid > DEFAULTS.precondition_residual:
            raise ValueError(f"sum of normalized forms is {resid:.3e} from I")
        self.hat = hat
        self.T = T
        self.T_inv = T_inv

    def pull_point(self, y) -> np.ndarray:
        """Map a point of the normalized variables back to the original ones."""
        return self.T_inv @ np.asarray(y, dtype=float).reshape(-1)

    def push_witness(self, X) -> SpectahedronPoint:
        """Transport a hull witness by the congruence X -> T X T.

        Preserves the hull point: <T^-1 Q_i T^-1, T X T> = <Q_i, X>. The
        input must be PSD with sum_i <Q_i, X> = 1, so the image has unit
        trace and lands on the spectahedron, whose constructor symmetrizes
        and checks it.
        """
        return SpectahedronPoint(self.T @ np.asarray(X, dtype=float) @ self.T)


def evaluate(qmap: QuadraticMap, x) -> np.ndarray:
    """Evaluate the map: component i is x' Q_i x (nonnegative, > 0 for x != 0)."""
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.size != qmap.n:
        raise ValueError(f"point has dimension {v.size}, expected {qmap.n}")
    return np.einsum("kij,i,j->k", qmap.Q, v, v)


def evaluate_batch(Qstack: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Row-wise map evaluation: pts is (b, n), Qstack is (k, n, n), result
    is (b, k) with entry [r, i] = pts[r] @ Qstack[i] @ pts[r].

    One BLAS contraction per form: pts @ Q_i is written into a single
    (b, n) scratch buffer, and its row-wise dot with pts gives column i.
    Extra memory is O(b n) whatever k is; no (b, k n) intermediate and no
    copy of Qstack is made.
    """
    out = np.empty((pts.shape[0], Qstack.shape[0]))
    buf = np.empty(pts.shape)
    for i, Q in enumerate(Qstack):
        np.matmul(pts, Q, out=buf)
        np.einsum("bi,bi->b", buf, pts, out=out[:, i])
    return out


def precondition(qmap: QuadraticMap) -> PreconditionedMap:
    """Normalize the forms so they sum to the identity.

    S = sum_i Q_i is positive definite; with T = S^(1/2) the normalized
    forms are T^-1 Q_i T^-1. The identity hat(T x) = original(x) is exact up
    to rounding, hence both maps have the same image. The products
    T^-1 Q_i T^-1 are symmetrized and gated by the QuadraticMap constructor:
    in floating point a normalized form of a near-singular map can fail the
    Cholesky gate that every original form passed; that raises
    NotPositiveDefinite (an indefinite form would make ln q_i NaN in
    rounding).
    """
    T = sqrt_psd(qmap.Q.sum(axis=0))
    T_inv = inverse_spd(T)
    try:
        hat = QuadraticMap(T_inv @ Q @ T_inv for Q in qmap.Q)
    except NotPositiveDefinite as exc:
        raise NotPositiveDefinite(
            f"normalized {exc}; the map is too close to singular to "
            f"normalize by T^-1 Q_i T^-1") from exc
    return PreconditionedMap(hat, T, T_inv)


def hull_point_from_witness(qmap: QuadraticMap,
                            witness: SpectahedronPoint) -> SimplexVector:
    """Hull point a with a_i = <Q_i, X> for a spectahedron witness X.

    Requires a preconditioned map (forms summing to I) so that
    sum_i a_i = trace(X) = 1; SimplexVector rejects a sum further than
    DEFAULTS.simplex_sum from 1.
    """
    return SimplexVector(np.einsum("kij,ij->k", qmap.Q, witness.mat))


def hull_point_from_combination(qmap: QuadraticMap, points,
                                weights: SimplexVector):
    """Hull point and matrix witness of a convex combination of points.

    With s = sum_t w_t sum_i q_i(x_t), returns a = sum_t w_t psi(x_t) / s
    and X = sum_t (w_t / s) x_t x_t', so a_i = <Q_i, X> and
    sum_i a_i = 1 on any map. Points of weight 0 are dropped and the rest
    are divided by their largest |entry| first: a and X do not change under
    a common scale of the points, and no square can overflow.

    Raises ValueError unless the points are n-vectors, one per weight, and
    some point of positive weight is nonzero.
    """
    pts = np.array([np.asarray(p, dtype=float).reshape(-1) for p in points])
    if pts.ndim != 2 or pts.shape[1] != qmap.n:
        raise ValueError(f"points must be {qmap.n}-vectors")
    w = weights.values
    if w.size != pts.shape[0]:
        raise ValueError("one weight per point required")
    pts, w = pts[w > 0.0], w[w > 0.0]
    scale = float(np.abs(pts).max())
    if scale == 0.0:
        raise ValueError("the points of positive weight are all zero")
    pts = pts / scale
    vals = w @ evaluate_batch(qmap.Q, pts)
    s = float(vals.sum())
    return SimplexVector(vals / s), np.einsum("t,ti,tj->ij", w / s, pts, pts)


def kl_divergence(a: SimplexVector, b: SimplexVector) -> float:
    """Relative entropy D(a||b) = sum_i a_i ln(a_i / b_i), natural log.

    Conventions: 0 ln 0 = 0; a_i > 0 with b_i = 0 yields +inf. The result is
    clamped at zero when rounding produces a tiny negative value for a ~ b.
    """
    if a.k != b.k:
        raise ValueError(f"dimension mismatch: {a.k} vs {b.k}")
    av, bv = a.values, b.values
    mask = av > 0.0
    if np.any(bv[mask] == 0.0):
        return math.inf
    terms = av[mask] * (np.log(av[mask]) - np.log(bv[mask]))
    val = float(terms.sum())
    if val < 0.0:
        if val < -1e-9:
            raise AssertionError(f"KL came out {val!r}; inputs are corrupt")
        val = 0.0
    return val


def pinsker_lower_bound(a: SimplexVector, b: SimplexVector) -> float:
    """Lower bound on D(a||b) from the l1 distance: (sum_i |a_i - b_i|)^2 / 2.

    The constant 1/2 is the sharp one for natural-log relative entropy
    (base-2 entropy would allow 1/(2 ln 2), which is invalid here), so the
    bound never exceeds kl_divergence(a, b).
    """
    if a.k != b.k:
        raise ValueError(f"dimension mismatch: {a.k} vs {b.k}")
    l1 = float(np.abs(a.values - b.values).sum())
    return 0.5 * l1 * l1


# ---------------------------------------------------------------------------
# Instance file schema
# ---------------------------------------------------------------------------
# {"n": int, "k": int, "Q": [k matrices, each an n x n row-major array of
#  arrays], "witness": optional, either {"X": n x n matrix} or
#  {"points": [n-vectors], "weights": [floats]}}
#
# Matrices are symmetrized and validated positive definite on load. A matrix
# witness is stored in the original coordinates, normalized so that
# sum_i <Q_i, X> = 1; it is validated PSD here. A points witness becomes its
# matrix X = sum_t (w_t / s) x_t x_t' here (hull_point_from_combination), so
# the loader returns a matrix X either way, which
# PreconditionedMap.push_witness transports onto the spectahedron.


class InstanceFormatError(ValueError):
    """The instance JSON is malformed or has inconsistent shapes."""


def _parse_array(value, what: str, shape=None) -> np.ndarray:
    """The float array of a JSON number or nested list of numbers.

    A ragged list, an entry that is null, a string (even a numeric one), a
    boolean, an integer beyond int64 (numpy infers a dtype outside "iuf"
    for these) or beyond the float range, and a shape other than ``shape``
    when one is given, are each an InstanceFormatError.
    """
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"{what} is not numeric: {exc}") from exc
    if arr.dtype.kind not in "iuf":
        raise InstanceFormatError(
            f"{what} must hold numbers only, not null, strings or booleans")
    arr = arr.astype(float, copy=False)
    if not np.all(np.isfinite(arr)):
        raise InstanceFormatError(f"{what} has entries that are not finite")
    if shape is not None and arr.shape != shape:
        raise InstanceFormatError(f"{what} has shape {arr.shape}, expected {shape}")
    return arr


def instance_to_json(qmap: QuadraticMap, witness=None) -> dict:
    """Serialize a map (and optional matrix witness) to the instance schema."""
    doc = {
        "n": qmap.n,
        "k": qmap.k,
        "Q": [qmap.Q[i].tolist() for i in range(qmap.k)],
    }
    if witness is not None:
        doc["witness"] = {"X": np.asarray(witness, dtype=float).tolist()}
    return doc


def instance_from_json(doc: dict):
    """Parse and validate an instance document.

    Returns (map, X) where X is None when the document has no witness, and
    otherwise the witness matrix in the original coordinates, PSD with
    sum_i <Q_i, X> = 1: a matrix witness as given (divided by that sum), a
    points witness as the matrix hull_point_from_combination builds from
    it. Raises InstanceFormatError on malformed input and
    NotPositiveDefinite on forms that fail the definiteness gate.
    """
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be a JSON object")
    try:
        n, k, qlist = doc["n"], doc["k"], doc["Q"]
    except KeyError as exc:
        raise InstanceFormatError(f"missing field: {exc}") from exc
    if type(n) is not int or type(k) is not int or n < 1 or k < 1:
        raise InstanceFormatError(
            f"n and k must be positive integers, got {n!r} and {k!r}")
    if not isinstance(qlist, list) or len(qlist) != k:
        raise InstanceFormatError(f"expected {k} matrices in Q")
    qmap = QuadraticMap([_parse_array(m, f"Q[{i}]", (n, n))
                         for i, m in enumerate(qlist)])

    wit = doc.get("witness")
    if wit is None:
        return qmap, None
    if not isinstance(wit, dict):
        raise InstanceFormatError("witness must be an object")
    if "X" in wit:
        X = _sym_array(_parse_array(wit["X"], "witness X", (n, n)))
        # Validate PSD and the unit-sum normalization against the map.
        w, _ = sym_eigen(X)
        if w[0] < -DEFAULTS.psd_check * max(fro_norm(X), 1e-300):
            raise InstanceFormatError(f"witness X is not PSD (min eig {w[0]:.3e})")
        total = float(np.einsum("kij,ij->", qmap.Q, X))
        if abs(total - 1.0) > DEFAULTS.simplex_sum:
            raise InstanceFormatError(
                f"witness is normalized to sum {total!r}, expected 1")
        return qmap, X / total
    if "points" in wit:
        try:
            pts = [_parse_array(p, "witness point", (n,)) for p in wit["points"]]
            wts = _parse_array(wit["weights"], "witness weights", (len(pts),))
        except (KeyError, TypeError) as exc:
            raise InstanceFormatError(f"malformed combination witness: {exc}") from exc
        try:
            return qmap, hull_point_from_combination(
                qmap, pts, SimplexVector(wts))[1]
        except ValueError as exc:
            raise InstanceFormatError(f"points witness: {exc}") from exc
    raise InstanceFormatError("witness must contain either X or points/weights")


def load_instance(path: str):
    """Read an instance file; returns (map, X or None) as instance_from_json."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    return instance_from_json(doc)
