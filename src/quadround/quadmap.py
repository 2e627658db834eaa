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

import hashlib
import math
import re

import numpy as np
import orjson

from .config import DEFAULTS
from .linalg import (LinalgError, NotPositiveDefinite, cholesky, fro_norm,
                     inverse_spd, sqrt_psd, sym_eigen)


def _sym_array(mat, out=None) -> np.ndarray:
    """(A + A') / 2 of a square float matrix A, written into ``out`` if given.

    The one check of a user matrix, called at the boundaries (QuadraticMap,
    SpectahedronPoint, a witness X on instance load) and by precondition:
    A must be square with n >= 1, and (A + A') / 2 finite, which refuses
    both non-finite entries and entries whose sum overflows. Everything
    inside the package passes the resulting arrays on as they are.
    """
    a = np.asarray(mat, dtype=float)
    want = "a square matrix" if out is None else f"shape {out.shape}"
    if a.ndim != 2 or a.shape[0] != a.shape[1] or (
            out is not None and a.shape != out.shape):
        raise ValueError(f"expected {want}, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix dimension must be at least 1")
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.add(a, a.T, out=out)
        out *= 0.5
    if not np.isfinite(out).all():
        raise ValueError("matrix entries of (A + A') / 2 must be finite")
    return out


def _require_psd(X: np.ndarray) -> None:
    """Raise ValueError unless the symmetric array X is PSD: its least
    eigenvalue is at least -DEFAULTS.psd_check * ||X||_F, a norm that must
    not overflow."""
    try:
        w = sym_eigen(X)[0][0]
    except OverflowError as exc:
        raise ValueError("the Frobenius norm of the matrix overflows") from exc
    if not w >= -DEFAULTS.psd_check * max(fro_norm(X), 1e-300):
        raise ValueError(f"matrix is not PSD: min eigenvalue {w:.3e}")


def _gated(Q: np.ndarray) -> np.ndarray:
    """The stack Q of symmetric forms, read-only once each form has passed
    the definiteness gate linalg.cholesky, whose error names the form."""
    for i, form in enumerate(Q):
        try:
            cholesky(form)
        except LinalgError as exc:
            raise type(exc)(f"form {i} is not positive definite: {exc}") from exc
    Q.flags.writeable = False
    return Q


class SimplexVector:
    """Nonnegative k-vector summing to 1 (probability vector).

    Construction renormalizes by the sum, but rejects input whose sum
    deviates from 1 by more than DEFAULTS.simplex_sum and input with
    genuinely negative entries (values above -1e-12 are clamped to zero
    first). ``values`` is a read-only array owned by the object.
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
        self.values.flags.writeable = False

    @property
    def k(self) -> int:
        return self.values.size

    def __repr__(self):
        return f"SimplexVector({np.array2string(self.values, precision=4)})"


class SpectahedronPoint:
    """PSD matrix with unit trace (a point of the spectahedron).

    Construction symmetrizes the input and checks both conditions against
    DEFAULTS.psd_check and DEFAULTS.trace_check; ``mat`` holds the array,
    read-only and owned by the object.
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        X = _sym_array(mat)
        _require_psd(X)
        tr = float(np.trace(X))
        if not abs(tr - 1.0) <= DEFAULTS.trace_check:
            raise ValueError(
                f"trace is {tr!r}, more than {DEFAULTS.trace_check} from 1")
        self.mat = X
        self.mat.flags.writeable = False

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def __repr__(self):
        return f"SpectahedronPoint(n={self.n})"


class QuadraticMap:
    """k positive definite quadratic forms on R^n.

    Each form is symmetrized and validated positive definite by Cholesky on
    construction. The stacked array of form matrices is exposed as ``Q``
    (shape k x n x n, read-only and owned by the object) for vectorized
    evaluation. The constructor writes each symmetrized form straight into
    that stack and never into the arrays it is given.
    """

    __slots__ = ("Q",)

    def __init__(self, forms):
        if len(forms) < 1:
            raise ValueError("a quadratic map needs at least one form")
        n = len(forms[0])
        Q = np.empty((len(forms), n, n))
        for form, out in zip(forms, Q):
            _sym_array(form, out)
        self.Q = _gated(Q)

    @classmethod
    def _take(cls, Q: np.ndarray) -> "QuadraticMap":
        """The map of a stack of finite symmetric forms, taken over without
        a copy; each form passes the constructor's gate."""
        qmap = cls.__new__(cls)
        qmap.Q = _gated(Q)
        return qmap

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
        if not resid <= DEFAULTS.precondition_residual:
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
    copy of Qstack is made. It costs 2 k n^2 flops per row. Rounding
    calls it for rank-one draws and narrow rank-m batches; a wider batch
    needs only its sums over the pushes, which rounding takes from the
    batch's Gram matrix instead.
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
    to rounding, hence both maps have the same image. Each product
    T^-1 Q_i T^-1 is written into one (k, n, n) stack, symmetrized in place
    and gated as the QuadraticMap constructor gates a form, and the
    normalized map takes the stack over: in floating point a normalized
    form of a near-singular map can fail the Cholesky gate that every
    original form passed; that raises NotPositiveDefinite (an indefinite
    form would make ln q_i NaN in rounding). An S that overflows is a
    ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        S = qmap.Q.sum(axis=0)
    if not np.isfinite(S).all():
        raise ValueError("the sum of the forms overflows")
    T = sqrt_psd(S)
    T_inv = inverse_spd(T)
    H = np.empty_like(qmap.Q)
    for Q, form in zip(qmap.Q, H):
        np.matmul(T_inv @ Q, T_inv, out=form)
        _sym_array(form, form)
    try:
        hat = QuadraticMap._take(H)
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
    when one is given, are each an InstanceFormatError. In a file read by
    load_instance an integer beyond 64 bits arrives as the nearest float
    (orjson reads it so) and passes.
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
        X = _parse_array(wit["X"], "witness X", (n, n))
        # Validate PSD and the unit-sum normalization against the map.
        try:
            X = _sym_array(X)
            _require_psd(X)
        except ValueError as exc:
            raise InstanceFormatError(f"witness X: {exc}") from exc
        total = float(np.einsum("kij,ij->", qmap.Q, X))
        if not abs(total - 1.0) <= DEFAULTS.simplex_sum:
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


_TOKENS = (b"[", b"{", b"]", b"}", b'"')
_BLANK = re.compile(rb"[ \t\n\r]*")
_COLON = re.compile(rb"[ \t\n\r]*:[ \t\n\r]*")
_COMMA = re.compile(rb"[ \t\n\r]*,[ \t\n\r]*")
# Instance files nest 4 levels deep. orjson 3.8 converts nested arrays
# recursively and crashes the interpreter at 200 000 levels.
_MAX_DEPTH = 1024
# Bytes read from an instance file at a time.
_READ_CHUNK = 1 << 20
# The position _split_q gives a token that the text read so far lacks.
_FAR = 1 << 62
# The error of a "Q" array whose elements are not arrays or objects
# separated by single commas.
_NOT_FORMS = "invalid instance: Q is not a JSON array of matrices"


def _split_q(fh, digest):
    """The text of a JSON file with its top-level "Q" array replaced by [],
    and that array's forms, each parsed as soon as it has been read.

    One forward scan over the brackets and quotes of the file, which is
    read in _READ_CHUNK pieces into one window and into the hashlib object
    ``digest``; unless it raises, the scan reads to the end of the file.
    A string ends at the next quote not preceded by an odd run of
    backslashes, and the brackets inside it do not count. A depth-1 string
    that spells Q and is followed by a colon is a "Q" key. While its value
    is an array, each element (an array or object at depth 3) is parsed by
    orjson and becomes a float array when its closing bracket arrives. The
    text outside that array is copied out as it is passed, with [] for the
    array, so the window holds only the form being read and the piece
    after it. JSON keeps the last duplicate key, so a later "Q" key drops
    the forms of an earlier one, whose array stays in the text as [].

    Positions are offsets in the file; the window holds its bytes from
    ``base`` to ``hi``. Returns (text, forms), with forms None when the
    last "Q" value is not an array or there is no "Q" key: the text then
    holds that value as it stands, and parsing it says what is wrong.
    Raises InstanceFormatError when the text ends inside a string or a "Q"
    array or nests deeper than _MAX_DEPTH, and when a "Q" array, even one
    that a later "Q" key drops, is not an array of numeric arrays separated
    by single commas; orjson.JSONDecodeError for a form that is not JSON.
    """
    work, rest = bytearray(_READ_CHUNK), bytearray()
    base = hi = out = 0     # rest holds the text before out (None in Q)
    nxt = [_FAR] * len(_TOKENS)

    def find(tok: bytes, start: int) -> int:
        i = work.find(tok, start - base, hi - base)
        return _FAR if i < 0 else i + base

    def read(keep: int) -> bool:
        # Keep the window from keep on, read a piece after it and find in
        # it the tokens the text lacked; False at the end of the file.
        nonlocal work, base, hi, out
        if out is not None:
            rest.extend(memoryview(work)[out - base:hi - base])
            out = hi
        live = memoryview(work)[keep - base:hi - base]
        n = len(live)
        if n + _READ_CHUNK > len(work):
            work = bytearray(n + _READ_CHUNK)
        with memoryview(work) as v:
            v[:n] = live
            live.release()
            start, hi = hi, hi + fh.readinto(v[n:n + _READ_CHUNK])
            digest.update(v[n:n + hi - start])
        base = keep
        for t, x in enumerate(nxt):
            if x == _FAR:
                nxt[t] = find(_TOKENS[t], start)
        return hi > start

    depth, key, forms, q = 0, None, None, None
    while True:
        p = min(nxt)
        if p == _FAR:
            if forms is not None:
                keep = a if depth > 2 else g
            else:
                keep = hi if key is None else key + 1
            if read(keep):
                continue
            break
        t = nxt.index(p)
        x = work.find(_TOKENS[t], p + 1 - base, hi - base)
        nxt[t] = _FAR if x < 0 else x + base
        if key is not None:
            # The token after a depth-1 "Q" string: is the string a key,
            # and does an array start right after its colon?
            m = _COLON.match(work, key + 1 - base, p - base)
            key = None
            if m is not None:
                q = None
                if t == 0 and m.end() + base == p:
                    rest += work[out - base:p - base] + b"[]"
                    g, forms, i, out = p + 1, [], 0, None
        if t < 2:
            depth += 1
            if depth > _MAX_DEPTH:
                raise InstanceFormatError(
                    f"invalid JSON: nested deeper than {_MAX_DEPTH} levels")
            if depth == 3 and forms is not None:
                glue = _COMMA if i else _BLANK
                if glue.fullmatch(work, g - base, p - base) is None:
                    raise InstanceFormatError(_NOT_FORMS)
                a = p
        elif t < 4:
            depth -= 1
            if forms is not None and depth == 2:
                with memoryview(work) as v:
                    form = orjson.loads(v[a - base:p + 1 - base])
                forms.append(_parse_array(form, f"Q[{i}]"))
                form, g, i = None, p + 1, i + 1
            elif forms is not None and depth == 1:
                if t == 3 or not _BLANK.fullmatch(work, g - base, p - base):
                    raise InstanceFormatError(_NOT_FORMS)
                q, forms, out = forms, None, p + 1
        else:
            e = p
            while True:
                e = find(b'"', e + 1)
                if e == _FAR:
                    e = hi - 1
                    keep = p if forms is None else a if depth > 2 else g
                    if not read(keep):
                        raise InstanceFormatError(
                            "invalid JSON: the text ends inside a string")
                    continue
                j = e - 1
                while work[j - base] == 0x5C:
                    j -= 1
                if (e - j) % 2:
                    break
            # JSON spells the string Q as "Q" or "\u0051" only. Matching
            # bytes also spares orjson a small parse, after which orjson
            # 3.8 keeps an 8 MiB buffer for the life of the process.
            if depth == 1 and e - p in (2, 7) and (
                    work[p + 1 - base:e - base] in (b"Q", rb"\u0051")):
                key = e
            nxt[:] = [x if x > e else find(tok, e + 1)
                      for x, tok in zip(nxt, _TOKENS)]
    if forms is not None:
        raise InstanceFormatError("invalid JSON: the text ends inside Q")
    rest += work[out - base:hi - base]
    return rest, q


def load_instance(path: str):
    """Read an instance file; returns (map, X or None) as instance_from_json
    and the sha256 hex digest of the bytes that were parsed.

    Q holds nearly all of an instance's bytes. The file, or a pipe, is read
    once, in pieces, which are hashed as they arrive; _split_q parses each
    form of Q on its own as soon as it has been read, so neither the whole
    text nor more than one form's Python lists are ever held. The text
    outside Q is parsed at the end. orjson rejects NaN and Infinity
    literals and lone surrogates as invalid JSON.
    """
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            text, forms = _split_q(fh, digest)
        doc = orjson.loads(text)
    except orjson.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    # The text outside Q, mostly the witness, is freed before the map is built.
    del text
    if forms is not None:
        doc["Q"] = forms
    return *instance_from_json(doc), digest.hexdigest()
