"""Small shared helpers: deterministic parallel map, canonical JSON, digests,
and scipy's compiled optimization and quadrature cores."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor


def map_indexed(fn, count: int, threads: int = 1) -> list:
    """Evaluate fn(i) for i in range(count), returning results in index order.

    With threads > 1 the calls run on a pool of at most threads, count and
    usable-CPU workers; results are gathered by index, so the output is
    identical to the sequential run. Callers must make fn(i) independent of
    evaluation order (disjoint RNG substreams).
    """
    workers = min(threads, count, _usable_cpus())
    if workers <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(count)))


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def canonical_json(obj) -> str:
    """Serialize with sorted keys and no whitespace; floats keep full precision."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=True)


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_CORE_LOCK = threading.Lock()


@functools.cache
def scipy_core(name: str):
    """scipy's compiled extension ``scipy.<name>`` (say ``optimize._zeros``),
    loaded from its file without running its package's ``__init__``
    (hundreds of modules for ``scipy.optimize``, which ``scipy.integrate``
    imports). It is kept out of sys.modules, where it would lack its
    parent package; once the package is imported, its own copy is
    returned. Raises ImportError if the file is not there.
    """
    # imported here, so gen, report and lemma51 never load scipy
    import importlib.machinery
    import importlib.util

    import scipy

    fullname = f"scipy.{name}"
    folder = os.path.join(os.path.dirname(scipy.__file__),
                          *name.split(".")[:-1])
    with _CORE_LOCK:
        module = sys.modules.get(fullname)
        if module is not None:
            return module
        spec = importlib.machinery.FileFinder(folder, (
            importlib.machinery.ExtensionFileLoader,
            importlib.machinery.EXTENSION_SUFFIXES)).find_spec(fullname)
        if spec is None:
            raise ImportError(f"scipy's compiled core {name} is not in {folder}")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        # a single-phase extension enters itself in sys.modules when created
        sys.modules.pop(fullname, None)
        return module


def brentq(f, a: float, b: float, xtol: float) -> float:
    """``scipy.optimize.brentq(f, a, b, xtol=xtol)`` through the same
    compiled core and defaults; a NaN value of f raises ValueError."""
    def checked(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; "
                             "solver cannot continue")
        return fx

    return scipy_core("optimize._zeros")._brentq(
        checked, a, b, xtol, 4 * sys.float_info.epsilon, 100, (), False, True)


def quad(f, a: float, b: float, epsabs: float, epsrel: float,
         limit: int) -> tuple[float, float]:
    """``scipy.integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel,
    limit=limit)`` for a <= b, b finite or inf, through the same compiled
    QUADPACK routines (qagse, qagie); returns (value, error estimate).
    Every QUADPACK error code raises ArithmeticError (quad warns of codes
    1-5)."""
    quadpack = scipy_core("integrate._quadpack")
    if b == math.inf:
        val, err, ier = quadpack._qagie(f, a, 1, (), 0, epsabs, epsrel, limit)
    else:
        val, err, ier = quadpack._qagse(f, a, b, (), 0, epsabs, epsrel, limit)
    if ier != 0:
        raise ArithmeticError(
            f"QUADPACK error code {ier} on [{a}, {b}]: value {val}, "
            f"error estimate {err:.2e}")
    return val, err
