"""Small shared helpers: deterministic parallel map, canonical JSON, digests,
and scipy's compiled optimization cores."""

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


def sha256_file(path) -> str:
    """Digest of a file's bytes, streamed rather than held in memory. Equal
    to sha256_hex of the file's text when the file is valid UTF-8."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


_CORE_LOCK = threading.Lock()


@functools.cache
def scipy_core(name: str):
    """scipy's compiled extension ``scipy.optimize.<name>``, loaded from its
    file without running ``scipy.optimize``'s ``__init__`` (hundreds of
    modules). It is kept out of sys.modules, where it would lack its
    parent package; once ``scipy.optimize`` is imported, its own copy is
    returned. Raises ImportError if the file is not there.
    """
    # imported here, so gen, report and lemma51 never load scipy
    import importlib.machinery
    import importlib.util

    import scipy

    fullname = f"scipy.optimize.{name}"
    folder = os.path.join(os.path.dirname(scipy.__file__), "optimize")
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

    return scipy_core("_zeros")._brentq(
        checked, a, b, xtol, 4 * sys.float_info.epsilon, 100, (), False, True)
