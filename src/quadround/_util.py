"""Small shared helpers: deterministic parallel map, canonical JSON, digests."""

from __future__ import annotations

import hashlib
import json
import os
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
