"""Span recording around the public functions of each quadround module.

The tracer lives in the benchmark, not in the program: it replaces a
function in every ``quadround`` module namespace that holds it, so a call
is recorded where its caller looks it up (``quadround.rounding.solve`` as
well as ``quadround.entropic_sdp.solve``). Spans are kept in memory; each
holds a name, start, end, parent span, command id, and counts taken from
the call's arguments or result.

Recording is thread-safe because ``--threads N`` runs ``normals`` and
``evaluate_batch`` on pool threads. A span opened on a thread with no open
span of its own takes as parent the innermost open span of the driving
thread, which is the call that handed the work to the pool.
"""

from __future__ import annotations

import inspect
import itertools
import os
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    cmd: str
    counts: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _arg(fn, args, kwargs, name):
    """Value of parameter ``name`` in a call of ``fn``, defaults applied."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.cmd = "setup"
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @property
    def active(self) -> bool:
        return bool(self._patches)

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, counter=None):
        """Return fn wrapped in a span; counter(args, kwargs, result) -> dict."""
        rec = self

        def traced(*args, **kwargs):
            stack = rec._stack()
            with rec._lock:
                sid = next(rec._ids)
                parent = (stack or rec._owner_stack or [None])[-1]
                stack.append(sid)
            cmd = rec.cmd
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                with rec._lock:
                    stack.pop()
            counts = counter(args, kwargs, result) if counter else {}
            with rec._lock:
                rec.spans.append(Span(sid, name, start, end, parent, cmd, counts))
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every traced function in every quadround namespace."""
        if self._patches:
            raise RuntimeError("tracing is already installed")
        import quadround.bounds as bounds
        import quadround.cli  # noqa: F401  (its namespace is patched too)
        import quadround.entropic_sdp as entropic_sdp
        import quadround.instances as instances
        import quadround.linalg as linalg
        import quadround.quadmap as quadmap
        import quadround.rounding as rounding
        import quadround.verify as verify

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "quadround" or n.startswith("quadround.")]
        for fn, name, counter in _targets(quadmap, linalg, entropic_sdp,
                                          rounding, verify, bounds, instances):
            wrapper = self.wrap(fn, name, counter)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, attr, wrapper)
        # The CLI dispatches verify suites through this dict.
        for suite, fn in list(verify.SUITES.items()):
            wrapper = self.wrap(fn, "verify.suite", _suite_counts)
            verify.SUITES[suite] = wrapper
            self._patches.append((verify.SUITES, suite, fn))
        self._patch(rounding.GaussianSampler, "normals",
                    self.wrap(rounding.GaussianSampler.normals,
                              "rounding.normals", _normals_counts))

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()


def _normals_counts(args, kwargs, result):
    return {"count": int(result.size)}


def _suite_counts(args, kwargs, result):
    rows, _extras = result
    return {"rows": len(rows), "rows_failed": sum(not r.satisfied for r in rows)}


def _targets(quadmap, linalg, entropic_sdp, rounding, verify, bounds,
             instances):
    """(function, span name, counter) for every traced public function."""

    def batch_counts(args, kwargs, result):
        Qstack, pts = args[0], args[1]
        k, n = Qstack.shape[0], Qstack.shape[1]
        rows = int(pts.shape[0])
        return {"rows": rows, "flop": 2 * k * n * n * rows}

    load = quadmap.load_instance

    def load_counts(args, kwargs, result):
        return {"bytes": os.path.getsize(_arg(load, args, kwargs, "path"))}

    def solve_counts(args, kwargs, result):
        return {"iterations": int(result.iterations), "fw_gap": float(result.fw_gap)}

    rank_m_beta = bounds.rank_m_beta

    def round_counts(args, kwargs, result):
        m = result.m or 1
        bound = (bounds.BETA_RANK_ONE if result.m is None
                 else rank_m_beta(result.m))
        return {"samples_drawn": int(result.samples_drawn),
                "redraws": int(result.samples_drawn) - int(result.draws) * m,
                "accepted": int(result.accepted_count),
                "draws": int(result.draws),
                "kl_over_bound": float(result.kl) / bound}

    def mc_counts_for(fn):
        def counts(args, kwargs, result):
            return {"samples": int(_arg(fn, args, kwargs, "samples"))}
        return counts

    targets = [
        (quadmap.load_instance, "cli.load_instance", load_counts),
        (quadmap.evaluate_batch, "quadmap.evaluate_batch", batch_counts),
        (quadmap.evaluate, "quadmap.evaluate", None),
        (quadmap.precondition, "quadmap.precondition", None),
        (quadmap.hull_point_from_witness, "quadmap.hull_point", None),
        (quadmap.hull_point_from_combination, "quadmap.hull_point", None),
        (quadmap.kl_divergence, "quadmap.kl_divergence", None),
        (quadmap.instance_to_json, "quadmap.instance_to_json", None),
        (linalg.cholesky, "linalg.cholesky", None),
        (linalg.sym_eigen, "linalg.sym_eigen", None),
        (linalg.sqrt_psd, "linalg.sqrt_psd", None),
        (linalg.inverse_spd, "linalg.inverse_spd", None),
        (entropic_sdp.solve, "entropic_sdp.solve", solve_counts),
        (rounding.round_rank_one, "rounding.round_rank_one", round_counts),
        (rounding.round_rank_m, "rounding.round_rank_m", round_counts),
        (rounding.decompose_rank_m, "rounding.decompose", None),
        (verify.sphere_max_oracle, "verify.sphere_oracle", None),
        (verify.check_sandwich, "verify.check_sandwich", None),
        (instances.random_map, "instances.random_map", None),
        (instances.random_witness, "instances.random_witness", None),
    ]
    for fn in (verify.mc_abs_log_moment, verify.mc_tail, verify.mc_rank_m_abs_log):
        targets.append((fn, "verify.mc", mc_counts_for(fn)))
    for attr in ("phi", "laplace_tail_upper", "rank_m_abs_log", "rank_m_beta",
                 "constants", "constants_report", "gauss_log_moments",
                 "ln2_moment_identity", "log_gamma", "phi_expression"):
        targets.append((getattr(bounds, attr), "bounds", None))
    return targets


# ---------------------------------------------------------------------------
# Per-layer metrics from a list of spans
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its child spans cover."""
    covered = _union_length((max(c.start, span.start), min(c.end, span.end))
                            for c in children if c.end > span.start)
    return span.dur - covered


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer times (s) and counts over the given spans."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    ids = {sp.sid: sp for sp in spans}

    def named(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(sp.dur for sp in named(name))

    def total(name, key):
        return sum(sp.counts[key] for sp in named(name))

    rounds = named("rounding.round_rank_one") + named("rounding.round_rank_m")
    solves = named("entropic_sdp.solve")

    def rounds_total(key):
        return sum(sp.counts[key] for sp in rounds)

    def normals_under(sp):
        return [c for c in children.get(sp.sid, []) if c.name == "rounding.normals"]

    draws = rounds_total("draws")
    outer_bounds = [sp for sp in named("bounds")
                    if getattr(ids.get(sp.parent), "name", None) != "bounds"]
    return {
        "cli.load_instance_s": busy("cli.load_instance"),
        "cli.instance_mb": total("cli.load_instance", "bytes") / 1e6,
        "quadmap.evaluate_batch_s": busy("quadmap.evaluate_batch"),
        "quadmap.evaluate_batch_rows": total("quadmap.evaluate_batch", "rows"),
        "quadmap.evaluate_batch_gflop": total("quadmap.evaluate_batch", "flop") / 1e9,
        "quadmap.precondition_s": busy("quadmap.precondition"),
        "rounding.round_rank_one_s": busy("rounding.round_rank_one"),
        "rounding.round_rank_m_s": busy("rounding.round_rank_m"),
        "rounding.kernel_self_s": sum(self_time(sp, children.get(sp.sid, []))
                                      for sp in rounds),
        "rounding.normals_s": busy("rounding.normals"),
        "rounding.normals_count": total("rounding.normals", "count"),
        "rounding.samples_drawn": rounds_total("samples_drawn"),
        "rounding.redraws": rounds_total("redraws"),
        "rounding.decompose_s": busy("rounding.decompose"),
        "rounding.accept_ratio": rounds_total("accepted") / draws if draws else 0.0,
        "rounding.kl_over_bound_max": max((sp.counts["kl_over_bound"] for sp in rounds),
                                          default=0.0),
        "entropic_sdp.solve_s": busy("entropic_sdp.solve"),
        "entropic_sdp.solve_calls": len(solves),
        "entropic_sdp.fw_iterations": sum(sp.counts["iterations"] for sp in solves),
        "entropic_sdp.fw_gap_max": max((sp.counts["fw_gap"] for sp in solves),
                                       default=0.0),
        "linalg.cholesky_calls": len(named("linalg.cholesky")),
        "linalg.sym_eigen_calls": len(named("linalg.sym_eigen")),
        "linalg.sqrt_psd_s": busy("linalg.sqrt_psd"),
        "verify.mc_s": busy("verify.mc"),
        "verify.mc_self_s": sum(self_time(sp, normals_under(sp)) for sp in named("verify.mc")),
        "verify.mc_samples": total("verify.mc", "samples"),
        "verify.sphere_oracle_s": busy("verify.sphere_oracle"),
        "verify.rows": total("verify.suite", "rows"),
        "verify.rows_failed": total("verify.suite", "rows_failed"),
        "bounds.s": sum(sp.dur for sp in outer_bounds),
        "instances.random_map_s": busy("instances.random_map"),
    }


# Unit and direction of every per-layer metric, in report order. Times are
# busy time summed over threads, per traced pass.
LAYER_METRICS = {
    "cli.load_instance_s": ("s", "lower"),
    "cli.instance_mb": ("MB", "lower"),
    "quadmap.evaluate_batch_s": ("s", "lower"),
    "quadmap.evaluate_batch_rows": ("count", "lower"),
    "quadmap.evaluate_batch_gflop": ("GFLOP", "lower"),
    "quadmap.precondition_s": ("s", "lower"),
    "rounding.round_rank_one_s": ("s", "lower"),
    "rounding.round_rank_m_s": ("s", "lower"),
    "rounding.kernel_self_s": ("s", "lower"),
    "rounding.normals_s": ("s", "lower"),
    "rounding.normals_count": ("count", "lower"),
    "rounding.samples_drawn": ("count", "lower"),
    "rounding.redraws": ("count", "lower"),
    "rounding.decompose_s": ("s", "lower"),
    "rounding.accept_ratio": ("frac", "higher"),
    "rounding.kl_over_bound_max": ("ratio", "lower"),
    "entropic_sdp.solve_s": ("s", "lower"),
    "entropic_sdp.solve_calls": ("count", "lower"),
    "entropic_sdp.fw_iterations": ("count", "lower"),
    "entropic_sdp.fw_gap_max": ("nat", "lower"),
    "linalg.cholesky_calls": ("count", "lower"),
    "linalg.sym_eigen_calls": ("count", "lower"),
    "linalg.sqrt_psd_s": ("s", "lower"),
    "verify.mc_s": ("s", "lower"),
    "verify.mc_self_s": ("s", "lower"),
    "verify.mc_samples": ("count", "lower"),
    "verify.sphere_oracle_s": ("s", "lower"),
    "verify.rows": ("count", "higher"),
    "verify.rows_failed": ("count", "lower"),
    "bounds.s": ("s", "lower"),
    "instances.random_map_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans_per_pass": ("count", "lower"),
}

# Per-layer metrics that are exact counts: they must repeat bit for bit
# between two traced passes over the same inputs.
EXACT_COUNTS = (
    "cli.instance_mb", "quadmap.evaluate_batch_rows",
    "quadmap.evaluate_batch_gflop", "rounding.normals_count",
    "rounding.samples_drawn", "rounding.redraws", "rounding.accept_ratio",
    "rounding.kl_over_bound_max", "entropic_sdp.solve_calls",
    "entropic_sdp.fw_iterations", "entropic_sdp.fw_gap_max",
    "linalg.cholesky_calls", "linalg.sym_eigen_calls", "verify.mc_samples",
    "verify.rows", "verify.rows_failed", "trace.spans_per_pass",
)
