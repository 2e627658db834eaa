"""The benchmark tracer (perfbench/tracing.py) wraps library functions by
name and reads some of their argument and result fields by name. Deleting
or renaming one of those breaks the benchmark; these tests make it fail
tier-1 as well."""

import dataclasses
import inspect
import sys
from pathlib import Path

import quadround
from quadround import (RoundingOutcome, SdpSolution, load_instance,
                       mc_abs_log_moment, mc_rank_m_abs_log, mc_tail)

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import Recorder  # noqa: E402


def _namespaces():
    """Every quadround module's globals, the suite table and the sampler's
    normals: all that install patches."""
    spaces = {name: dict(vars(mod)) for name, mod in sys.modules.items()
              if name == "quadround" or name.startswith("quadround.")}
    spaces["SUITES"] = dict(quadround.verify.SUITES)
    spaces["GaussianSampler"] = dict(vars(quadround.GaussianSampler))
    return spaces


def test_tracer_installs_and_uninstalls_cleanly():
    before = _namespaces()
    rec = Recorder()
    try:
        rec.install()
        assert rec.active
        assert quadround.rounding.round_rank_one is not before[
            "quadround.rounding"]["round_rank_one"]
    finally:
        rec.uninstall()
    after = _namespaces()
    for name, attrs in before.items():
        assert all(after[name][k] is v for k, v in attrs.items()), name


def test_tracer_reads_existing_fields():
    assert "path" in inspect.signature(load_instance).parameters
    for fn in (mc_abs_log_moment, mc_tail, mc_rank_m_abs_log):
        assert "samples" in inspect.signature(fn).parameters, fn.__name__
    outcome = {f.name for f in dataclasses.fields(RoundingOutcome)}
    assert {"m", "samples_drawn", "draws", "accepted_count", "kl"} <= outcome
    assert {"iterations", "fw_gap"} <= {
        f.name for f in dataclasses.fields(SdpSolution)}
