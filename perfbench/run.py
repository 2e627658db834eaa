#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``quadround`` command.

Run from the repository root:

    python3 perfbench/run.py --workload round-large --seed 1 --seconds 30 --trace 0

One client drives ``quadround.cli.main([...])`` inside this process in a
closed loop: the workload's list of commands (a pass) runs again and again,
whole passes only, at least two, until ``--seconds`` have gone by. Every
command's output is checked. With ``--trace 1`` passes alternate untraced
and traced; the traced ones report per-layer metrics (see tracing.py) and
the difference between the two is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it give
the environment, each failed check by name, and the per-command figures.
"""

import os

# Result bytes depend on the BLAS thread count, which the --threads
# determinism contract does not cover, so pin it before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))
SETUP_REPS = 5
WORKLOADS = ("round-large", "round-small", "verify-suites")
SMALL_GRID = [(n, k, cap) for n in (4, 8, 12, 16, 24) for k in (3, 5, 10)
              for cap in ("1e2", "1e4", "1e6")]


@dataclass
class Command:
    """One CLI invocation of a pass; ``twin`` names the --threads 1 command
    whose output it must reproduce."""

    label: str
    argv: list
    out: Path
    threads: int = 1
    twin: str | None = None

    @property
    def full_argv(self) -> list:
        flag = "--out" if self.argv[0] == "round" else "--json"
        return ["--quiet", "--threads", str(self.threads), *self.argv,
                flag, str(self.out)]


def workload_plan(name: str, seed: int, inputs: Path, outputs: Path):
    """The instance files to generate and the commands of one pass. Each
    pass ends with one command re-run at --threads nproc (its ``twin``)."""
    if name == "round-large":
        inst = inputs / "large.json"
        gens = [["gen", "--n", "200", "--k", "20", "--seed", str(seed),
                 "--condition-cap", "100", "--witness-random", "--out", str(inst)]]
        r1 = ["round", str(inst), "--rank-one", "--budget", "1000", "--seed", str(seed)]
        rm = ["round", str(inst), "--rank-m", "16", "--budget", "200", "--seed", str(seed)]
        cmds = [Command("rank-one", r1, outputs / "r1.json"),
                Command("rank-m", rm, outputs / "rm.json"),
                Command("rank-one-mt", r1, outputs / "r1_mt.json", NPROC, "rank-one")]
        return gens, cmds
    if name == "round-small":
        gens, cmds = [], []
        for i, (n, k, cap) in enumerate(SMALL_GRID):
            s = str(1000 * seed + i)
            inst = inputs / f"small{i:02d}.json"
            gens.append(["gen", "--n", str(n), "--k", str(k), "--seed", s,
                         "--condition-cap", cap, "--witness-random", "--out", str(inst)])
            cmds.append(Command(f"r1-{i:02d}", ["round", str(inst), "--rank-one",
                                                "--budget", "256", "--seed", s],
                                outputs / f"r1_{i:02d}.json"))
            cmds.append(Command(f"rm-{i:02d}", ["round", str(inst), "--rank-m", "4",
                                                "--budget", "64", "--seed", s],
                                outputs / f"rm_{i:02d}.json"))
        # The largest, worst-conditioned instance is re-run at --threads nproc.
        last = cmds[-2]
        cmds.append(Command(last.label + "-mt", last.argv, outputs / "r1_mt.json",
                            NPROC, last.label))
        return gens, cmds
    if name == "verify-suites":
        s = str(seed)
        suites = [("constants", []), ("lemma21", ["--samples", "1e5"]),
                  ("lemma51", ["--samples", "1e4"]), ("sandwich", [])]
        cmds = [Command(suite, ["verify", "--suite", suite, "--seed", s, *extra],
                        outputs / f"{suite}.json") for suite, extra in suites]
        cmds.append(Command("lemma21-mt", cmds[1].argv, outputs / "lemma21_mt.json",
                            NPROC, "lemma21"))
        return [], cmds
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Set-up: import quadround.cli and write the instance files
# ---------------------------------------------------------------------------

def setup_once(name: str, seed: int, inputs: Path, recorder=None) -> dict:
    """Import quadround.cli and generate the workload's files; times both."""
    t0 = time.perf_counter()
    from quadround.cli import main
    import_s = time.perf_counter() - t0
    inputs.mkdir(parents=True, exist_ok=True)
    gens, _ = workload_plan(name, seed, inputs, inputs)
    if recorder is not None:
        recorder.install()
    try:
        t0 = time.perf_counter()
        codes = [main(["--quiet", *argv]) for argv in gens]
        gen_s = time.perf_counter() - t0
    finally:
        if recorder is not None:
            recorder.uninstall()
    return {"import_s": import_s, "gen_s": gen_s, "codes": codes}


def save_forms(name: str, seed: int, inputs: Path) -> None:
    """Store each instance's forms as .npy for the Checker, so that the
    benchmark process never parses an instance file: its peak memory is
    then set by the commands."""
    import numpy as np
    for argv in workload_plan(name, seed, inputs, inputs)[0]:
        inst = Path(argv[argv.index("--out") + 1])
        with inst.open(encoding="utf-8") as fh:
            np.save(inst.with_suffix(".npy"), np.asarray(json.load(fh)["Q"], dtype=float))


def setup_in_fresh_interpreter(name: str, seed: int, inputs: Path,
                               forms: bool = False) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-rep",
             "--workload", name, "--seed", str(seed), "--dir", str(inputs),
             *(["--forms"] if forms else [])],
            capture_output=True, text=True, timeout=120, check=False)
    except subprocess.TimeoutExpired:
        return {"error": "set-up took over 120 s", "codes": []}
    if proc.returncode != 0:
        return {"error": proc.stderr.strip()[-500:], "codes": []}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """Peak resident memory of this process (not of the set-up ones)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def file_digests(inputs: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(inputs.glob("*.json"))}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

class Checker:
    """Re-derives each command's result from its files; returns failures."""

    def __init__(self):
        self._forms = {}
        self.docs = {}

    def forms(self, path: str):
        import numpy as np
        if path not in self._forms:
            self._forms[path] = np.load(Path(path).with_suffix(".npy"))
        return self._forms[path]

    def check(self, cmd: Command, rc: int) -> list:
        if not cmd.out.is_file():
            return [f"exit code {rc}, no output file"]
        doc = json.loads(cmd.out.read_text(encoding="utf-8"))
        fails = [] if rc == 0 else [f"exit code {rc}"]
        fails += (self._check_round(cmd, doc) if cmd.argv[0] == "round"
                  else self._check_verify(doc))
        if cmd.twin is not None:
            ref = self.docs.get(cmd.twin)
            key = "result_digest" if cmd.argv[0] == "round" else "rows"
            if ref is None or ref.get(key) != doc.get(key):
                fails.append(f"{key} differs from {cmd.twin} at --threads 1")
        self.docs[cmd.label] = doc
        return fails

    def _check_round(self, cmd: Command, doc: dict) -> list:
        import numpy as np
        Q = self.forms(cmd.argv[1])
        a = np.asarray(doc["a"])
        b = np.asarray(doc["b"])
        pts = np.asarray(doc["points"])
        w = np.asarray(doc["weights"])
        fails = []
        b_re = np.einsum("t,kt->k", w,
                         np.einsum("kij,ti,tj->kt", Q, pts, pts, optimize=True))
        err = float(np.abs(b_re - b).max())
        if not err <= 1e-9:
            fails.append(f"b from the certificate points is off by {err:.3e}")
        kl_re = float(np.sum(a * np.log(a / (b_re / b_re.sum()))))
        if not abs(kl_re - doc["kl"]) <= 1e-9 + 1e-6 * abs(doc["kl"]):
            fails.append(f"kl {doc['kl']!r} but {kl_re!r} from a and b")
        m = doc["m"]
        bound = 4.8 if m is None else 15.0 / math.sqrt(m)
        if doc["bound"] != bound:
            fails.append(f"bound {doc['bound']!r}, expected {bound!r}")
        if not doc["kl"] <= bound + doc["fw_gap"]:
            fails.append(f"kl {doc['kl']!r} exceeds bound + fw_gap")
        if doc["accepted"] is not True:
            fails.append("no draw accepted")
        return fails

    @staticmethod
    def _check_verify(doc: dict) -> list:
        fails = [f"row {r['name']} not satisfied (value {r['value']!r})"
                 for r in doc["rows"] if not r["satisfied"]]
        if not doc["passed"] and not fails:
            fails.append("suite did not pass")
        return fails


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def environment() -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    blas_threads = None
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "libscipy_openblas*.so")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            blas_threads = fn()
    return {"nproc": NPROC, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
            "blas_threads": blas_threads,
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


# ---------------------------------------------------------------------------
# The measured loop
# ---------------------------------------------------------------------------

def run(args) -> dict:
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    inputs, outputs = WORK / "inputs", WORK / "outputs"
    outputs.mkdir(parents=True)

    recorder = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracing import Recorder
        recorder = Recorder()

    attempted = failed = 0

    def fail(label, msgs):
        for msg in msgs:
            print(f"FAIL {label}: {msg}")

    # Set-up, SETUP_REPS times, each in a fresh interpreter. The first one's
    # files are used; the others' must be byte-identical to them.
    reps = [setup_in_fresh_interpreter(args.workload, args.seed, inputs, forms=True)]
    expected = file_digests(inputs)
    for r in range(1, SETUP_REPS):
        rep_dir = WORK / f"setup{r}"
        reps.append(setup_in_fresh_interpreter(args.workload, args.seed, rep_dir))
        if "error" not in reps[-1] and file_digests(rep_dir) != expected:
            reps[-1]["error"] = "instance files differ from the first set-up"
        shutil.rmtree(rep_dir, ignore_errors=True)
    for r, rep in enumerate(reps):
        attempted += 1
        msgs = ([rep["error"]] if "error" in rep else []) + [
            f"gen exit code {c}" for c in rep["codes"] if c != 0]
        if msgs:
            failed += 1
            fail(f"setup{r}", msgs)
    setup_s = statistics.median(rep["import_s"] + rep["gen_s"]
                                for rep in reps if "error" not in rep)
    if recorder is not None:
        # The set-ups ran in other processes; generate once more here,
        # untimed, for the set-up layers (instances.random_map_s).
        setup_once(args.workload, args.seed, WORK / "traced_setup", recorder)
        shutil.rmtree(WORK / "traced_setup", ignore_errors=True)

    from quadround.cli import main
    _, cmds = workload_plan(args.workload, args.seed, inputs, outputs)
    checker = Checker()
    rss_before_loop = peak_rss_mb()

    def run_command(cmd: Command, tag: str) -> float:
        nonlocal attempted, failed
        cmd.out.unlink(missing_ok=True)
        if recorder is not None:
            recorder.cmd = f"{tag}:{cmd.label}"
        call = main
        if recorder is not None and recorder.active:
            call = recorder.wrap(main, "cli.main")
        t0 = time.perf_counter()
        try:
            rc = call(cmd.full_argv)
        except Exception:  # a crash is a failed command; keep measuring
            rc = traceback.format_exc().strip().splitlines()[-1]
        elapsed = time.perf_counter() - t0
        msgs = checker.check(cmd, rc)
        attempted += 1
        if msgs:
            failed += 1
            fail(f"{tag} {cmd.label}", msgs)
        return elapsed

    passes = []   # (traced, {label: seconds})
    t_start = time.perf_counter()
    while True:
        traced = recorder is not None and len(passes) % 2 == 1
        if traced:
            recorder.install()
        try:
            times = {cmd.label: run_command(cmd, str(len(passes))) for cmd in cmds}
        finally:
            if traced:
                recorder.uninstall()
        passes.append((traced, times))
        if len(passes) == 1:
            # Every command has run once. Later passes add a few MB of heap
            # growth that depends on how many passes fit, so stop here.
            rss_first_pass = peak_rss_mb()
        if len(passes) >= 2 and time.perf_counter() - t_start >= args.seconds:
            break
    with (WORK / "times.json").open("w", encoding="utf-8") as fh:
        json.dump([{"traced": traced, "seconds": times} for traced, times in passes], fh)

    plain = [times for traced, times in passes if not traced]
    med = {c.label: statistics.median(t[c.label] for t in plain) for c in cmds}
    # Percentiles over the commands of a pass, each at its median over the
    # untraced passes, so they do not depend on how many passes fitted.
    cmd_ms = [seconds * 1e3 for seconds in med.values()]
    p50, p90 = (statistics.quantiles(cmd_ms, n=10, method="inclusive")[i] for i in (4, 8))
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_ms": (sum(cmd_ms), "ms"),
        "cmd_ms_p50": (p50, "ms"),
        "cmd_ms_p90": (p90, "ms"),
        "peak_rss_mb": (rss_first_pass, "MB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
    }

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(cmds)} commands, {len(plain)} of them untraced")
    print("seconds per pass: " + " ".join(f"{sum(t.values()):.3f}" for _, t in passes))
    print("setup seconds (import + gen): " + " ".join(
        f"{rep['import_s']:.3f}+{rep['gen_s']:.3f}" for rep in reps if "error" not in rep))
    print(f"peak rss {rss_before_loop:.1f} MB before the loop, {rss_first_pass:.1f} MB "
          f"after the first pass, {peak_rss_mb():.1f} MB at the end")
    for line in named_figures(args.workload, cmds, med, checker.docs, p50, p90):
        print(line)
    print(f"failed_frac = {failed / attempted!r} ({failed}/{attempted})")

    if recorder is not None:
        metrics, mismatch = trace_metrics(recorder, passes)
        spans_path = WORK / "spans.jsonl"
        with spans_path.open("w", encoding="utf-8") as fh:
            for sp in recorder.spans:
                fh.write(json.dumps(sp.__dict__) + "\n")
        print(f"{len(recorder.spans)} spans written to {spans_path.relative_to(ROOT)}")
        fail("trace", [f"count {name} differs between traced passes"
                       for name in mismatch])
        failed += bool(mismatch)
        attempted += 1

    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def named_figures(workload, cmds, med, docs, p50, p90):
    """Per-command figures under the names the workloads were specified with."""
    if workload == "round-small":
        return [f"round_ms_p50 = {p50!r} ms", f"round_ms_p90 = {p90!r} ms"]
    lines = [f"cmd {c.label} median_s={med[c.label]!r} threads={c.threads}"
             for c in cmds]
    if workload == "round-large":
        names = {"rank-one": "r1_draws_per_s", "rank-m": "rm_batches_per_s",
                 "rank-one-mt": "r1_draws_per_s_mt"}
        return lines + [f"{names[label]} = {docs[label]['draws'] / med[label]!r} 1/s"
                        for label in names if label in docs]
    return lines + [f"verify_{s}_s = {med[s]!r} s" for s in ("lemma21", "lemma51", "sandwich")]


def trace_metrics(recorder, passes) -> tuple:
    """Per-layer metrics of the traced passes (median over them), the
    exact counts that differ between traced passes, and the overhead."""
    from tracing import EXACT_COUNTS, LAYER_METRICS, layer_metrics

    per_pass = []
    for p, (traced, _times) in enumerate(passes):
        if traced:
            spans = [sp for sp in recorder.spans if sp.cmd.startswith(f"{p}:")]
            per_pass.append({**layer_metrics(spans), "trace.spans_per_pass": len(spans)})
    mismatch = [k for k in EXACT_COUNTS if len({m[k] for m in per_pass}) > 1]
    # Exact counts agree between traced passes (or are reported as failed).
    out = {k: v if k in EXACT_COUNTS else statistics.median(m[k] for m in per_pass)
           for k, v in per_pass[0].items()}
    setup = layer_metrics([sp for sp in recorder.spans if sp.cmd == "setup"])
    out["instances.random_map_s"] += setup["instances.random_map_s"]
    traced_s = [sum(t.values()) for traced, t in passes if traced]
    plain_s = [sum(t.values()) for traced, t in passes if not traced]
    out["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
    metrics = {k: (out[k], unit) for k, (unit, _better) in LAYER_METRICS.items()}
    return metrics, mismatch


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-rep", action="store_true",
                        help="internal: one timed set-up in this interpreter")
    parser.add_argument("--dir", type=Path, help="internal: set-up output dir")
    parser.add_argument("--forms", action="store_true",
                        help="internal: also store the forms for the checks")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "quadround" / "cli.py").is_file():
        print(f"error: {SRC / 'quadround'} not found; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    if args.setup_rep:
        sys.path.insert(0, str(SRC))
        rep = setup_once(args.workload, args.seed, args.dir)
        if args.forms:
            save_forms(args.workload, args.seed, args.dir)
        print(json.dumps(rep))
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
