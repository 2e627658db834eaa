#!/usr/bin/env python3
"""Self-test of the benchmark harness.

Run from the repository root:

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

Checks that
  * span recording loses nothing when many threads record at once;
  * two traced runs of each workload on the same seed report identical
    exact counts (evaluate_batch rows and GFLOP, normals drawn, solve calls,
    Frank-Wolfe iterations, samples drawn, redraws, Cholesky and eigen
    calls, ...), and that both runs are correct;
  * the benchmark fails, with a non-zero exit code and no result line, in a
    directory that holds the benchmark but not the program.
"""

import argparse
import json
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORK, WORKLOADS  # noqa: E402
from tracing import EXACT_COUNTS, Recorder  # noqa: E402


def recorder_stress(threads: int = 8, calls: int = 2000) -> list:
    """More recording threads than cores, with a tiny switch interval: no
    span may be lost or share an id, and every pool-thread span takes the
    driving thread's open span as parent."""
    rec = Recorder()
    leaf = rec.wrap(lambda i: i, "leaf")

    def work(_):
        for i in range(calls):
            leaf(i)

    def root():
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for fut in [pool.submit(work, t) for t in range(threads)]:
                fut.result(timeout=60)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rec.wrap(root, "root")()
    finally:
        sys.setswitchinterval(old)
    (top,) = [sp for sp in rec.spans if sp.name == "root"]
    leaves = [sp for sp in rec.spans if sp.name == "leaf"]
    problems = []
    if len(leaves) != threads * calls:
        problems.append(f"recorder kept {len(leaves)} of {threads * calls} spans")
    if len({sp.sid for sp in rec.spans}) != len(rec.spans):
        problems.append("recorder gave two spans one id")
    if any(sp.parent != top.sid for sp in leaves):
        problems.append("a pool-thread span lost its parent")
    return problems


def bench(cwd: Path, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False)


def result(proc) -> dict:
    if proc.returncode != 0:
        raise SystemExit(f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    problems = recorder_stress()
    print("recorder stress: " + ("ok" if not problems else "FAILED"))
    for workload in args.workload:
        first = result(bench(ROOT, workload, args.seed, 1))
        second = result(bench(ROOT, workload, args.seed, 1))
        for run_no, doc in enumerate((first, second), 1):
            if not doc["correct"]:
                problems.append(f"{workload}: traced run {run_no} is not correct")
        for name in EXACT_COUNTS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} {a!r} then {b!r}")
        print(f"{workload}: {len(EXACT_COUNTS)} exact counts compared")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(bare, args.workload[0], args.seed, 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("benchmark without the program did not fail cleanly")
    print(f"without the program: exit code {proc.returncode}")

    for line in problems:
        print(f"FAIL {line}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
