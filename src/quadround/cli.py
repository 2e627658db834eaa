"""Command-line front end: instance generation, rounding runs, bound
verification suites, and CSV reports.

Subcommands
    gen     write a random instance file (SPD forms, optional witness)
    round   precondition, solve the relaxation, round, write a result file
    verify  run a named verification suite (constants, lemma21, lemma51,
            sandwich), print one row per checked bound
    report  aggregate result files into a fixed-column CSV

Exit codes: 0 ok, 2 parse/usage error, 3 invalid instance (forms fail the
positive definiteness gate) or another numerical failure, including a
breached internal invariant, 4 rounding budget
exhausted without an accepted draw, 5 a verification suite found a violated
bound. The global flags --threads and --quiet go before or after the
subcommand.

Seeds are mandatory; there is no wall-clock default. Re-running a command
with identical inputs and seed reproduces the output file byte for byte
except for the timings field, which is excluded from the result digest.

Every output file (gen --out, round's result, verify --json, report --out)
is checked before the work: a folder, or a path whose folder is missing or
not writable, exits 2 at once. The file is written whole, through a
temporary file beside it and os.replace, so it holds either its old bytes or
all of the new ones. An existing device or FIFO, such as /dev/stdout, is
written in place.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import stat
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import orjson

from ._util import canonical_json, sha256_hex
from .config import DEFAULTS
from .instances import random_map, random_witness
from .linalg import LinalgError, NotPositiveDefinite
from .quadmap import (InstanceFormatError, PreconditionedMap, QuadraticMap,
                      SpectahedronPoint, instance_to_json, load_instance,
                      precondition)
from .rounding import GaussianSampler, round_rank_m, round_rank_one
from .verify import MIN_SAMPLES, SUITES

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID_INSTANCE = 3
EXIT_BUDGET_EXHAUSTED = 4
EXIT_BOUND_VIOLATED = 5

REPORT_COLUMNS = ("n", "k", "m", "kl", "bound", "margin", "fw_gap",
                  "samples_drawn", "accepted")


def _dump_json(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    json's indent encoder is pure Python and takes over a second on a
    large instance's floats. Here orjson writes each row of exact floats,
    and repr re-spells the few tokens orjson formats otherwise.
    """
    parts = []
    _write_json(doc, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _write_json(obj, nl: str, parts: list) -> None:
    """Append obj's pieces at the indent that ``nl`` (a newline and the
    current indent) sets. Strings never hold a raw newline in JSON, so
    json.dumps's own output moves to that indent by replacing "\\n"."""
    inner = nl + "  "
    if type(obj) is dict and obj and all(type(key) is str for key in obj):
        sep = "{" + inner
        for key in sorted(obj):
            parts.append(sep + json.dumps(key) + ": ")
            _write_json(obj[key], inner, parts)
            sep = "," + inner
        parts.append(nl + "}")
    elif type(obj) is list and obj:
        # orjson and repr give a float the same shortest round-trip digits,
        # but orjson writes values below 1e-4 positionally (0.00001) and
        # exponents without sign or zero padding (-3.2e-6, 1e16). repr
        # re-spells each token with an "e" or "0.0000"; a false hit such as
        # 10.00001 comes back unchanged. orjson writes nan and inf, which
        # json spells NaN and Infinity, as null: such a row goes item by item.
        if set(map(type, obj)) == {float}:
            text = orjson.dumps(obj).decode()[1:-1]
            if "null" not in text:
                if "e" in text or "0.0000" in text:
                    text = ",".join(
                        repr(float(tok)) if "e" in tok or "0.0000" in tok
                        else tok for tok in text.split(","))
                parts.append("[" + inner + text.replace(",", "," + inner)
                             + nl + "]")
                return
        sep = "[" + inner
        for item in obj:
            parts.append(sep)
            _write_json(item, inner, parts)
            sep = "," + inner
        parts.append(nl + "]")
    else:
        parts.append(json.dumps(obj, indent=2, sort_keys=True).replace("\n", nl))


def result_digest(doc: dict) -> str:
    """Content hash of a result document, excluding timings and the digest."""
    trimmed = {k: v for k, v in doc.items() if k not in ("timings", "result_digest")}
    return sha256_hex(canonical_json(trimmed))


def _check_output(path):
    """Refuse, as OSError, an output path that is a folder or whose folder
    is missing or not writable; each command calls this before its work.
    Returns the regular file to replace, symlinks resolved, with its
    permission bits or a new file's, or None for an existing device or FIFO,
    which is written in place."""
    try:
        mode = os.stat(path).st_mode
    except (FileNotFoundError, NotADirectoryError):
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | 0o666 & ~umask
    if stat.S_ISDIR(mode):
        raise IsADirectoryError(f"cannot write {path}: it is a folder")
    if not stat.S_ISREG(mode):
        return None
    target = os.path.realpath(path)
    folder = os.path.dirname(target)
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
        raise OSError(f"cannot write {path}: {folder} is not a writable "
                      "folder")
    return target, stat.S_IMODE(mode)


def _write_output(path, text: str) -> None:
    """Write text to path whole: into a temporary file beside the target,
    then os.replace, so the target keeps its old bytes or holds all of text,
    and no temporary file remains. A symlink keeps its link."""
    found = _check_output(path)
    if found is None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return
    target, mode = found
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=os.path.dirname(target))
    try:
        with open(fd, "w", encoding="utf-8") as f:
            os.fchmod(fd, mode)
            f.write(text)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def cmd_gen(args) -> int:
    out = Path(args.out)
    _check_output(out)
    sampler = GaussianSampler(args.seed)
    qmap = random_map(sampler, args.n, args.k, args.condition_cap)
    witness = None
    if args.witness_random:
        witness = random_witness(sampler.substream(args.k), qmap)
    doc = instance_to_json(qmap, witness=witness)
    _write_output(out, _dump_json(doc))
    if not args.quiet:
        print(f"wrote instance n={args.n} k={args.k} "
              f"witness={'X' if witness is not None else 'none'} -> {out}")
    return EXIT_OK


def prepare_round(qmap: QuadraticMap, X):
    """Precondition a loaded instance and push its witness X (original
    coordinates, sum_i <Q_i, X> = 1) onto the spectahedron.

    Returns (prec, X_hat, setup seconds), the first arguments of run_round.
    Nothing returned refers to the original map, so a caller that keeps no
    name for the map frees it before the solve.
    """
    t0 = time.perf_counter()
    prec = precondition(qmap)
    X_hat = prec.push_witness(X)
    return prec, X_hat, time.perf_counter() - t0


def run_round(prec: PreconditionedMap, X_hat: SpectahedronPoint,
              setup_s: float, seed: int, budget: int, tol: float,
              m: int | None, threads: int = 1):
    """The round pipeline on an instance that prepare_round has made ready.

    Returns (outcome, payload) where payload carries everything the result
    file needs except the instance digest and command line.
    """
    sampler = GaussianSampler(seed)
    t0 = time.perf_counter()
    if m is None:
        outcome = round_rank_one(prec, X_hat, sampler,
                                 budget=budget, tol=tol, threads=threads)
    else:
        outcome = round_rank_m(prec, X_hat, m, sampler,
                               budget=budget, tol=tol, threads=threads)
    t_round = time.perf_counter() - t0

    # Certificate points mapped back to the original coordinates; the map
    # evaluated there reproduces b up to the congruence roundoff.
    original_points = np.array([prec.pull_point(p) for p in outcome.points])
    payload = {
        "seed": seed,
        "n": prec.hat.n,
        "k": prec.hat.k,
        "m": m,
        "a": outcome.a.values.tolist(),
        "b": outcome.b.values.tolist(),
        "kl": outcome.kl,
        "bound": outcome.bound,
        "fw_gap": outcome.sdp.fw_gap,
        "sdp_value": outcome.sdp.value,
        "sdp_iterations": outcome.sdp.iterations,
        "sdp_converged": outcome.sdp.converged,
        "samples_drawn": outcome.samples_drawn,
        "accepted": outcome.accepted,
        "accepted_count": outcome.accepted_count,
        "draws": outcome.draws,
        "points": original_points.tolist(),
        "weights": ([1.0] if m is None
                    else [1.0 / m] * m),
        "timings": {"setup_s": setup_s, "round_s": t_round},
    }
    return outcome, payload


def cmd_round(args) -> int:
    # The result goes to --out, or else beside the instance with the suffix
    # .result.json, which only a regular file gives.
    instance_path = Path(args.instance)
    if not args.out and not stat.S_ISREG(instance_path.stat().st_mode):
        raise OSError(f"{instance_path} is not a regular file; give the "
                      "result path with --out")
    out = Path(args.out or instance_path.with_suffix(".result.json"))
    _check_output(out)
    qmap, X, instance_digest = load_instance(str(instance_path))
    if X is None:
        if not args.witness_random:
            raise InstanceFormatError(
                "instance has no witness; add one to the file or pass "
                "--witness-random")
        # Reads the parent stream only; rounding reads only its substreams.
        X = random_witness(GaussianSampler(args.seed), qmap)
    prepared = prepare_round(qmap, X)
    # The original map is freed before the solve. X goes first: once the
    # map's mmapped stack is freed, glibc raises its trim threshold and
    # keeps the heap top that X leaves.
    del X, qmap
    outcome, payload = run_round(
        *prepared, seed=args.seed, budget=args.budget, tol=args.tol,
        m=args.rank_m, threads=args.threads)

    command = f"round {'--rank-one' if args.rank_m is None else f'--rank-m {args.rank_m}'} " \
              f"--budget {args.budget} --seed {args.seed} --tol {args.tol!r}"
    doc = {"instance_digest": instance_digest, "command": command, **payload}
    doc["result_digest"] = result_digest(doc)

    _write_output(out, _dump_json(doc))

    if not args.quiet:
        kind = "rank-one" if args.rank_m is None else f"rank-m (m={args.rank_m})"
        print(f"{kind} rounding of {instance_path.name} "
              f"(digest {doc['instance_digest'][:12]})")
        print(f"  kl = {outcome.kl:.6g}  vs bound {payload['bound']:.6g} "
              f"+ fw_gap {payload['fw_gap']:.3g}  "
              f"margin = {payload['bound'] - outcome.kl:.6g}")
        print(f"  accepted = {outcome.accepted} "
              f"({outcome.accepted_count}/{outcome.draws} draws), "
              f"samples_drawn = {outcome.samples_drawn}, "
              f"sdp iters = {payload['sdp_iterations']}")
        print(f"  result written: {out}")
    return EXIT_OK if outcome.accepted else EXIT_BUDGET_EXHAUSTED


def cmd_verify(args) -> int:
    if args.json:
        _check_output(args.json)
    suite_fn = SUITES[args.suite]
    if args.suite == "constants":
        rows, extras = suite_fn()
    elif args.suite == "sandwich":
        rows, extras = suite_fn(args.seed)
    else:
        rows, extras = suite_fn(args.seed, samples=args.samples,
                                threads=args.threads)
    passed = all(r.satisfied for r in rows)
    if not args.quiet:
        width = max(len(r.name) for r in rows)
        for r in rows:
            flag = "ok " if r.satisfied else "FAIL"
            print(f"{flag} {r.name:<{width}} value={r.value:.10g} "
                  f"{r.relation} target={r.paper_value:.10g}")
        for key, val in extras.items():
            print(f"--- {key} = {val:.10g}")
        print(f"suite {args.suite}: {'PASS' if passed else 'FAIL'} "
              f"({sum(r.satisfied for r in rows)}/{len(rows)} checks)")
    if args.json:
        doc = {
            "suite": args.suite,
            "seed": args.seed,
            "samples": args.samples,
            "passed": passed,
            "rows": [{"name": r.name, "value": r.value,
                      "paper_value": r.paper_value, "relation": r.relation,
                      "satisfied": r.satisfied} for r in rows],
            "extras": extras,
        }
        _write_output(args.json, _dump_json(doc))
    return EXIT_OK if passed else EXIT_BOUND_VIOLATED


def _report_rows(paths, accepted_only: bool):
    rows = []
    for path in paths:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
            if accepted_only and not doc["accepted"]:
                continue
            kl = float(doc["kl"])
            bound = float(doc["bound"])
            rows.append({
                "n": doc["n"], "k": doc["k"],
                "m": "" if doc.get("m") is None else doc["m"],
                "kl": repr(kl), "bound": repr(bound),
                "margin": repr(bound - kl),
                "fw_gap": repr(float(doc["fw_gap"])),
                "samples_drawn": doc["samples_drawn"],
                "accepted": doc["accepted"],
                "_sort": (doc.get("m") or 0, doc["instance_digest"]),
            })
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise InstanceFormatError(f"malformed result file {path}: {exc}")
    rows.sort(key=lambda r: r["_sort"])
    return rows


def cmd_report(args) -> int:
    if args.out:
        _check_output(args.out)
    rows = _report_rows(args.results, args.accepted_only)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for r in rows:
        writer.writerow([r[c] for c in REPORT_COLUMNS])
    text = buf.getvalue()
    if args.out:
        _write_output(args.out, text)
        if not args.quiet:
            print(f"wrote {len(rows)} rows -> {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _checked(convert, ok, what):
    """argparse type: convert the text and require ok(value), so a bad value
    is a usage error (exit 2) instead of reaching the library."""
    def parse(text):
        try:
            value = convert(text)
            valid = ok(value)
        except (ValueError, OverflowError):
            valid = False
        if not valid:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value
    return parse


def _integral(text):
    """int of a literal with an integral value: 1e5 parses, 2500.5 does not."""
    value = float(text)
    if not value.is_integer():
        raise ValueError(text)
    return int(value)


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_seed_int = _checked(int, lambda v: 0 <= v < 1 << 128,  # a Philox key
                     "an integer in [0, 2**128)")
_positive_float = _checked(float, lambda v: 0.0 < v < math.inf,
                           "a positive finite number")
_condition_cap = _checked(float, lambda v: 1.0 <= v < math.inf,
                          "a finite number >= 1")
_samples = _checked(_integral, lambda v: v >= MIN_SAMPLES,
                    f"an integer >= {MIN_SAMPLES}")


def build_parser() -> argparse.ArgumentParser:
    def global_flags(p, threads, quiet):
        p.add_argument("--threads", type=_positive_int, default=threads,
                       help="worker threads for rounding draws and the "
                            "Monte Carlo suites, at most one per usable CPU; "
                            "the sandwich suite runs serially (results are "
                            "identical for any value)")
        p.add_argument("--quiet", action="store_true", default=quiet,
                       help="suppress human-readable output")

    parser = argparse.ArgumentParser(
        prog="quadround",
        description="Entropic relaxation and randomized rounding for images "
                    "of positive definite quadratic maps.")
    global_flags(parser, 1, False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        # Global flags may also follow the subcommand; there they are set
        # only when given, overriding the value given before it.
        p = sub.add_parser(name, **kwargs)
        global_flags(p, argparse.SUPPRESS, argparse.SUPPRESS)
        return p

    p = add_parser("gen", help="generate a random instance file")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--seed", type=_seed_int, required=True)
    p.add_argument("--condition-cap", type=_condition_cap, default=100.0)
    p.add_argument("--witness-random", action="store_true",
                   help="attach a normalized Wishart witness")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = add_parser("round", help="run the full rounding pipeline")
    p.add_argument("instance")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--rank-one", action="store_true")
    mode.add_argument("--rank-m", type=_positive_int, default=None, metavar="M")
    p.add_argument("--budget", type=_positive_int, default=None,
                   help="draws (rank-one) or batches (rank-m); defaults "
                        f"{DEFAULTS.rank_one_budget} / {DEFAULTS.rank_m_budget}")
    p.add_argument("--seed", type=_seed_int, required=True)
    p.add_argument("--tol", type=_positive_float, default=DEFAULTS.fw_gap)
    p.add_argument("--witness-random", action="store_true",
                   help="draw a witness when the instance has none")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_round)

    p = add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   choices=sorted(SUITES.keys()))
    p.add_argument("--seed", type=_seed_int, required=True)
    p.add_argument("--samples", type=_samples,
                   default=10 ** 6, help="Monte Carlo samples per estimate")
    p.add_argument("--json", default=None, help="also write rows as JSON")
    p.set_defaults(fn=cmd_verify)

    p = add_parser("report", help="aggregate result files into CSV")
    p.add_argument("results", nargs="+")
    p.add_argument("--out", default=None)
    p.add_argument("--accepted-only", action="store_true",
                   help="drop results whose budget was exhausted")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep that contract.
        return int(exc.code or 0)
    if args.command == "round" and args.budget is None:
        args.budget = (DEFAULTS.rank_one_budget if args.rank_m is None
                       else DEFAULTS.rank_m_budget)
    try:
        return args.fn(args)
    except (InstanceFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotPositiveDefinite as exc:
        print(f"error: invalid instance: {exc}", file=sys.stderr)
        return EXIT_INVALID_INSTANCE
    except (LinalgError, AssertionError, ArithmeticError) as exc:
        # a factorization missing its tolerance, or a breached internal
        # invariant (nonpositive <Q_i, X>, a decreasing objective, a
        # negative KL, a degenerate draw)
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_INVALID_INSTANCE
    except MemoryError as exc:
        # an allocation the host cannot provide, say for a huge --rank-m
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INVALID_INSTANCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INSTANCE


if __name__ == "__main__":
    sys.exit(main())
