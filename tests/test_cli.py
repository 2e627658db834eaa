import gc
import hashlib
import json
import math
import os
import stat
import subprocess
import sys
import threading
import warnings
import weakref

import numpy as np
import pytest
# imported at collection, before any test loads a scipy core: in-process runs
# use scipy.integrate's own QUADPACK core, fresh processes the one by file
import scipy.integrate  # noqa: F401

from quadround import (GaussianSampler, QuadraticMap, SimplexVector,
                       instance_to_json, kl_divergence, load_instance,
                       precondition)
from quadround.bounds import BoundReport
from quadround.cli import main, result_digest
from quadround.instances import random_map, random_witness
from quadround.linalg import LinalgError, NotPositiveDefinite
import quadround.bounds as bounds_mod
import quadround.cli as cli_mod
import quadround.entropic_sdp as sdp_mod
import quadround.rounding as rounding_mod
import quadround.verify as verify_mod


def run_cli(*argv):
    return main(list(argv))


def test_gen_roundtrip_and_determinism(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli("--quiet", "gen", "--n", "4", "--k", "3", "--seed", "7",
                   "--out", str(out1)) == 0
    assert run_cli("--quiet", "gen", "--n", "4", "--k", "3", "--seed", "7",
                   "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    qmap, wit, _ = load_instance(str(out1))    # PD-validated on reload
    assert qmap.n == 4 and qmap.k == 3
    assert wit is None
    # different seed, different instance
    out3 = tmp_path / "c.json"
    run_cli("--quiet", "gen", "--n", "4", "--k", "3", "--seed", "8",
            "--out", str(out3))
    assert out1.read_bytes() != out3.read_bytes()


def test_gen_condition_cap_one(tmp_path):
    out = tmp_path / "iso.json"
    run_cli("--quiet", "gen", "--n", "3", "--k", "2", "--seed", "5",
            "--condition-cap", "1", "--out", str(out))
    qmap, _, _ = load_instance(str(out))
    for i in range(qmap.k):
        Q = qmap.Q[i]
        assert np.allclose(Q, Q[0, 0] * np.eye(3), atol=1e-12)


def test_gen_with_witness(tmp_path):
    out = tmp_path / "w.json"
    run_cli("--quiet", "gen", "--n", "3", "--k", "2", "--seed", "9",
            "--witness-random", "--out", str(out))
    qmap, X, _ = load_instance(str(out))
    assert X is not None
    total = float(np.einsum("kij,ij->", qmap.Q, X))
    assert total == pytest.approx(1.0, abs=1e-9)


def _indent_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("doc", [
    pytest.param({}, id="empty-dict"),
    pytest.param([], id="empty-list"),
    pytest.param([[]], id="nested-empty"),
    pytest.param({"a": [], "b": {}, "c": [{}]}, id="empty-members"),
    pytest.param([1.0, NAN, 2.0], id="nan-row"),
    pytest.param([INF, -INF], id="inf-row"),
    pytest.param({"x": [[0.5, NAN], [INF, 1.0]], "y": NAN}, id="non-finite-nested"),
    pytest.param([-0.0, 5e-324, 1e16, 1e-05, 1.7976931348623157e308,
                  0.1, -3.2e-06, 9.622720028167625e-05], id="float-spellings"),
    pytest.param([1, True, None, 2.5, False, -0.0], id="mixed-scalars"),
    pytest.param([np.float64(1.5), 2.0, np.float64(1e-05)], id="np-float-in-list"),
    pytest.param({"v": np.float64(0.1), "w": np.float64(-0.0)}, id="np-float-values"),
    pytest.param(np.float64(3.25), id="np-float-top"),
    pytest.param({"t": (1.0, 2.0), "u": ((1.0,), [2.0, (3, None)])}, id="tuples"),
    pytest.param({1: 2.0}, id="int-key"),
    pytest.param({2: [3.0], 1: {"a": 1}, 10: None}, id="int-keys-nested"),
    pytest.param({"k": {True: 1, 0.25: None, 1.5: [0.5]}}, id="scalar-keys"),
    pytest.param({"é": "ü \"quoted\" back\\slash\nnew line",
                  " ": ["\t", "日本"]}, id="strings"),
    pytest.param({"outer": {"inner": {"rows": [[1.0, 2.0], [3.0], [NAN]]}},
                  "n": 3, "ok": True, "none": None}, id="deep"),
])
def test_dump_json_matches_indent_encoder(doc):
    assert cli_mod._dump_json(doc) == _indent_json(doc)


def _fuzz_doc(kind, seed):
    rng = np.random.default_rng(seed)

    def bits(size):
        return np.frombuffer(rng.bytes(8 * size), dtype=np.uint64)

    if kind == "bit-patterns":
        x = bits(20_000).view(np.float64)
        x = x[np.isfinite(x)]
    elif kind == "subnormals":
        x = (bits(10_000) & np.uint64((1 << 63) | ((1 << 52) - 1))).view(np.float64)
    elif kind == "magnitudes":
        x = rng.choice([-1.0, 1.0], 10_000) * 10.0 ** rng.uniform(-9, 21, 10_000)
    else:  # boundaries
        edges = [9.999999999999999e-05, 1e-4, 9999999999999998.0, 1e16, -0.0,
                 0.0, 5e-324, 1.7976931348623157e308, 1e-5, 10.00001]
        x = rng.choice(edges + [-v for v in edges], 10_000)
    rows = [x[i:i + 200].tolist() for i in range(0, len(x) - 199, 200)]
    return {"rows": rows,
            "cube": x[:len(x) // 100 * 100].reshape(-1, 10, 10).tolist()}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind", ["bit-patterns", "subnormals", "magnitudes",
                                  "boundaries"])
def test_dump_json_spells_floats_as_json(kind, seed):
    doc = _fuzz_doc(kind, seed)
    assert cli_mod._dump_json(doc) == _indent_json(doc)
    # Rows that orjson cannot write as json does go item by item.
    rng = np.random.default_rng(seed)
    for row in doc["rows"][:20]:
        row[rng.integers(len(row))] = [NAN, INF, -INF, 3, True, None][
            rng.integers(6)]
    assert cli_mod._dump_json(doc) == _indent_json(doc)


@pytest.mark.parametrize("doc", [np.int64(3), [1.0, np.int64(3)],
                                 {"a": {1, 2}}, {1, 2}],
                         ids=["np-int", "np-int-in-list", "nested-set", "set"])
def test_dump_json_raises_like_json(doc):
    with pytest.raises(Exception) as expected:
        _indent_json(doc)
    with pytest.raises(expected.type):
        cli_mod._dump_json(doc)


def test_cli_json_files_match_indent_encoder(tmp_path):
    inst = tmp_path / "inst.json"
    assert run_cli("--quiet", "gen", "--n", "64", "--k", "10", "--seed", "3",
                   "--condition-cap", "1e4", "--witness-random",
                   "--out", str(inst)) == 0
    sampler = GaussianSampler(3)
    qmap = random_map(sampler, 64, 10, 1e4)
    witness = random_witness(sampler.substream(10), qmap)
    assert inst.read_text() == _indent_json(instance_to_json(qmap, witness))

    files = [inst, tmp_path / "r1.json", tmp_path / "rm.json",
             tmp_path / "constants.json", tmp_path / "lemma51.json"]
    assert run_cli("--quiet", "round", str(inst), "--rank-one", "--budget",
                   "200", "--seed", "1", "--out", str(files[1])) == 0
    assert run_cli("--quiet", "round", str(inst), "--rank-m", "4", "--budget",
                   "50", "--seed", "1", "--out", str(files[2])) == 0
    assert run_cli("--quiet", "verify", "--suite", "constants", "--seed", "1",
                   "--json", str(files[3])) == 0
    assert run_cli("--quiet", "verify", "--suite", "lemma51", "--seed", "1",
                   "--samples", "1e4", "--json", str(files[4])) == 0
    for path in files:
        text = path.read_text()
        assert text == _indent_json(json.loads(text)), path.name


def test_round_symmetric_instance_zero_kl(tmp_path):
    # forms I/k are already normalized; any rounded point reproduces a
    inst = tmp_path / "sym.json"
    doc = {"n": 2, "k": 2,
           "Q": [np.diag([0.5, 0.5]).tolist(), np.diag([0.5, 0.5]).tolist()],
           "witness": {"X": (np.eye(2) / 2).tolist()}}
    inst.write_text(json.dumps(doc))
    res = tmp_path / "sym.result.json"
    code = run_cli("--quiet", "round", str(inst), "--rank-one",
                   "--budget", "50", "--seed", "3", "--out", str(res))
    assert code == 0
    out = json.loads(res.read_text())
    assert out["kl"] == 0.0
    assert out["accepted"] is True
    assert out["bound"] == 4.8


def test_round_rank_m_and_report(tmp_path):
    inst = tmp_path / "inst.json"
    run_cli("--quiet", "gen", "--n", "4", "--k", "3", "--seed", "11",
            "--witness-random", "--out", str(inst))
    res1 = tmp_path / "r1.json"
    res16 = tmp_path / "r16.json"
    assert run_cli("--quiet", "round", str(inst), "--rank-one",
                   "--budget", "200", "--seed", "1", "--out", str(res1)) == 0
    assert run_cli("--quiet", "round", str(inst), "--rank-m", "16",
                   "--budget", "50", "--seed", "2", "--out", str(res16)) == 0
    doc16 = json.loads(res16.read_text())
    assert doc16["kl"] < 15.0 / 4.0
    assert doc16["m"] == 16
    assert len(doc16["points"]) == 16

    # certificate points evaluate back to b on the original map
    qmap, _, _ = load_instance(str(inst))
    pts = np.asarray(doc16["points"])
    vals = np.einsum("kij,mi,mj->k", qmap.Q, pts, pts) / 16
    assert np.allclose(vals, doc16["b"], atol=1e-8)

    csv_out = tmp_path / "report.csv"
    assert run_cli("--quiet", "report", str(res16), str(res1),
                   "--out", str(csv_out)) == 0
    lines = csv_out.read_text().strip().splitlines()
    assert lines[0] == "n,k,m,kl,bound,margin,fw_gap,samples_drawn,accepted"
    assert len(lines) == 3
    # rank-one row (empty m) sorts before the m = 16 row
    assert lines[1].split(",")[2] == ""
    assert lines[2].split(",")[2] == "16"
    margin = float(lines[1].split(",")[5])
    assert margin > 0


@pytest.mark.parametrize("mode", [["--rank-one"], ["--rank-m", "4"]])
def test_round_points_witness(tmp_path, mode):
    # A witness given as a weighted set of points x_t fixes the hull point
    # a = sum_t w_t q(x_t) / sum_t w_t sum_i q_i(x_t) on the original map,
    # which does not change when the points are rescaled. The last two
    # inputs have points whose squares overflow, of weight 0 and positive.
    Q3 = [[[2.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 2.0]],
          [[1.0, 0.5], [0.5, 1.0]]]
    for Q, pts, w in ((Q3, [[1.0, 0.0], [0.3, -2.0]], [0.25, 0.75]),
                      ([[[1.0]]], [[1e200], [1.0]], [0.0, 1.0]),
                      (Q3, [[1e200, 1e199], [0.3, -2.0]], [0.25, 0.75])):
        inst = tmp_path / "points.json"
        inst.write_text(json.dumps({"n": len(Q[0]), "k": len(Q), "Q": Q,
                                    "witness": {"points": pts, "weights": w}}))
        res = tmp_path / "res.json"
        assert run_cli("--quiet", "round", str(inst), *mode, "--budget", "50",
                       "--seed", "3", "--out", str(res)) == 0, pts
        doc = json.loads(res.read_text())
        pts, w = np.array(pts), np.array(w)
        pts, w = pts[w > 0] / np.abs(pts[w > 0]).max(), w[w > 0]
        vals = np.einsum("t,kij,ti,tj->k", w, np.array(Q), pts, pts)
        assert np.allclose(doc["a"], vals / vals.sum(), rtol=0, atol=1e-12)
        # the certificate points reproduce b on the original map
        cert = np.asarray(doc["points"])
        b = np.einsum("t,kij,ti,tj->k", doc["weights"], np.array(Q), cert,
                      cert)
        assert np.allclose(b, doc["b"], rtol=0, atol=1e-9)
        assert doc["kl"] == pytest.approx(
            kl_divergence(SimplexVector(doc["a"]), SimplexVector(doc["b"])),
            rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("mode", [["--rank-one"], ["--rank-m", "4"]])
def test_round_huge_forms_without_warning(tmp_path, capsys, mode):
    # forms 1e200 I: the Frobenius norms of the contract checks would
    # overflow if squared unscaled; the map rounds and nothing is printed
    inst = tmp_path / "big.json"
    inst.write_text(json.dumps({"n": 2, "k": 2,
                                "Q": [(1e200 * np.eye(2)).tolist()] * 2}))
    res = tmp_path / "res.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli("--quiet", "round", str(inst), *mode, "--budget", "50",
                       "--seed", "1", "--witness-random", "--out", str(res))
    assert code == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""
    assert json.loads(res.read_text())["accepted"]


def test_round_kl_reverifies_on_reload(tmp_path):
    inst = tmp_path / "inst.json"
    run_cli("--quiet", "gen", "--n", "3", "--k", "2", "--seed", "21",
            "--witness-random", "--out", str(inst))
    res = tmp_path / "res.json"
    run_cli("--quiet", "round", str(inst), "--rank-one", "--budget", "100",
            "--seed", "4", "--out", str(res))
    doc = json.loads(res.read_text())
    a = SimplexVector(doc["a"])
    b = SimplexVector(doc["b"])
    assert kl_divergence(a, b) == pytest.approx(doc["kl"], rel=1e-12, abs=1e-15)


def test_round_determinism_and_digest(tmp_path):
    inst = tmp_path / "inst.json"
    run_cli("--quiet", "gen", "--n", "4", "--k", "3", "--seed", "31",
            "--witness-random", "--out", str(inst))
    res1, res2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run_cli("--quiet", "round", str(inst), "--rank-one", "--budget", "100",
            "--seed", "5", "--out", str(res1))
    run_cli("--quiet", "--threads", "3", "round", str(inst), "--rank-one",
            "--budget", "100", "--seed", "5", "--out", str(res2))
    d1 = json.loads(res1.read_text())
    d2 = json.loads(res2.read_text())
    assert d1["result_digest"] == d2["result_digest"]
    assert result_digest(d1) == d1["result_digest"]
    # everything except timings is byte-identical
    d1.pop("timings"), d2.pop("timings")
    assert d1 == d2


def test_round_digest_independent_of_threads_across_blocks(tmp_path):
    # Several draw blocks with a ragged last one, so --threads > 1 really
    # runs on a pool: rank-one 700 = 256 + 256 + 188 draws, rank-m 16 with
    # 40 = 16 + 16 + 8 batches.
    inst = tmp_path / "inst.json"
    run_cli("--quiet", "gen", "--n", "64", "--k", "10", "--seed", "13",
            "--witness-random", "--out", str(inst))
    for mode in (["--rank-one", "--budget", "700"],
                 ["--rank-m", "16", "--budget", "40"]):
        digests = set()
        for threads in ("1", "2", "3"):
            res = tmp_path / f"res{threads}.json"
            assert run_cli("--quiet", "--threads", threads, "round", str(inst),
                           *mode, "--seed", "6", "--out", str(res)) == 0
            digests.add(json.loads(res.read_text())["result_digest"])
        assert len(digests) == 1, mode


def test_round_unreachable_tol_stops_unconverged(tmp_path):
    # no float iterate meets a 1e-300 gap: the solver's stall stop ends the
    # solve in a few steps, the result says so, and the certificate holds
    inst = tmp_path / "inst.json"
    run_cli("--quiet", "gen", "--n", "8", "--k", "5", "--seed", "3",
            "--witness-random", "--out", str(inst))
    res = tmp_path / "res.json"
    assert run_cli("--quiet", "round", str(inst), "--rank-one", "--budget",
                   "50", "--tol", "1e-300", "--seed", "1",
                   "--out", str(res)) == 0
    doc = json.loads(res.read_text())
    assert doc["sdp_converged"] is False
    assert doc["sdp_iterations"] <= 5
    assert doc["kl"] <= doc["bound"] + doc["fw_gap"]


@pytest.mark.parametrize("source", ["file", "pipe", "rewritten"])
def test_round_instance_digest_is_file_sha256(tmp_path, monkeypatch, source):
    # the digest is of the bytes that were parsed: also when they come from
    # a pipe, which can be read once, and when the file is rewritten with
    # another instance before the rounding
    inst = tmp_path / "inst.json"
    run_cli("--quiet", "gen", "--n", "3", "--k", "2", "--seed", "17",
            "--witness-random", "--out", str(inst))
    data = inst.read_bytes()
    path = str(inst)
    if source == "pipe":
        fd, w = os.pipe()
        os.write(w, data)
        os.close(w)
        path = f"/dev/fd/{fd}"
    elif source == "rewritten":
        run_round = cli_mod.run_round

        def rewrite_then_round(*args, **kwargs):
            run_cli("--quiet", "gen", "--n", "3", "--k", "2", "--seed", "18",
                    "--witness-random", "--out", str(inst))
            return run_round(*args, **kwargs)
        monkeypatch.setattr(cli_mod, "run_round", rewrite_then_round)
    res = tmp_path / "res.json"
    try:
        run_cli("--quiet", "round", path, "--rank-one", "--budget", "10",
                "--seed", "1", "--out", str(res))
    finally:
        if source == "pipe":
            os.close(fd)
    doc = json.loads(res.read_text())
    assert doc["instance_digest"] == hashlib.sha256(data).hexdigest()
    assert (inst.read_bytes() != data) == (source == "rewritten")


def test_round_frees_the_original_map_before_the_solve(tmp_path, monkeypatch):
    # round keeps no name for the loaded map once it is preconditioned, so
    # the original forms are freed before the solve
    inst = tmp_path / "inst.json"
    run_cli("--quiet", "gen", "--n", "6", "--k", "3", "--seed", "5",
            "--witness-random", "--out", str(inst))
    load, run_round = cli_mod.load_instance, cli_mod.run_round
    forms, alive = [], []

    def loading(path):
        qmap, X, digest = load(path)
        forms.append(weakref.ref(qmap.Q))
        return qmap, X, digest

    def rounding(*args, **kwargs):
        gc.collect()
        alive.append(forms[0]() is not None)
        return run_round(*args, **kwargs)
    monkeypatch.setattr(cli_mod, "load_instance", loading)
    monkeypatch.setattr(cli_mod, "run_round", rounding)
    assert run_cli("--quiet", "round", str(inst), "--rank-one", "--seed", "1",
                   "--out", str(tmp_path / "res.json")) == 0
    assert alive == [False]


@pytest.mark.parametrize("text, msg", [
    ('{"n": 1, "k": 1, "Q": 5}', "expected 1 matrices in Q"),
    ('{"n": 1, "k": 1}', "missing field: 'Q'"),
    ('{"n": 1, "k": 1, "Q": [1, 2]}', "not a JSON array of matrices"),
    ('{"n": 1, "k": 1, "Q": [[[1', "ends inside Q"),
    ('{"n": 1, "k": 1, "Q": [[[1]]], "note": "abc}', "ends inside a string"),
    ('{"n": 1, "k": 1, "Q": [[[1]]], x}', "invalid JSON"),
], ids=["q-number", "no-q", "q-numbers", "cut-in-q", "open-string",
        "bad-json"])
def test_round_invalid_instance_same_error_from_file_and_pipe(tmp_path, capsys,
                                                              text, msg):
    # the loader reads a file as it reads a pipe, once and in one pass, so an
    # invalid document gets the same error line from either
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    fd, w = os.pipe()
    os.write(w, text.encode())
    os.close(w)
    errs = []
    try:
        for path in (str(bad), f"/dev/fd/{fd}"):
            assert run_cli("--quiet", "round", path, "--rank-one", "--seed",
                           "1", "--out", str(tmp_path / "res.json")) == 2
            errs.append(capsys.readouterr().err)
    finally:
        os.close(fd)
    assert errs[0] == errs[1], errs
    assert errs[0].startswith("error:") and msg in errs[0], errs[0]
    assert errs[0].count("\n") == 1 and "seek" not in errs[0]


def _never(what):
    def entered(*args, **kwargs):
        pytest.fail(f"entered {what}")
    return entered


@pytest.mark.parametrize("command", ["round", "gen", "verify", "report"])
def test_output_path_checked_before_the_work(tmp_path, monkeypatch, capsys,
                                             command):
    # every command checks where it writes before its work: an output in a
    # missing folder, under a file, or that is a folder exits 2 with one
    # error line and prints nothing, and the work is never entered
    inst = tmp_path / "inst.json"
    res = tmp_path / "res.json"
    run_cli("--quiet", "gen", "--n", "3", "--k", "2", "--seed", "17",
            "--witness-random", "--out", str(inst))
    run_cli("--quiet", "round", str(inst), "--rank-one", "--budget", "20",
            "--seed", "1", "--out", str(res))
    monkeypatch.setattr(cli_mod, "load_instance", _never("load_instance"))
    monkeypatch.setattr(cli_mod, "random_map", _never("random_map"))
    monkeypatch.setitem(cli_mod.SUITES, "constants", _never("the suite"))
    monkeypatch.setattr(cli_mod, "_report_rows", _never("_report_rows"))
    argv = {"round": ["round", str(inst), "--rank-one", "--seed", "1",
                      "--out"],
            "gen": ["gen", "--n", "3", "--k", "2", "--seed", "1", "--out"],
            "verify": ["verify", "--suite", "constants", "--seed", "1",
                       "--json"],
            "report": ["report", str(res), "--out"]}[command]
    cases = [(argv + [str(tmp_path / "no" / "x.json")],
              "is not a writable folder"),
             (argv + [str(inst / "x.json")], "is not a writable folder"),
             (argv + [str(tmp_path)], "is a folder")]
    fd = None
    if command == "round":
        # with no --out the result goes beside the instance: a pipe has no
        # such path, and a folder at that path is refused like --out's
        fd, w = os.pipe()
        os.write(w, inst.read_bytes())
        os.close(w)
        inst.with_suffix(".result.json").mkdir()
        cases += [(argv[:-1], "is a folder"),
                  (["round", f"/dev/fd/{fd}", "--rank-one", "--seed", "1"],
                   "not a regular file")]
    try:
        for args, msg in cases:
            assert run_cli(*args) == 2, args
            out, err = capsys.readouterr()
            assert out == "", out
            assert err.startswith("error:") and msg in err, err
            assert err.count("\n") == 1, err
    finally:
        if fd is not None:
            os.close(fd)


@pytest.mark.parametrize("step, exc", [("replace", OSError("no replace")),
                                       ("fchmod", KeyboardInterrupt())],
                         ids=["replace", "interrupt"])
def test_output_written_whole_or_not_at_all(tmp_path, monkeypatch, step, exc):
    # a write that fails before os.replace lands creates no new target,
    # leaves an existing one as it was, and leaves no temporary file
    old = tmp_path / "old.json"
    old.write_text("old bytes\n")

    def fail(*args):
        raise exc
    monkeypatch.setattr(cli_mod.os, step, fail)
    for out in (tmp_path / "new.json", old):
        argv = ("--quiet", "gen", "--n", "3", "--k", "2", "--seed", "1",
                "--out", str(out))
        if isinstance(exc, OSError):
            assert run_cli(*argv) == 2
        else:
            with pytest.raises(type(exc)):
                run_cli(*argv)
    assert [p.name for p in tmp_path.iterdir()] == ["old.json"]
    assert old.read_text() == "old bytes\n"


def test_outputs_leave_only_the_target(tmp_path):
    # each command's folder holds its file and nothing else; a new file gets
    # the permission bits that open() gives, a rewritten one keeps its own
    dirs = {name: tmp_path / name for name in ("gen", "round", "verify",
                                               "report")}
    for d in dirs.values():
        d.mkdir()
    inst, res = dirs["gen"] / "inst.json", dirs["round"] / "r.json"
    assert run_cli("--quiet", "gen", "--n", "3", "--k", "2", "--seed", "5",
                   "--witness-random", "--out", str(inst)) == 0
    assert run_cli("--quiet", "round", str(inst), "--rank-one", "--budget",
                   "20", "--seed", "1", "--out", str(res)) == 0
    assert run_cli("--quiet", "verify", "--suite", "constants", "--seed", "1",
                   "--json", str(dirs["verify"] / "v.json")) == 0
    assert run_cli("--quiet", "report", str(res), "--out",
                   str(dirs["report"] / "rep.csv")) == 0
    names = {name: [p.name for p in d.iterdir()] for name, d in dirs.items()}
    assert names == {"gen": ["inst.json"], "round": ["r.json"],
                     "verify": ["v.json"], "report": ["rep.csv"]}
    ref = tmp_path / "ref"
    ref.write_text("")
    assert stat.S_IMODE(inst.stat().st_mode) == stat.S_IMODE(ref.stat().st_mode)
    first = inst.read_bytes()
    inst.chmod(0o600)
    assert run_cli("--quiet", "gen", "--n", "3", "--k", "2", "--seed", "5",
                   "--witness-random", "--out", str(inst)) == 0
    assert stat.S_IMODE(inst.stat().st_mode) == 0o600
    assert inst.read_bytes() == first


def test_verify_json_to_a_fifo_writes_in_place(tmp_path):
    # an existing FIFO is written in place, as /dev/stdout is, not replaced
    js = tmp_path / "rows.json"
    assert run_cli("--quiet", "verify", "--suite", "constants", "--seed", "1",
                   "--json", str(js)) == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    try:
        assert run_cli("--quiet", "verify", "--suite", "constants", "--seed",
                       "1", "--json", str(fifo)) == 0
    finally:
        reader.join(timeout=60)
    assert not reader.is_alive()
    assert got == [js.read_bytes()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "rows.json"]


def test_output_through_a_symlink_keeps_the_link(tmp_path):
    # a symlinked --out keeps its link; the file it points to is replaced,
    # or created when the link dangles
    inst = tmp_path / "inst.json"
    run_cli("--quiet", "gen", "--n", "3", "--k", "2", "--seed", "17",
            "--witness-random", "--out", str(inst))
    real = tmp_path / "real"
    real.mkdir()
    (real / "r.json").write_text("old\n")
    for name in ("r.json", "new.json"):
        link = tmp_path / f"link-{name}"
        link.symlink_to(real / name)
        assert run_cli("--quiet", "round", str(inst), "--rank-one",
                       "--budget", "20", "--seed", "1", "--out",
                       str(link)) == 0
        assert link.is_symlink() and os.readlink(link) == str(real / name)
        doc = json.loads((real / name).read_text())
        assert doc["result_digest"] == result_digest(doc)
    assert sorted(p.name for p in real.iterdir()) == ["new.json", "r.json"]


@pytest.mark.parametrize("bad", [
    ["round", "{inst}", "--rank-m", "0", "--seed", "1"],
    ["round", "{inst}", "--rank-one", "--budget", "0", "--seed", "1"],
    ["round", "{inst}", "--rank-one", "--tol", "0", "--seed", "1"],
    ["round", "{inst}", "--rank-one", "--tol", "nan", "--seed", "1"],
    ["round", "{inst}", "--rank-one", "--seed", "-1"],
    ["--threads", "0", "round", "{inst}", "--rank-one", "--seed", "1"],
    ["gen", "--n", "0", "--k", "2", "--seed", "1", "--out", "{inst}"],
    ["gen", "--n", "2", "--k", "2", "--seed", "-1", "--out", "{inst}"],
    ["gen", "--n", "2", "--k", "2", "--seed", "1", "--condition-cap", "0.5",
     "--out", "{inst}"],
    ["verify", "--suite", "constants", "--seed", "-1"],
    ["verify", "--suite", "lemma21", "--seed", "1", "--samples", "10"],
    ["verify", "--suite", "lemma21", "--seed", "1", "--samples", "inf"],
    ["verify", "--suite", "lemma21", "--seed", "1", "--samples", "2500.5"],
    # seeds are Philox keys, below 2**128
    ["gen", "--n", "2", "--k", "2", "--seed", str(1 << 128), "--out", "{inst}"],
    ["round", "{inst}", "--rank-one", "--seed", str(1 << 128)],
    ["verify", "--suite", "lemma21", "--seed", str(1 << 128)],
])
def test_invalid_arguments_exit2(tmp_path, bad):
    inst = tmp_path / "inst.json"
    run_cli("--quiet", "gen", "--n", "2", "--k", "2", "--seed", "1",
            "--witness-random", "--out", str(inst))
    before = inst.read_bytes()
    argv = [a.replace("{inst}", str(inst)) for a in bad]
    assert run_cli("--quiet", *argv) == 2
    assert inst.read_bytes() == before


def test_seed_and_samples_edges_parse():
    # the largest Philox key and integral float literals are accepted
    parse = cli_mod.build_parser().parse_args
    args = parse(["verify", "--suite", "lemma21", "--seed", str((1 << 128) - 1),
                  "--samples", "1e5"])
    assert args.seed == (1 << 128) - 1 and args.samples == 10 ** 5
    assert parse(["verify", "--suite", "lemma21", "--seed", "0",
                  "--samples", "1000.0"]).samples == 1000


def test_round_missing_witness_exit2(tmp_path):
    inst = tmp_path / "inst.json"
    run_cli("--quiet", "gen", "--n", "3", "--k", "2", "--seed", "41",
            "--out", str(inst))
    assert run_cli("--quiet", "round", str(inst), "--rank-one",
                   "--seed", "1") == 2
    # but --witness-random fills one in
    res = tmp_path / "res.json"
    assert run_cli("--quiet", "round", str(inst), "--rank-one", "--seed", "1",
                   "--witness-random", "--out", str(res)) == 0


def test_round_parse_and_invalid_instance_exits(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("--quiet", "round", str(bad), "--rank-one", "--seed", "1") == 2
    bad.write_bytes(b'{"n": 1, "k": 1, "Q": [[[1.0]]], "note": "\xff"}')
    assert run_cli("--quiet", "round", str(bad), "--rank-one", "--seed", "1") == 2
    # malformed headers and entries: overflowing, fractional or boolean n or
    # k, no forms, a ragged form, a null, string, numeric-string or
    # overflowing entry in a form, a string entry in the witness X, points or
    # weights, witness points that are zero wherever their weight is not;
    # with --witness-random so that only the malformation can fail the
    # command
    for text in ('{"n": 1e400, "k": 1, "Q": [[[1.0]]]}',
                 '{"n": 1, "k": 1e400, "Q": [[[1.0]]]}',
                 '{"n": 2, "k": 1, "Q": [[[1.0, 0.0], [0.0]]]}',
                 '{"n": 2, "k": 1, "Q": [[[1.0, "x"], [0.0, 1.0]]]}',
                 '{"n": 1, "k": 1, "Q": [[[1.0]]], "witness": {"X": [["x"]]}}',
                 '{"n": 1, "k": 1, "Q": [[[null]]]}',
                 '{"n": 1, "k": 1, "Q": [[["2.5"]]]}',
                 '{"n": 1, "k": 1, "Q": [[[1e400]]]}',
                 '{"n": 1.9, "k": 1, "Q": [[[1.0]]]}',
                 '{"n": true, "k": 1, "Q": [[[1.0]]]}',
                 '{"n": 1, "k": 1, "Q": [[[1.0]]], "witness": {"X": [["1.0"]]}}',
                 '{"n": 1, "k": 1, "Q": [[[1.0]]], '
                 '"witness": {"points": [["1.0"]], "weights": [1.0]}}',
                 '{"n": 1, "k": 1, "Q": [[[1.0]]], '
                 '"witness": {"points": [[1.0]], "weights": ["1.0"]}}',
                 '{"n": 1, "k": 0, "Q": []}',
                 '{"n": 1, "k": 1, "Q": [[[1.0]]], '
                 '"witness": {"points": [[0.0]], "weights": [1.0]}}',
                 '{"n": 1, "k": 1, "Q": [[[1.0]]], '
                 '"witness": {"points": [[1.0], [0.0]], '
                 '"weights": [0.0, 1.0]}}',
                 # malformed points witnesses: a 2-vector for n = 1, two
                 # weights for one point, weights that do not sum to 1, a
                 # number for the points, no weights, no points, ragged
                 # points, a negative weight, a nested point, a number as
                 # the point, a number for the weights, 2-D weights
                 '{"n": 1, "k": 1, "Q": [[[1.0]]], '
                 '"witness": {"points": [[1.0, 2.0]], "weights": [1.0]}}',
                 '{"n": 1, "k": 1, "Q": [[[1.0]]], '
                 '"witness": {"points": [[1.0]], "weights": [0.5, 0.5]}}',
                 '{"n": 1, "k": 1, "Q": [[[1.0]]], '
                 '"witness": {"points": [[1.0]], "weights": [0.5]}}',
                 '{"n": 1, "k": 1, "Q": [[[1.0]]], '
                 '"witness": {"points": 3, "weights": [1.0]}}',
                 '{"n": 1, "k": 1, "Q": [[[1.0]]], '
                 '"witness": {"points": [[1.0]]}}',
                 '{"n": 1, "k": 1, "Q": [[[1.0]]], '
                 '"witness": {"points": [], "weights": []}}',
                 '{"n": 2, "k": 1, "Q": [[[1.0, 0.0], [0.0, 1.0]]], '
                 '"witness": {"points": [[1.0, 0.0], [1.0]], '
                 '"weights": [0.5, 0.5]}}',
                 '{"n": 1, "k": 1, "Q": [[[1.0]]], '
                 '"witness": {"points": [[1.0], [2.0]], '
                 '"weights": [1.5, -0.5]}}',
                 '{"n": 1, "k": 1, "Q": [[[1.0]]], '
                 '"witness": {"points": [[[1.0]]], "weights": [1.0]}}',
                 '{"n": 1, "k": 1, "Q": [[[1.0]]], '
                 '"witness": {"points": [1.0], "weights": [1.0]}}',
                 '{"n": 1, "k": 1, "Q": [[[1.0]]], '
                 '"witness": {"points": [[1.0]], "weights": 1.0}}',
                 '{"n": 1, "k": 1, "Q": [[[1.0]]], '
                 '"witness": {"points": [[1.0]], "weights": [[1.0]]}}',
                 # malformed matrix witnesses: not PSD, not PSD with
                 # entries whose squares overflow, not PSD with entries
                 # whose symmetrization overflows, PSD with a Frobenius
                 # norm that overflows, trace 2, the wrong shape, a
                 # number, an object with neither X nor points
                 '{"n": 2, "k": 1, "Q": [[[1.0, 0.0], [0.0, 1.0]]], '
                 '"witness": {"X": [[1.5, 0.0], [0.0, -0.5]]}}',
                 '{"n": 2, "k": 1, "Q": [[[1.0, 0.0], [0.0, 1.0]]], '
                 '"witness": {"X": [[0.5, 1e200], [1e200, 0.5]]}}',
                 '{"n": 2, "k": 1, "Q": [[[1.0, 0.0], [0.0, 1.0]]], '
                 '"witness": {"X": [[0.5, 1e308], [1e308, 0.5]]}}',
                 '{"n": 3, "k": 1, "Q": [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], '
                 '[0.0, 0.0, 1.0]]], "witness": {"X": [[8e307, 8e307, 8e307], '
                 '[8e307, 8e307, 8e307], [8e307, 8e307, 8e307]]}}',
                 '{"n": 2, "k": 1, "Q": [[[1.0, 0.0], [0.0, 1.0]]], '
                 '"witness": {"X": [[1.0, 0.0], [0.0, 1.0]]}}',
                 '{"n": 2, "k": 1, "Q": [[[1.0, 0.0], [0.0, 1.0]]], '
                 '"witness": {"X": [[1.0]]}}',
                 '{"n": 2, "k": 1, "Q": [[[1.0, 0.0], [0.0, 1.0]]], '
                 '"witness": 3}',
                 '{"n": 2, "k": 1, "Q": [[[1.0, 0.0], [0.0, 1.0]]], '
                 '"witness": {}}',
                 # nesting too deep: a 5 000-deep Q, a 100 000-deep array,
                 # and a 300 000-deep witness (orjson 3.8 would crash on it)
                 '{"n": 1, "k": 1, "Q": ' + '[' * 5000 + ']' * 5000 + '}',
                 '[' * 100000 + ']' * 100000,
                 '{"n": 1, "k": 1, "Q": [[[1.0]]], "witness": '
                 + '[' * 300000 + ']' * 300000 + '}'):
        bad.write_text(text)
        assert run_cli("--quiet", "round", str(bad), "--rank-one", "--seed",
                       "1", "--witness-random", "--budget", "5") == 2, text
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, text

    # a form that is not positive definite, a form whose symmetrized
    # entries overflow, finite forms whose sum S overflows, and subnormal
    # forms, whose random witness would overflow when normalized
    notpd = tmp_path / "notpd.json"
    for forms, msg in (([[[1.0, 2.0], [2.0, 1.0]]], "not positive definite"),
                       ([[[1.7e308, 0.0], [0.0, 1.0]]], "(A + A') / 2"),
                       ([[[5e307, 0.0], [0.0, 1.0]]] * 4, "sum of the forms"),
                       ([[[1e-320, 0.0], [0.0, 1e-320]]], "witness overflows")):
        notpd.write_text(json.dumps({"n": 2, "k": len(forms), "Q": forms}))
        assert run_cli("--quiet", "round", str(notpd), "--rank-one", "--seed",
                       "1", "--witness-random", "--budget", "5") == 3, forms
        err = capsys.readouterr().err
        assert err.startswith("error:") and msg in err, err
        assert "Traceback" not in err

    # both or neither rounding mode
    inst = tmp_path / "inst.json"
    run_cli("--quiet", "gen", "--n", "2", "--k", "1", "--seed", "1",
            "--witness-random", "--out", str(inst))
    assert run_cli("--quiet", "round", str(inst), "--seed", "1") == 2
    assert run_cli("--quiet", "round", str(inst), "--rank-one", "--rank-m",
                   "4", "--seed", "1") == 2


def test_round_near_singular_map_exits3(tmp_path, capsys):
    # Both forms pass the load gate, but floating point leaves a normalized
    # form T^-1 Q_i T^-1 indefinite; preconditioning must refuse the map.
    th = math.radians(17.0)
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    D = np.diag([1.0, 1e-17])
    forms = [D, R @ D @ R.T]
    qmap = QuadraticMap(forms)
    with pytest.raises(NotPositiveDefinite):
        precondition(qmap)
    inst = tmp_path / "near_singular.json"
    inst.write_text(json.dumps({"n": 2, "k": 2,
                                "Q": [f.tolist() for f in forms]}))
    assert run_cli("--quiet", "round", str(inst), "--rank-one", "--seed", "1",
                   "--witness-random") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: invalid instance: normalized form")
    assert "too close to singular" in err and "Traceback" not in err


def test_round_budget_exhausted_exit4(tmp_path):
    # frozen (instance seed, rounding seed) whose single draw is rejected
    inst = tmp_path / "inst.json"
    run_cli("--quiet", "gen", "--n", "4", "--k", "3", "--seed", "42",
            "--witness-random", "--out", str(inst))
    res = tmp_path / "res.json"
    code = run_cli("--quiet", "round", str(inst), "--rank-one",
                   "--budget", "1", "--seed", "36", "--out", str(res))
    doc = json.loads(res.read_text())
    assert code == 4
    assert doc["accepted"] is False          # file still written


def test_verify_constants_cli(tmp_path, capsys):
    js = tmp_path / "rows.json"
    assert run_cli("verify", "--suite", "constants", "--seed", "1",
                   "--json", str(js)) == 0
    text = capsys.readouterr().out
    assert "beta_rank_one" in text
    assert "PASS" in text
    doc = json.loads(js.read_text())
    assert doc["passed"] is True
    assert any(r["name"] == "phi(6)" for r in doc["rows"])


def test_verify_small_suites_cli():
    assert run_cli("--quiet", "verify", "--suite", "lemma21", "--seed", "2",
                   "--samples", "2e4") == 0
    assert run_cli("--quiet", "verify", "--suite", "lemma51", "--seed", "2",
                   "--samples", "2e4") == 0


@pytest.mark.parametrize("suite", ["constants", "lemma21", "lemma51",
                                   "sandwich"])
def test_verify_json_bytes_independent_of_threads(tmp_path, monkeypatch,
                                                  suite):
    # small blocks so the Monte Carlo suites span several blocks and
    # --threads 3 really runs the pool; few sandwich instances
    monkeypatch.setattr(verify_mod, "_MC_BLOCK_ELEMS", 1 << 12)
    monkeypatch.setattr(verify_mod, "_SANDWICH_INSTANCES", 5)
    outs = []
    for threads in ("1", "3"):
        js = tmp_path / f"{suite}-{threads}.json"
        assert run_cli("--quiet", "--threads", threads, "verify", "--suite",
                       suite, "--seed", "1", "--samples", "1e4",
                       "--json", str(js)) == 0
        outs.append(js.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("suite", ["lemma21", "lemma51"])
def test_mc_suite_json_equal_across_threads_at_default_blocks(
        tmp_path, monkeypatch, suite):
    # at the default block size every (estimate, block) pair of a suite is
    # one task of one pool, so the pool runs many tasks even when each
    # estimate fits in one block
    tasks = []
    real = verify_mod.map_indexed

    def spy(fn, count, threads=1):
        tasks.append(count)
        return real(fn, count, threads)

    monkeypatch.setattr(verify_mod, "map_indexed", spy)
    outs = []
    for threads in ("1", "2", "3"):
        js = tmp_path / f"{suite}-{threads}.json"
        assert run_cli("--quiet", "--threads", threads, "verify", "--suite",
                       suite, "--seed", "4", "--samples", "1e4",
                       "--json", str(js)) == 0
        outs.append(js.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    assert len(tasks) == 3 and min(tasks) > 1, tasks


class _RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers, starts no
    thread and maps in the calling thread."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_pool_capped_by_usable_cpus(monkeypatch, tmp_path):
    import quadround._util as util_mod
    monkeypatch.setattr(util_mod, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(util_mod.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2}, raising=False)
    assert util_mod.map_indexed(lambda i: i * i, 100, 4096) == [
        i * i for i in range(100)]
    assert util_mod.map_indexed(lambda i: i, 2, 4096) == [0, 1]
    assert util_mod.map_indexed(lambda i: i, 100, 2) == list(range(100))
    assert _RecordingPool.sizes == [3, 2, 2]
    # a serial run starts no pool
    assert util_mod.map_indexed(lambda i: i, 100, 1) == list(range(100))
    monkeypatch.setattr(util_mod.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    assert util_mod.map_indexed(lambda i: i, 100, 4096) == list(range(100))
    assert _RecordingPool.sizes == [3, 2, 2]
    # a huge --threads through the CLI asks for no more workers than CPUs
    monkeypatch.setattr(util_mod.os, "sched_getaffinity",
                        lambda pid: {0, 1, 2}, raising=False)
    outs = []
    for threads in ("1", "4096"):
        js = tmp_path / f"t{threads}.json"
        assert run_cli("--quiet", "--threads", threads, "verify", "--suite",
                       "lemma21", "--seed", "1", "--samples", "1e4",
                       "--json", str(js)) == 0
        outs.append(js.read_bytes())
    assert outs[0] == outs[1]
    assert _RecordingPool.sizes == [3, 2, 2, 3]


def test_verify_failure_exit5(monkeypatch):
    def failing_suite(seed, samples=0, threads=1):
        return [BoundReport("forced", 1.0, 0.0, False, "<=")], {}
    monkeypatch.setitem(verify_mod.SUITES, "lemma21", failing_suite)
    assert run_cli("--quiet", "verify", "--suite", "lemma21", "--seed", "1",
                   "--samples", "1e3") == 5


@pytest.mark.parametrize("before, after, code", [
    (["--quiet", "--threads", "2"], [], 0),
    ([], ["--quiet", "--threads", "2"], 0),
    (["--threads", "3"], ["--quiet", "--threads", "2"], 0),
    (["--threads", "0"], ["--quiet"], 2),
    (["--quiet"], ["--threads", "0"], 2),
])
def test_global_flags_either_position(monkeypatch, capsys, before, after, code):
    seen = []

    def suite(seed, samples=0, threads=1):
        seen.append(threads)
        return [BoundReport("ok", 0.0, 1.0, True, "<=")], {}
    monkeypatch.setitem(verify_mod.SUITES, "lemma21", suite)
    argv = [*before, "verify", "--suite", "lemma21", "--seed", "1", *after]
    assert run_cli(*argv) == code
    if code == 0:
        assert seen == [2]                  # the later position wins
        assert capsys.readouterr().out == ""


def test_round_quiet_after_subcommand(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert run_cli("gen", "--n", "3", "--k", "2", "--seed", "1",
                   "--witness-random", "--out", str(inst), "--quiet") == 0
    assert run_cli("round", str(inst), "--rank-one", "--budget", "10",
                   "--seed", "1", "--out", str(tmp_path / "r.json"),
                   "--quiet", "--threads", "2") == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("module, attr, exc", [
    (rounding_mod, "sqrt_psd", LinalgError("sqrt residual out of tolerance")),
    (sdp_mod, "_evaluate", AssertionError("some <Q_i, X> <= 0")),
    (rounding_mod, "kl_divergence", AssertionError("KL came out -1e-03")),
    (cli_mod, "random_witness", ArithmeticError("degenerate Wishart draw")),
    # a quadrature error estimate above DEFAULTS.quad_abs
    (bounds_mod, "quad", None),
], ids=["LinalgError", "AssertionError-inner-values", "AssertionError-kl",
        "ArithmeticError-witness", "ArithmeticError-quadrature"])
def test_numerical_failure_exit3(tmp_path, monkeypatch, capsys, module, attr,
                                 exc):
    # A factorization that misses its tolerance and a breached internal
    # invariant both end in an error line and exit 3, never a traceback.
    inst = tmp_path / "inst.json"
    run_cli("--quiet", "gen", "--n", "3", "--k", "2", "--seed", "1",
            "--out", str(inst))

    def failing(*args, **kwargs):
        if exc is None:
            return 1.0, 1.0
        raise exc
    monkeypatch.setattr(module, attr, failing)
    argv = (["verify", "--suite", "constants", "--seed", "1"]
            if module is bounds_mod else
            ["round", str(inst), "--rank-one", "--seed", "1",
             "--witness-random"])
    assert run_cli("--quiet", *argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical failure:")
    assert "Traceback" not in err


def test_out_of_memory_exit3(tmp_path, monkeypatch, capsys):
    # an allocation the host cannot provide ends in an error line and exit
    # 3, never a traceback
    inst = tmp_path / "inst.json"
    run_cli("--quiet", "gen", "--n", "3", "--k", "2", "--seed", "1",
            "--out", str(inst))

    def failing(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.45 TiB for an array")
    monkeypatch.setattr(cli_mod, "run_round", failing)
    assert run_cli("--quiet", "round", str(inst), "--rank-m", "1000000000",
                   "--budget", "1", "--seed", "1", "--witness-random") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory:")
    assert "Traceback" not in err


def test_report_empty_after_filter_and_malformed(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run_cli("--quiet", "gen", "--n", "4", "--k", "3", "--seed", "42",
            "--witness-random", "--out", str(inst))
    res = tmp_path / "rej.json"
    code = run_cli("--quiet", "round", str(inst), "--rank-one",
                   "--budget", "1", "--seed", "36", "--out", str(res))
    assert code == 4
    # rejected result filtered out: header-only CSV, exit 0
    assert run_cli("report", str(res), "--accepted-only") == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["n,k,m,kl,bound,margin,fw_gap,samples_drawn,accepted"]

    # truncated JSON, a JSON list, and a null where a number belongs
    doc = json.loads(res.read_text())
    doc["kl"] = None
    for i, text in enumerate(("[1, 2", "[]", json.dumps(doc))):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(text)
        assert run_cli("--quiet", "report", str(bad)) == 2
        err = capsys.readouterr().err
        assert "error: malformed result file" in err
        assert "Traceback" not in err


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "quadround.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("gen", "round", "verify", "report"):
        assert sub in proc.stdout


def test_cli_import_skips_quadrature():
    # only the constants suite integrates, through QUADPACK's compiled
    # core, so importing the CLI must not import scipy.integrate
    code = "import sys, quadround.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_blas_pinned_to_one_thread(tmp_path):
    # importing quadround sets the BLAS thread variables to 1 unless they
    # are set; two BLAS threads round an n = 100 map's products otherwise,
    # so on a multi-core host an unset environment must still give the
    # digest of an explicit 1 (a 1-core host passes either way)
    inst = tmp_path / "inst.json"
    assert run_cli("--quiet", "gen", "--n", "100", "--k", "10", "--seed",
                   "1", "--witness-random", "--out", str(inst)) == 0
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    digests = []
    for pin in ({}, dict.fromkeys(blas, "1")):
        env = {k: v for k, v in os.environ.items() if k not in blas}
        out = tmp_path / f"r{len(pin)}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "quadround.cli", "--quiet", "round",
             str(inst), "--rank-one", "--budget", "50", "--seed", "1",
             "--out", str(out)], env={**env, **pin}, capture_output=True,
            text=True)
        assert proc.returncode == 0, proc.stderr
        digests.append(json.loads(out.read_text())["result_digest"])
    assert digests[0] == digests[1]


def test_gen_report_lemma51_and_usage_errors_skip_scipy(tmp_path):
    # scipy is imported where it is used, so these commands never load it;
    # round and the sandwich, lemma21 and constants suites, run afterwards
    # in the same process, load scipy but never scipy.optimize or
    # scipy.integrate (they call their compiled cores), and give the bytes
    # of a process that had both loaded from the start (this one)
    ref, inst, l51 = (str(tmp_path / f) for f in ("ref.json", "inst.json",
                                                  "l51.json"))
    gen = ["gen", "--n", "6", "--k", "4", "--seed", "3", "--witness-random"]
    assert run_cli("--quiet", *gen, "--out", ref) == 0
    rounds = [["round", ref, "--rank-m", "4", "--budget", "20", "--seed", "2"],
              ["round", ref, "--rank-one", "--budget", "50", "--seed", "2"]]
    verifies = [["verify", "--suite", "sandwich", "--seed", "1"],
                ["verify", "--suite", "lemma21", "--samples", "1e3",
                 "--seed", "1"],
                ["verify", "--suite", "constants", "--seed", "1"]]
    runs = [(argv, "--out", str(tmp_path / f"r{i}")) for i, argv in
            enumerate(rounds)] + [(argv, "--json", str(tmp_path / f"v{i}"))
                                  for i, argv in enumerate(verifies)]
    for argv, flag, out in runs:
        assert run_cli("--quiet", *argv, flag, out + "_ref.json") == 0
    code = f"""
import json, sys
from quadround.cli import main
def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
codes = [
    main(["--quiet", *{gen!r}, "--out", {inst!r}]),
    main(["--quiet", "report", {runs[0][2] + "_ref.json"!r}]),
    main(["--quiet", "verify", "--suite", "lemma51", "--samples", "1e3",
          "--seed", "1", "--json", {l51!r}]),
    main(["--quiet", "round", {inst!r}, "--rank-one", "--seed", "-1"]),
]
before = scipy_modules()
for argv, flag, out in {runs!r}:
    codes.append(main(["--quiet", *argv, flag, out + ".json"]))
cores = [m for m in scipy_modules()
         if m.startswith(("scipy.optimize", "scipy.integrate"))]
print(json.dumps({{"codes": codes, "scipy": before, "cores": cores}}))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0, 0, 2, 0, 0, 0, 0, 0]
    assert out["scipy"] == []
    assert out["cores"] == []
    for _, _, path in runs:
        with open(path + ".json", "rb") as a, open(path + "_ref.json", "rb") as b:
            got, want = a.read(), b.read()
        if path.endswith(("r0", "r1")):
            got, want = (json.loads(t)["result_digest"] for t in (got, want))
        assert got == want, path
    with open(inst, "rb") as a, open(ref, "rb") as b:
        assert a.read() == b.read()
