import hashlib
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from quadround import (QuadraticMap, SimplexVector, kl_divergence,
                       load_instance, precondition)
from quadround.bounds import BoundReport
from quadround.cli import main, result_digest
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
    qmap, wit = load_instance(str(out1))    # PD-validated on reload
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
    qmap, _ = load_instance(str(out))
    for i in range(qmap.k):
        Q = qmap.Q[i]
        assert np.allclose(Q, Q[0, 0] * np.eye(3), atol=1e-12)


def test_gen_with_witness(tmp_path):
    out = tmp_path / "w.json"
    run_cli("--quiet", "gen", "--n", "3", "--k", "2", "--seed", "9",
            "--witness-random", "--out", str(out))
    qmap, X = load_instance(str(out))
    assert X is not None
    total = float(np.einsum("kij,ij->", qmap.Q, X))
    assert total == pytest.approx(1.0, abs=1e-9)


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
    qmap, _ = load_instance(str(inst))
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


def test_round_instance_digest_is_file_sha256(tmp_path):
    inst = tmp_path / "inst.json"
    run_cli("--quiet", "gen", "--n", "3", "--k", "2", "--seed", "17",
            "--witness-random", "--out", str(inst))
    res = tmp_path / "res.json"
    run_cli("--quiet", "round", str(inst), "--rank-one", "--budget", "10",
            "--seed", "1", "--out", str(res))
    doc = json.loads(res.read_text())
    assert doc["instance_digest"] == hashlib.sha256(inst.read_bytes()).hexdigest()


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
])
def test_invalid_arguments_exit2(tmp_path, bad):
    inst = tmp_path / "inst.json"
    run_cli("--quiet", "gen", "--n", "2", "--k", "2", "--seed", "1",
            "--witness-random", "--out", str(inst))
    before = inst.read_bytes()
    argv = [a.replace("{inst}", str(inst)) for a in bad]
    assert run_cli("--quiet", *argv) == 2
    assert inst.read_bytes() == before


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
                 # entries whose squares overflow, trace 2, the wrong
                 # shape, a number, an object with neither X nor points
                 '{"n": 2, "k": 1, "Q": [[[1.0, 0.0], [0.0, 1.0]]], '
                 '"witness": {"X": [[1.5, 0.0], [0.0, -0.5]]}}',
                 '{"n": 2, "k": 1, "Q": [[[1.0, 0.0], [0.0, 1.0]]], '
                 '"witness": {"X": [[0.5, 1e200], [1e200, 0.5]]}}',
                 '{"n": 2, "k": 1, "Q": [[[1.0, 0.0], [0.0, 1.0]]], '
                 '"witness": {"X": [[1.0, 0.0], [0.0, 1.0]]}}',
                 '{"n": 2, "k": 1, "Q": [[[1.0, 0.0], [0.0, 1.0]]], '
                 '"witness": {"X": [[1.0]]}}',
                 '{"n": 2, "k": 1, "Q": [[[1.0, 0.0], [0.0, 1.0]]], '
                 '"witness": 3}',
                 '{"n": 2, "k": 1, "Q": [[[1.0, 0.0], [0.0, 1.0]]], '
                 '"witness": {}}'):
        bad.write_text(text)
        assert run_cli("--quiet", "round", str(bad), "--rank-one", "--seed",
                       "1", "--witness-random", "--budget", "5") == 2, text
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, text

    notpd = tmp_path / "notpd.json"
    notpd.write_text(json.dumps(
        {"n": 2, "k": 1, "Q": [[[1.0, 2.0], [2.0, 1.0]]]}))
    assert run_cli("--quiet", "round", str(notpd), "--rank-one",
                   "--seed", "1") == 3

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
