"""Tests of the benchmark's own code.

    python3 -m pytest -q bench/selftest.py

The checks and the routing oracle are tried on hand-made fixtures, each check
is shown to reject a corrupted decision, value or checksum, the tracer's
counts are shown to repeat, and each workload runs once, briefly, with no
failed operation. The file name keeps these tests out of the repository's
default pytest collection: the smoke runs take a few minutes.
"""

import hashlib
import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

C, P, G, M, S = checks.DOMAIN_NAMES
ALL = list(checks.DOMAIN_NAMES)


# --- routing oracle: one fixture per branch ------------------------------------

@pytest.mark.parametrize("probs, danger, want", [
    ([0.9, 0.1, 0.1, 0.1, 0.1], True, (ALL, "FAIL_OPEN")),            # danger flag
    ([0.2, 0.1, 0.24, 0.1, 0.1], False, (ALL, "FAIL_OPEN")),          # all below the floor
    ([0.6, 0.8, 0.1, 0.1, 0.1], False, ([P], "TOP1_LIFE")),           # life-threat >= tau_hi
    ([0.75, 0.75, 0.9, 0.1, 0.1], False, ([C], "TOP1_LIFE")),         # tie -> Cardiac
    ([0.1, 0.2, 0.6, 0.1, 0.65], False, ([G, S], "TOP2")),            # top two, priority order
    ([0.1, 0.2, 0.4, 0.4, 0.4], False, ([G, M], "TOP2")),             # tie -> higher priority
    ([0.26, 0.1, 0.27, 0.1, 0.1], False, (ALL, "FAIL_OPEN")),         # above floor, below tau_lo
])
def test_oracle_route_branches(probs, danger, want):
    assert checks.oracle_route(probs, 0.7, 0.3, danger) == want


def test_oracle_route_agrees_with_program():
    from panelroute import policy

    rng = np.random.default_rng(5)
    thr = policy.Thresholds(0.7, 0.3)
    for _ in range(2000):
        p = rng.uniform(0, 1, 5)
        danger = bool(rng.random() < 0.1)
        dec = policy.route(p, thr, danger_flag=danger)
        assert checks.oracle_route(p, 0.7, 0.3, danger) == ([d.value for d in dec.route],
                                                             dec.branch)


# --- AUC ---------------------------------------------------------------------------

def test_pairwise_auc_criterion_9_fixture():
    # Mann-Whitney by hand: positive ranks 2.5 + 5 + 6
    auc = checks.pairwise_auc([0.1, 0.4, 0.4, 0.6, 0.8, 0.9], [0, 0, 1, 0, 1, 1])
    assert abs(auc - (13.5 - 6.0) / 9.0) <= 1e-12


def test_pairwise_auc_extremes():
    assert checks.pairwise_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert checks.pairwise_auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0
    assert checks.pairwise_auc([0.5, 0.5], [0, 1]) == 0.5


# --- route output ------------------------------------------------------------------

THR = {"tau_hi": 0.7, "tau_lo": 0.3}
VOCAB = {"a", "b", "c", "d"}


def route_stdout(**changes):
    out = {"route": [G, S], "branch": "TOP2", "probs": [0.1, 0.2, 0.6, 0.1, 0.65],
           "tau_hi": 0.7, "tau_lo": 0.3, "episode_id": "ep1",
           "suggestions": [["a", G], ["b", G], ["c", S]]}
    out.update(changes)
    return json.dumps(out)


def test_route_output_passes():
    assert checks.check_route_output(route_stdout(), False, THR, VOCAB) == []


@pytest.mark.parametrize("changes, danger", [
    ({"route": [S]}, False),                                     # corrupted decision
    ({"branch": "TOP1_LIFE"}, False),                            # corrupted branch
    ({}, True),                                                  # danger ignored
    ({"tau_hi": 0.8}, False),                                    # other thresholds
    ({"suggestions": [["a", G], ["a", S]]}, False),              # repeated item
    ({"suggestions": [["a", G], ["zz", S]]}, False),             # outside vocabulary
    ({"suggestions": [["c", S], ["a", G]]}, False),              # priority order broken
    ({"suggestions": [["a", C]]}, False),                        # domain not routed
    ({"suggestions": []}, False),                                # nothing merged
])
def test_route_output_rejects(changes, danger):
    assert checks.check_route_output(route_stdout(**changes), danger, THR, VOCAB)


def test_route_output_rejects_non_json():
    assert checks.check_route_output("not json", False, THR, VOCAB)


# --- thresholds, manifest, report ---------------------------------------------------------

def test_thresholds_check():
    ok = {"constraint_met": True, "dev_life_recall": 0.99}
    assert checks.check_thresholds(ok, 0.98) == []
    assert checks.check_thresholds({**ok, "constraint_met": False}, 0.98)
    assert checks.check_thresholds({**ok, "dev_life_recall": 0.975}, 0.98)


def test_manifest_check(tmp_path):
    (tmp_path / "a.txt").write_text("alpha")
    digest = hashlib.sha256(b"alpha").hexdigest()
    (tmp_path / "manifest.json").write_text(json.dumps({"artifacts": {"a.txt": digest}}))
    assert checks.check_manifest(tmp_path, {"a.txt": "synth"}) == []
    (tmp_path / "manifest.json").write_text(json.dumps({"artifacts": {"a.txt": "0" * 64}}))
    assert checks.check_manifest(tmp_path, {"a.txt": "synth"}) == [
        ("synth", "manifest checksum of a.txt does not match the file")]
    assert checks.check_manifest(tmp_path, {"b.txt": "tune"})[0][0] == "tune"


def report_fixture():
    rng = np.random.default_rng(2)
    n = 60
    truth = np.zeros((n, 5), dtype=bool)
    truth[np.arange(n), rng.integers(0, 5, n)] = True
    probs = np.clip(0.6 * truth + rng.uniform(0, 0.5, (n, 5)), 0, 1)
    danger = rng.random(n) < 0.2
    aucs = [checks.pairwise_auc(probs[:, d], truth[:, d]) for d in range(5)]
    routes = [checks.oracle_route(probs[i], 0.7, 0.3, danger[i])[0] for i in range(n)]
    life_rows = [i for i in range(n) if truth[i, 0] or truth[i, 1]]
    report = {
        "router": {"per_domain": {name: {"roc_auc": a} for name, a in zip(ALL, aucs)},
                   "macro": {"roc_auc": float(np.mean(aucs))}},
        "policy": {"life_recall": float(np.mean([bool({C, P} & set(routes[i]))
                                                 for i in life_rows])),
                   "expected_experts": float(np.mean([len(r) for r in routes]))},
    }
    return report, probs, truth, danger


def test_report_check_passes_and_rejects():
    report, probs, truth, danger = report_fixture()
    assert checks.check_report(report, THR, probs, truth, danger) == []
    for path in (("router", "per_domain", G, "roc_auc"), ("router", "macro", "roc_auc"),
                 ("policy", "life_recall"), ("policy", "expected_experts")):
        bad = json.loads(json.dumps(report))
        node = bad
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += 1e-9
        assert checks.check_report(bad, THR, probs, truth, danger), path


# --- bundles and specialists ---------------------------------------------------------------

def test_read_bundle_matches_program(tmp_path):
    from panelroute.serial import load_bundle, save_bundle

    arrays = {"x": np.arange(12.0).reshape(3, 4), "y": np.array([1, 2, 3], dtype=np.uint8)}
    save_bundle(tmp_path / "b.bin", {"kind": "t", "n": 3}, arrays)
    meta, got = checks.read_bundle(tmp_path / "b.bin")
    ref_meta, ref = load_bundle(tmp_path / "b.bin")
    assert meta == ref_meta
    for k in arrays:
        assert np.array_equal(got[k], ref[k]) and got[k].dtype == ref[k].dtype


@pytest.mark.parametrize("lora_rank", [0, 2])
def test_specialist_nll_matches_program(tmp_path, lora_rank):
    from panelroute.specialist import SpecialistConfig, SpecialistModel

    model = SpecialistModel(SpecialistConfig(vocab_size=20, layers=2, d_model=16, heads=2),
                            seed=3, domain="Gastro")
    if lora_rank:
        model.attach_lora(lora_rank, alpha=4.0, seed=1)
        rng = np.random.default_rng(4)
        model.adapters = {k: (a, rng.normal(0, 0.1, b.shape)) for k, (a, b) in model.adapters.items()}
    rng = np.random.default_rng(0)
    seqs = [[2, *rng.integers(4, 20, n), 3] for n in (5, 9, 3, 12)]
    model.save(tmp_path / "s.bin")
    meta, arrays = checks.read_bundle(tmp_path / "s.bin")
    nll = checks.specialist_nll(meta, arrays, seqs)
    assert abs(nll - model.eval_loss(seqs)) <= 1e-9 * nll

    ppl = math.exp(checks.specialist_nll(meta, arrays, seqs[:2]))
    assert checks.check_specialist(meta, arrays, seqs, seqs[:2], [nll + 0.1, nll], ppl, 50) == []
    # a curve whose minimum is not the saved checkpoint's loss
    assert checks.check_specialist(meta, arrays, seqs, seqs[:2], [nll - 0.01, nll], ppl, 50)
    # a reported perplexity that is not the checkpoint's, or not below V
    assert checks.check_specialist(meta, arrays, seqs, seqs[:2], [nll], ppl * 1.001, 50)
    assert checks.check_specialist(meta, arrays, seqs, seqs[:2], [nll], ppl, 2)


# --- tracer ------------------------------------------------------------------------------------

def traced_pipeline(out):
    from panelroute import cli

    cfg = out / "config.json"
    out.mkdir()
    cfg.write_text(json.dumps({
        "seed": 7, "svd_rank": 32, "specialist": {"epochs": 1},
        "cohort": {"counts": {C: 30, P: 25, G: 25, M: 15, S: 25}, "danger_rate": 0.2}}))
    episode = out / "ep.json"
    episode.write_text(json.dumps({"episode_id": "r1", "danger": True, "events": [
        {"kind": "DIAG", "code": "786.50", "t_min": 0},
        {"kind": "ORDER", "code": "ECG", "t_min": 5},
        {"kind": "LAB", "code": "TROP", "bin": "HIGH", "t_min": 9}]}))
    tracer = spans.Tracer()
    tracer.install()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            for stage in ["synth", "tokenize", "featurize", "train-router", "tune",
                          "train-specialist", "eval", "report"]:
                with tracer.span(f"cli.{stage}", stage):
                    assert cli.run([stage, "--config", str(cfg), "--out", str(out)]) == 0
            for i in range(2):
                with tracer.span("cli.route", "route", i):
                    assert cli.run(["route", "--config", str(cfg), "--out", str(out),
                                    "--episode", str(episode)]) == 0
    finally:
        tracer.uninstall()
    return tracer


def test_tracer_counts_repeat_and_unwrap(tmp_path):
    from panelroute import cli, features, policy

    originals = (features.featurize_rows, cli.featurize_rows, policy.route)
    first = spans.layer_metrics(traced_pipeline(tmp_path / "a"))
    second = spans.layer_metrics(traced_pipeline(tmp_path / "b"))
    assert (features.featurize_rows, cli.featurize_rows, policy.route) == originals
    assert set(first) == set(spans.LAYER_METRICS)
    counts = [k for k, (unit, _, _) in spans.LAYER_METRICS.items()
              if unit in ("count", "bytes", "ratio", "loads/request")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["router.lbfgs_solves"]["value"] == 25
    assert first["router.solves_used_ratio"]["value"] == 10 / 25
    assert first["specialist.loads_per_request"]["value"] == 5  # danger flag: all five
    assert first["specialist.grad_use_ratio"]["value"] == 1.0
    assert first["events.read_jsonl_calls"]["value"] == 8  # eval re-reads once per specialist


# --- smoke runs ------------------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr[-2000:]
    assert result["attempted"] >= 12 + 100
    assert set(result["metrics"]) == {
        "setup_s", "build_s", "train_s", "route_mean_ms", "route_p90_ms", "route_cold_ms",
        "peak_rss_mb", "artifact_mb", "life_recall", "macro_roc_auc", "expected_experts",
        "specialist_ppl"}
