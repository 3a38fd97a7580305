import collections
import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import panelroute
from panelroute.cli import (
    _SCHEMA,
    DEFAULT_CONFIG,
    EXIT_CONFIG,
    EXIT_CONSTRAINT,
    EXIT_DATA,
    EXIT_OK,
    FEATURES,
    TOKENS,
    DataError,
    build_parser,
    config_hash,
    run,
)
from panelroute import cli, features, router, specialist
from panelroute.cohort import default_grammars, save_grammars
from panelroute.events import DOMAINS
from panelroute.features import load_feature_models
from panelroute.router import RouterModel
from panelroute.serial import BundleError, load_bundle, save_bundle, sha256_file
from panelroute.specialist import SpecialistConfig, SpecialistModel


def write_config(path, **overrides):
    cfg = {
        "seed": 7,
        "cohort": {"counts": {"Cardiac": 30, "Pulmonary": 25, "Gastro": 25,
                              "Musculoskeletal": 15, "Psychogenic": 25}},
        "svd_rank": 64,
    }
    for k, v in overrides.items():
        if isinstance(v, dict) and isinstance(cfg.get(k), dict):
            cfg[k].update(v)
        else:
            cfg[k] = v
    path.write_text(json.dumps(cfg))
    return path


def run_pipeline(out, cfg_path, upto="report"):
    stages = ["synth", "tokenize", "featurize", "train-router", "tune", "eval", "report"]
    codes = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for stage in stages[: stages.index(upto) + 1]:
            codes.append(run([stage, "--config", str(cfg_path), "--out", str(out)]))
    return codes


def write_cardiac_probe(path):
    """An episode whose critical troponin routes TOP1_LIFE to Cardiac."""
    grammar = default_grammars()["Cardiac"]
    events = [{"kind": "DIAG", "code": grammar.initial_codes[0][0], "t_min": 0}]
    t = 5
    for order, _ in grammar.order_pool:
        events.append({"kind": "ORDER", "code": order, "t_min": t})
        t += 10
    events.append({"kind": "LAB", "code": "TROP", "bin": "CRITICAL", "t_min": t})
    path.write_text(json.dumps({"episode_id": "probe", "events": events,
                                "labels": [], "gold": ""}))
    return path


def src_env():
    src = str(Path(panelroute.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


# JSON artifacts edited off their shape: each edit and the key its error names.
JSON_EDITS = {
    "no_tau_hi": (lambda d: d.pop("tau_hi"), "tau_hi"),
    "no_tau_lo": (lambda d: d.pop("tau_lo"), "tau_lo"),
    "string_tau_hi": (lambda d: d.update(tau_hi="0.5"), "tau_hi"),
    "null_tau_lo": (lambda d: d.update(tau_lo=None), "tau_lo"),
    "tau_hi_2": (lambda d: d.update(tau_hi=2.0), "tau_hi"),
    "no_anytime": (lambda d: d.pop("anytime"), "anytime"),
    "anytime_list": (lambda d: d.update(anytime=[]), "anytime"),
    "anytime_ell_x": (lambda d: d["anytime"]["recall_any"].update(x=0.5), "anytime"),
    "artifacts_list": (lambda d: d.update(artifacts=[]), "artifacts"),
    "artifacts_null": (lambda d: d.update(artifacts=None), "artifacts"),
}


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg_path = write_config(out / "config.json")
    codes = run_pipeline(out, cfg_path)
    assert codes == [EXIT_OK] * 7
    return out, cfg_path


class TestPipeline:
    def test_all_artifacts_present(self, pipeline_dir):
        out, _ = pipeline_dir
        for name in ("cohort.jsonl", "vocab.tsv", "feature_models.bin", "features.bin",
                     "router.bin", "thresholds.json", "frontier.csv", "report.json",
                     "report.csv", "anytime.csv", "manifest.json", "timings.json"):
            assert (out / name).exists(), name

    def test_manifest_lists_artifacts_not_timings(self, pipeline_dir):
        out, _ = pipeline_dir
        manifest = json.loads((out / "manifest.json").read_text())
        assert "cohort.jsonl" in manifest["artifacts"]
        assert "timings.json" not in manifest["artifacts"]
        assert manifest["artifacts"]["router.bin"] == sha256_file(out / "router.bin")

    def test_router_stamp_matches_manifest(self, pipeline_dir):
        out, _ = pipeline_dir
        meta, _ = load_bundle(out / "router.bin")
        manifest = json.loads((out / "manifest.json").read_text())
        assert meta["config_hash"] == manifest["config_hash"]

    def test_train_router_prints_each_solve(self, pipeline_dir, tmp_path, capsys):
        """One line per head, then per calibrator, with the solver's iterations
        and status; the same on a rerun, and router.bin unchanged."""
        out, cfg_path = pipeline_dir
        shutil.copytree(out, tmp_path / "run")
        printed = []
        for _ in range(2):
            assert run(["train-router", "--config", str(cfg_path),
                        "--out", str(tmp_path / "run")]) == EXIT_OK
            printed.append(capsys.readouterr().out.splitlines())
        assert printed[0] == printed[1]
        lines = printed[0][:-1]
        want = [f"{d.value} {part}: " for part in ("head", "calibrator") for d in DOMAINS]
        assert [line[:len(prefix)] for line, prefix in zip(lines, want)] == want
        assert all(re.fullmatch(r"\d+ L-BFGS iterations, converged \(.+\)", line[len(prefix):])
                   for line, prefix in zip(lines, want))
        assert len(lines) == 10 and printed[0][-1].startswith("router checkpoint written")
        assert (tmp_path / "run" / "router.bin").read_bytes() == (out / "router.bin").read_bytes()

    def test_train_router_and_tune_do_not_read_features_bin(self, pipeline_dir, tmp_path):
        """train-router and tune project their splits from tokens.bin and
        feature_models.bin: without features.bin they write what the full run
        wrote, and eval, which reads it, then writes the same report."""
        out, cfg_path = pipeline_dir
        run_dir = tmp_path / "run"
        shutil.copytree(out, run_dir)
        written = ["router.bin", "thresholds.json", "frontier.csv", "report.json"]
        for name in ["features.bin", *written]:
            (run_dir / name).unlink()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for stage in ("train-router", "tune"):
                assert run([stage, "--config", str(cfg_path), "--out", str(run_dir)]) == EXIT_OK
            assert run(["eval", "--config", str(cfg_path), "--out", str(run_dir)]) == EXIT_DATA
            shutil.copy(out / "features.bin", run_dir / "features.bin")
            assert run(["eval", "--config", str(cfg_path), "--out", str(run_dir)]) == EXIT_OK
        for name in written:
            assert (run_dir / name).read_bytes() == (out / name).read_bytes(), name

    def test_train_and_dev_tables_are_featurize_rows_of_their_rows(self, pipeline_dir, tmp_path):
        """The train and dev arrays train-router and tune build are, bit for bit,
        featurize_rows of the split's prefix rows with the saved models, beside
        the rows' labels, weights, lengths and danger flags."""
        from panelroute import pipeline

        out, cfg_path = pipeline_dir
        run_dir = tmp_path / "run"
        shutil.copytree(out, run_dir)
        tables = {}

        def recording(stage, fn, index):  # the table is fn's argument `index`
            def record(*args):
                tables[stage] = args[index]
                return fn(*args)
            return record

        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mp.setattr(cli, "train_router", recording("train-router", cli.train_router, 0))
            mp.setattr(cli, "prob_rows_for", recording("tune", cli.prob_rows_for, 1))
            for stage in ("train-router", "tune"):
                assert run([stage, "--config", str(cfg_path), "--out", str(run_dir)]) == EXIT_OK
        cfg = cli.load_config(build_parser().parse_args(["featurize", "--config", str(cfg_path)]))
        episodes, vocab = cli._load_tokenized(out)
        tfidf, svd, _ = load_feature_models(out / "feature_models.bin")
        rows = pipeline.split_rows(episodes, cfg["k"], cfg["seed"], pipeline.SPLITS)
        splits = {"train-router": ("train", "dev"), "tune": ("dev",)}
        for stage, table in tables.items():
            want = {}
            for name in splits[stage]:
                r = rows[name]
                want |= {f"x_{name}": features.featurize_rows(r, vocab, tfidf, svd),
                         f"y_{name}": np.array([p.label_bits for p in r], dtype=np.uint8),
                         f"w_{name}": np.array([p.weight for p in r]),
                         f"ell_{name}": np.array([p.ell for p in r], dtype=np.int64),
                         f"danger_{name}": np.array([p.danger for p in r], dtype=np.uint8)}
            assert set(table) == set(want), stage
            for name, arr in table.items():
                assert arr.dtype == want[name].dtype, (stage, name)
                assert arr.tobytes() == want[name].tobytes(), (stage, name)

    def test_bundles_hold_exactly_their_documented_keys(self, specialist_dir):
        """Each bundle holds the meta keys its layout declares, its kind and its
        stamp, and exactly the arrays its layout declares."""
        out, _, _ = specialist_dir
        for name, (layout, stamp, _) in BUNDLES.items():
            meta, arrays = load_bundle(out / name)
            paths = [key.split(".") for key in layout.meta]
            assert set(meta) == {"kind", stamp, *(path[0] for path in paths)}, name
            for parent in {path[0] for path in paths if len(path) == 2}:
                assert set(meta[parent]) == {p[1] for p in paths if p[0] == parent}, name
            assert set(arrays) == set(declared_arrays(layout, meta)), name

    def test_features_bin_holds_exactly_the_test_table(self, pipeline_dir):
        """features.bin holds exactly the five *_test arrays, with the names,
        dtypes and bytes prepare_router_datasets returns for the test split."""
        from panelroute import cli, pipeline

        out, cfg_path = pipeline_dir
        cfg = cli.load_config(build_parser().parse_args(["featurize", "--config", str(cfg_path)]))
        episodes, vocab = cli._load_tokenized(out)
        rows = pipeline.split_rows(episodes, cfg["k"], cfg["seed"], pipeline.SPLITS)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table, _, _ = pipeline.prepare_router_datasets(rows, vocab, cfg["svd_rank"])
        _, stored = load_bundle(out / "features.bin")
        assert set(stored) == set(table) == set(FEATURES.arrays) == {
            "x_test", "y_test", "w_test", "ell_test", "danger_test"}
        for name, arr in table.items():
            assert stored[name].dtype == arr.dtype, name
            assert stored[name].shape == arr.shape, name
            assert stored[name].tobytes() == arr.tobytes(), name

    def test_no_array_is_stored_in_two_bundles(self, pipeline_dir):
        out, _ = pipeline_dir
        bundle_of = {}  # SHA-256 of an array's bytes -> first "bundle:array" holding it
        for path in sorted(out.glob("*.bin")):
            _, arrays = load_bundle(path)
            for name, arr in arrays.items():
                if arr.nbytes < 1024:
                    continue
                digest = hashlib.sha256(arr.tobytes()).hexdigest()
                first = bundle_of.setdefault(digest, f"{path.name}:{name}")
                assert first.split(":")[0] == path.name, f"{path.name}:{name} repeats {first}"

    def test_manifest_records_blas_and_the_thread_settings_in_force(self, tmp_path):
        cfg_path = write_config(tmp_path / "config.json")
        env = {k: v for k, v in src_env().items() if k != "OMP_NUM_THREADS"}
        subprocess.run([sys.executable, "-m", "panelroute.cli", "synth", "--config",
                        str(cfg_path), "--out", str(tmp_path)],
                       env={**env, "OPENBLAS_NUM_THREADS": "2"}, check=True,
                       capture_output=True)
        record = json.loads((tmp_path / "manifest.json").read_text())["environment"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert record == {"blas": {"name": blas["name"], "version": blas["version"]},
                          "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}

    def test_report_structure(self, pipeline_dir):
        out, _ = pipeline_dir
        report = json.loads((out / "report.json").read_text())
        assert set(report["router"]["per_domain"]) == {
            "Cardiac", "Pulmonary", "Gastro", "Musculoskeletal", "Psychogenic"}
        assert 1.0 <= report["policy"]["expected_experts"] <= 5.0
        assert "consult_all" in report["baselines"]

    def test_stage_isolation_regenerates_identical_artifact(self, pipeline_dir):
        out, cfg_path = pipeline_dir
        before = sha256_file(out / "vocab.tsv")
        (out / "vocab.tsv").unlink()
        assert run(["tokenize", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert sha256_file(out / "vocab.tsv") == before

    def test_baselines_consult_all_and_the_fixed_life_pair(self, pipeline_dir):
        out, _ = pipeline_dir
        baselines = json.loads((out / "report.json").read_text())["baselines"]
        assert baselines["consult_all"]["expected_experts"] == 5.0
        assert baselines["consult_all"]["recall_all"] == 1.0
        assert baselines["fixed_cardiac_pulmonary"]["expected_experts"] == 2.0

    def test_route_high_confidence_cardiac_episode(self, pipeline_dir, capsys, tmp_path):
        out, cfg_path = pipeline_dir
        run_dir = tmp_path / "run"
        shutil.copytree(out, run_dir)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(["train-specialist", "--domain", "Cardiac", "--config", str(cfg_path),
                        "--out", str(run_dir)]) == EXIT_OK
        ep_path = write_cardiac_probe(tmp_path / "ep.json")
        timings = (run_dir / "timings.json").read_bytes()
        capsys.readouterr()
        code = run(["route", "--config", str(cfg_path), "--out", str(run_dir),
                    "--episode", str(ep_path)])
        captured = capsys.readouterr().out
        assert code == EXIT_OK
        assert (run_dir / "timings.json").read_bytes() == timings  # a request records no time
        payload = json.loads(captured[captured.index("{"):])
        assert payload["branch"] == "TOP1_LIFE"
        assert payload["route"] == ["Cardiac"]
        suggestions = payload.pop("suggestions")
        assert [d for _, d in suggestions] == ["Cardiac"] * 3
        # the audit line is the printed decision plus its provenance
        audit = (run_dir / "audit.jsonl").read_text().strip().split("\n")
        record = json.loads(audit[-1])
        assert record["episode_id"] == "probe"
        assert set(record) - set(payload) == {"ell", "raw_scores", "danger_flag", "arbitration"}
        assert {k: record[k] for k in payload} == payload
        assert record["arbitration"] == suggestions
        assert record["danger_flag"] is False and record["ell"] >= 1
        assert len(record["raw_scores"]) == 5


class TestErrorPaths:
    def test_invalid_config_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["synth", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("cfg, key", [
        ({"svd_rnak": 32}, "svd_rnak"),
        ({"specialist": {"epoch": 3}}, "specialist.epoch"),
        ({"cohort": {"total": 50, "dangr_rate": 0.1}}, "cohort.dangr_rate"),
        ({"specialist.epochs": 3}, "specialist.epochs"),
        ({"use_time": True}, "use_time"),
        ({"use_prefix_weights": False}, "use_prefix_weights"),
        ({"calibrate": False}, "calibrate"),
        ({"restrict_top1_to_life": False}, "restrict_top1_to_life"),
    ])
    def test_unknown_config_key_exits_2_and_names_it(self, tmp_path, capsys, cfg, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["synth", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "cohort.jsonl").exists()

    def test_eval_policy_flag_is_refused(self, tmp_path, capsys):
        assert run(["eval", "--policy", "consult-all", "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("usage: panelroute") and "--policy" in err

    def test_help_returns_0(self, capsys):
        assert run(["--help"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: panelroute")

    @pytest.mark.parametrize("case", ["config_is_a_directory", "config_not_utf8",
                                      "out_is_a_file"])
    def test_unopenable_front_end_path_exits_2_naming_it(self, tmp_path, capsys, case):
        cfg_path, out = write_config(tmp_path / "config.json"), tmp_path / "out"
        if case == "config_is_a_directory":
            cfg_path = tmp_path / "config.d"
            cfg_path.mkdir()
        elif case == "config_not_utf8":
            cfg_path.write_bytes(b'{"seed": "\xff"}')
        else:
            out.write_text("not a directory")
        capsys.readouterr()
        code = run(["synth", "--config", str(cfg_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: ")
        assert str(out if case == "out_is_a_file" else cfg_path) in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("override, named", [
        ({"cohort": {"counts": {"Cardiac": 30, "Pulmonary": 30, "Gastro": 30,
                                "Musculoskeletal": 5, "Psychogenic": 30}}},
         ["cohort.counts", "Musculoskeletal: only 5 episodes"]),
        ({"cohort": {"counts": None, "total": 40}},
         ["cohort.total = 40", "Musculoskeletal: only 2 episodes"]),
        ({"specialist": {"scope_cap": 5}}, ["specialist.scope_cap = 5", "Musculoskeletal"]),
    ])
    def test_specialist_pool_too_small_exits_2_naming_what_sized_it(self, tmp_path, capsys,
                                                                    override, named):
        cfg_path = write_config(tmp_path / "config.json", **override)
        assert run_pipeline(tmp_path, cfg_path, upto="tokenize") == [EXIT_OK] * 2
        capsys.readouterr()
        code = run(["train-specialist", "--domain", "Musculoskeletal", "--config",
                    str(cfg_path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: ") and all(n in err for n in named)
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not list(tmp_path.glob("specialist_*.bin"))

    def test_missing_artifact_exits_3(self, tmp_path):
        assert run(["tokenize", "--out", str(tmp_path)]) == EXIT_DATA

    @pytest.mark.parametrize("corrupt", ["truncated", "wrong_kind", "header_length",
                                         "negative_shape"])
    def test_bad_router_checkpoint_exits_3(self, pipeline_dir, tmp_path, capsys, corrupt):
        out, cfg_path = pipeline_dir
        shutil.copytree(out, tmp_path / "run")
        router = tmp_path / "run" / "router.bin"
        raw = router.read_bytes()
        if corrupt == "truncated":
            router.write_bytes(raw[: len(raw) // 2])
        elif corrupt == "wrong_kind":
            shutil.copy(tmp_path / "run" / "feature_models.bin", router)
        elif corrupt == "header_length":  # 1 TiB, far past the end of the file
            router.write_bytes(raw[:8] + struct.pack("<Q", 2**40) + raw[16:])
        else:  # (-1, dim): read as (4, dim) from the 5 heads' bytes, were it let through
            (hlen,) = struct.unpack("<Q", raw[8:16])
            header = json.loads(raw[16:16 + hlen])
            (spec,) = header["arrays"]
            spec["shape"][0] = -1
            new = json.dumps(header).encode()
            router.write_bytes(raw[:8] + struct.pack("<Q", len(new)) + new + raw[16 + hlen:])
        capsys.readouterr()
        code = run(["route", "--config", str(cfg_path), "--out", str(tmp_path / "run"),
                    "--episode", str(write_cardiac_probe(tmp_path / "ep.json"))])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("data error: ") and "router.bin" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("stage, name, part, key", [
        ("train-router", "feature_models.bin", "array", "svd_components"),
        ("eval", "features.bin", "array", "y_test"),
        ("tune", "router.bin", "meta key", "biases"),
        ("tune", "router.bin", "array", "head_weights"),
        ("route", "feature_models.bin", "array", "tfidf_idf"),
        ("route", "feature_models.bin", "meta key", "tfidf"),
        ("eval", "specialist_Gastro.bin", "array", "tok_emb"),
        ("eval", "specialist_Gastro.bin", "meta key", "config"),
    ])
    def test_bundle_lacking_a_key_exits_3_naming_file_and_key(
            self, specialist_dir, tmp_path, capsys, stage, name, part, key):
        out, cfg_path, _ = specialist_dir
        run_dir = tmp_path / "run"
        shutil.copytree(out, run_dir)
        meta, arrays = load_bundle(run_dir / name)
        del (meta if part == "meta key" else arrays)[key]
        save_bundle(run_dir / name, meta, arrays)
        argv = [stage, "--config", str(cfg_path), "--out", str(run_dir)]
        if stage == "route":
            argv += ["--episode", str(write_cardiac_probe(tmp_path / "ep.json"))]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and name in err and f"{part} {key!r}" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("stage, name, part, key, edit", [
        ("tune", "router.bin", "meta key", "biases",
         lambda meta, arrays: meta.update(biases=meta["biases"][:4])),
        ("eval", "specialist_Gastro.bin", "meta key", "config",
         lambda meta, arrays: meta["config"].update(extra=1)),
        ("eval", "specialist_Gastro.bin", "array", "l0.w1",
         lambda meta, arrays: arrays.update({"l0.w1": arrays["l0.w1"][:, :128]})),
    ], ids=["four_biases", "extra_config_key", "cut_weight"])
    def test_bundle_with_a_malformed_value_exits_3_naming_file_and_key(
            self, specialist_dir, tmp_path, capsys, stage, name, part, key, edit):
        out, cfg_path, _ = specialist_dir
        run_dir = tmp_path / "run"
        shutil.copytree(out, run_dir)
        meta, arrays = load_bundle(run_dir / name)
        edit(meta, arrays)
        save_bundle(run_dir / name, meta, arrays)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run([stage, "--config", str(cfg_path), "--out", str(run_dir)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and name in err and f"{part} {key!r}" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("stage, name, corrupt, code", [
        ("route", "thresholds.json", "truncated", EXIT_DATA),
        ("route", "thresholds.json", "unstamped", EXIT_CONFIG),
        ("report", "report.json", "truncated", EXIT_DATA),
        ("tune", "manifest.json", "truncated", EXIT_DATA),
        ("report", "timings.json", "open_brace", EXIT_DATA),
        ("eval", "features.bin", "wrong_kind", EXIT_DATA),
        ("train-router", "feature_models.bin", "truncated", EXIT_DATA),
        ("tune", "feature_models.bin", "truncated", EXIT_DATA),
        ("train-router", "feature_models.bin", "other_config", EXIT_CONFIG),
        ("tune", "feature_models.bin", "other_config", EXIT_CONFIG),
        *((stage, "thresholds.json", corrupt, EXIT_DATA) for stage, corrupt in [
            ("eval", "no_tau_hi"), ("route", "no_tau_lo"), ("route", "string_tau_hi"),
            ("eval", "null_tau_lo"), ("eval", "tau_hi_2"), ("route", "tau_hi_2")]),
        *(("report", "report.json", corrupt, EXIT_DATA)
          for corrupt in ["no_anytime", "anytime_list", "anytime_ell_x"]),
        *(("tune", "manifest.json", corrupt, EXIT_DATA)
          for corrupt in ["artifacts_list", "artifacts_null"]),
    ])
    def test_unreadable_artifact_exits_with_one_line_naming_it(
            self, pipeline_dir, tmp_path, capsys, stage, name, corrupt, code):
        out, cfg_path = pipeline_dir
        run_dir = tmp_path / "run"
        shutil.copytree(out, run_dir)
        path = run_dir / name
        if corrupt in JSON_EDITS:
            edit, key = JSON_EDITS[corrupt]
            data = json.loads(path.read_text())
            edit(data)
            path.write_text(json.dumps(data))
        elif corrupt == "truncated":
            path.write_bytes(path.read_bytes()[:40])
        elif corrupt == "unstamped":
            data = json.loads(path.read_text())
            del data["config_hash"]
            path.write_text(json.dumps(data))
        elif corrupt == "open_brace":
            path.write_text("{")
        elif corrupt == "other_config":  # a bundle stamped by another config
            meta, arrays = load_bundle(path)
            save_bundle(path, {**meta, "config_hash": config_hash({"seed": 99})}, arrays)
        else:
            shutil.copy(run_dir / "feature_models.bin", path)
        argv = [stage, "--config", str(cfg_path), "--out", str(run_dir)]
        if stage == "route":
            argv += ["--episode", str(write_cardiac_probe(tmp_path / "ep.json"))]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("data error: " if code == EXIT_DATA else "config error: ")
        assert name in err and (corrupt not in JSON_EDITS or repr(key) in err)
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("corrupt", ["truncated", "bad_kind", "sentinel_kind", "missing_key"])
    def test_malformed_cohort_line_exits_3_naming_the_line(self, tmp_path, capsys, corrupt):
        """tokenize, the one stage that parses cohort.jsonl, names the bad line;
        featurize refuses the tokens.bin built from the cohort before the change."""
        cfg_path = write_config(tmp_path / "config.json")
        assert run_pipeline(tmp_path, cfg_path, upto="tokenize") == [EXIT_OK] * 2
        cohort = tmp_path / "cohort.jsonl"
        raw = cohort.read_bytes()
        if corrupt == "truncated":
            assert raw[2999:3000] != b"\n"  # the cut falls inside a line
            cohort.write_bytes(raw[:3000])
            lineno = raw[:3000].count(b"\n") + 1
        else:
            lines = raw.decode().splitlines()
            rec = json.loads(lines[4])
            if corrupt == "bad_kind":
                rec["events"][0]["kind"] = "NOTE"
            elif corrupt == "sentinel_kind":  # a token, not an event
                rec["events"][0]["kind"] = "PAD"
            else:
                del rec["episode_id"]
            lines[4] = json.dumps(rec)
            cohort.write_text("\n".join(lines) + "\n")
            lineno = 5
        capsys.readouterr()
        assert run(["featurize", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "tokens.bin" in err and "tokenize" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert run(["tokenize", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and f"cohort.jsonl, line {lineno}:" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("case, key", [
        ("missing_grammar_file", "none.json"),
        ("grammar_without_initial_codes", "initial_codes"),
        ("two_entry_mixture", "mixture"),
        ("mixture_summing_to_2.5", "mixture"),
        ("non_numeric_mixture", "mixture"),
        ("counts_not_a_mapping", "counts"),
        ("grammar_file_without_gastro", "Gastro"),
        ("negative_total", "total"),
        ("negative_count", "counts"),
        ("fractional_count", "cohort.counts"),
        ("boolean_count", "cohort.counts"),
    ])
    def test_bad_cohort_config_exits_2_and_names_it(self, tmp_path, capsys, case, key):
        cohort = {"counts": None, "total": 50}
        if case == "missing_grammar_file":
            cohort["grammar_file"] = str(tmp_path / "none.json")
        elif case == "grammar_without_initial_codes":
            grammar_path = tmp_path / "grammar.json"
            save_grammars(grammar_path, default_grammars())
            data = json.loads(grammar_path.read_text())
            del data["grammars"][2]["initial_codes"]
            grammar_path.write_text(json.dumps(data))
            cohort["grammar_file"] = str(grammar_path)
        elif case == "grammar_file_without_gastro":
            grammar_path = tmp_path / "grammar.json"
            grammars = default_grammars()
            del grammars["Gastro"]
            save_grammars(grammar_path, grammars)
            cohort["grammar_file"] = str(grammar_path)
        elif case == "two_entry_mixture":
            cohort["mixture"] = [0.5, 0.5]
        elif case == "non_numeric_mixture":
            cohort["mixture"] = ["a"]
        elif case == "counts_not_a_mapping":
            cohort["counts"] = [1]
        elif case == "negative_total":
            cohort["total"] = -5
        elif case == "negative_count":
            cohort["counts"] = {"Cardiac": -3}
        elif case == "fractional_count":
            cohort["counts"] = {"Cardiac": 40.9, "Pulmonary": 10}
        elif case == "boolean_count":
            cohort["counts"] = {"Cardiac": 40, "Pulmonary": True}
        else:
            cohort["mixture"] = [0.5] * 5
        cfg_path = write_config(tmp_path / "config.json", cohort=cohort)
        capsys.readouterr()
        assert run(["synth", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "cohort.jsonl").exists()

    @pytest.mark.parametrize("case", ["negative_bin_weight", "nan_pool_weight", "empty_bins",
                                      "inverted_length_range", "bins_as_list", "unknown_bin",
                                      "low_end_below_k"])
    def test_bad_grammar_weight_exits_2_naming_file_and_domain(self, tmp_path, capsys, case):
        grammar_path = tmp_path / "grammar.json"
        save_grammars(grammar_path, default_grammars())
        data = json.loads(grammar_path.read_text())
        gastro = data["grammars"][2]
        if case == "negative_bin_weight":
            gastro["lab_pool"][0][1]["HIGH"] = -1
        elif case == "nan_pool_weight":
            gastro["gold_codes"][1][1] = float("nan")
        elif case == "inverted_length_range":
            gastro["length_range"] = [30, 10]
        elif case == "low_end_below_k":  # k is 5
            gastro["length_range"] = [3, 10]
        elif case == "bins_as_list":
            gastro["lab_pool"][0][1] = ["NORMAL", "HIGH"]
        elif case == "unknown_bin":
            gastro["lab_pool"][0][1]["MED"] = 0.2
        else:
            gastro["lab_pool"][1][1] = {}
        grammar_path.write_text(json.dumps(data))
        cfg_path = write_config(tmp_path / "config.json",
                                cohort={"grammar_file": str(grammar_path)})
        capsys.readouterr()
        assert run(["synth", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(grammar_path) in err and "Gastro" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "cohort.jsonl").exists()

    @pytest.mark.parametrize("config, flags, key", [
        ([1], [], "JSON object"),
        ({"cohort": 5}, [], "cohort"),
        ({"k": True}, [], "k"),
        ({"svd_rank": "64"}, [], "svd_rank"),
        ({"specialist": {"epochs": 1.5}}, [], "specialist.epochs"),
        (None, ["--counts", '{"Cardiac": 10'], "--counts"),
        (None, ["--mixture", "0.5,half"], "--mixture"),
        ({"cohort": {"signal_strength": "x"}}, [], "cohort.signal_strength"),
        ({"life_guard_tau": "x"}, [], "life_guard_tau"),
        ({"cohort": {"grammar_file": ["g.json"]}}, [], "cohort.grammar_file"),
        ({"cohort": {"counts": "x"}}, [], "cohort.counts"),
        ({"grid": "ab"}, [], "grid"),
        ({"grid": [[0.7]]}, [], "grid"),
        ({"grid": [[1.5, 0.2]]}, [], "grid"),
        ({"grid": [[0.7, 0.3], [0.2, 0.5]]}, [], "grid"),
        ({"life_guard_tau": 2.0}, [], "life_guard_tau"),
        ({"life_guard_tau": -0.5}, [], "life_guard_tau"),
        (None, ["--counts", '{"Cardiac": 10.5}'], "cohort.counts"),
        (None, ["--seed", "-1"], "seed"),
        ({"cohort": {"sample_target": -1}}, [], "cohort.sample_target"),
        ({"cohort": {"danger_rate": 1.5}}, [], "cohort.danger_rate"),
        ({"cohort": {"multi_label_rate": -0.5}}, [], "cohort.multi_label_rate"),
        (None, ["--multi-label-rate", "1.01"], "cohort.multi_label_rate"),
        ({"constraint": 3.0}, [], "constraint"),
        ({"constraint": -0.1}, [], "constraint"),
        ({"latency": {"l_router": -1.0}}, [], "latency.l_router"),
        ({"latency": {"l_expert": -50}}, [], "latency.l_expert"),
        ({"specialist": {"peak_lr": -0.01}}, [], "specialist.peak_lr"),
        ({"specialist": {"peak_lr": 0}}, [], "specialist.peak_lr"),
        ({"cohort": {"signal_strength": 2.0}}, [], "cohort.signal_strength"),
        ({"grid": [[0.7, "x"]]}, [], "grid must be a list of [tau_hi, tau_lo] number pairs"),
        ({"grid": [[0.9, -0.1]]}, [], "grid: need 0 <= tau_lo <= tau_hi <= 1"),
        ({"life_guard_tau": 1.01}, [], "life_guard_tau: need 0 <= life_guard_tau <= 1"),
        ({"specialist": {"peak_lr": -1e-9}}, [], "specialist.peak_lr must be > 0"),
    ])
    def test_config_value_of_wrong_type_exits_2_and_names_it(self, tmp_path, capsys, config,
                                                             flags, key):
        argv = ["synth", "--total", "20", "--out", str(tmp_path), *flags]
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "config.json")]
        capsys.readouterr()
        assert run(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "cohort.jsonl").exists()

    @pytest.mark.parametrize("stage, cohort, key, domain", [
        ("featurize", {"total": 8}, "cohort.total", None),
        ("train-router", {"counts": {"Cardiac": 30}}, "cohort.counts", "Cardiac"),
        ("tune", {"counts": {"Cardiac": 3, "Pulmonary": 3, "Gastro": 30,
                             "Musculoskeletal": 30, "Psychogenic": 30}},
         "cohort.counts", "Cardiac or Pulmonary"),
    ])
    def test_cohort_too_small_or_one_sided_exits_2_naming_its_size(
            self, tmp_path, capsys, stage, cohort, key, domain):
        # too few episodes to split, one class only, no life-threat episode in dev
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"cohort": cohort}))
        stages = ["synth", "tokenize", "featurize", "train-router", "tune"]
        before = stages[:stages.index(stage)]
        assert run_pipeline(tmp_path, cfg_path, upto=before[-1]) == [EXIT_OK] * len(before)
        listing = sorted(p.name for p in tmp_path.iterdir() if p.name != "timings.json")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run([stage, "--config", str(cfg_path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith(f"config error: {key} = ") and (domain or "") in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir() if p.name != "timings.json") == listing

    def test_sentinel_event_kind_in_route_episode_exits_3(self, pipeline_dir, tmp_path,
                                                          capsys):
        out, cfg_path = pipeline_dir
        probe = write_cardiac_probe(tmp_path / "ep.json")
        episode = json.loads(probe.read_text())
        episode["events"] += [{"kind": "PAD", "code": "x", "t_min": 90},
                              {"kind": "BOS", "code": "x", "t_min": 95}]
        probe.write_text(json.dumps(episode))
        audit = (out / "audit.jsonl").read_bytes() if (out / "audit.jsonl").exists() else None
        capsys.readouterr()
        code = run(["route", "--config", str(cfg_path), "--out", str(out),
                    "--episode", str(probe)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("data error: ") and str(probe) in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert ((out / "audit.jsonl").read_bytes()
                if (out / "audit.jsonl").exists() else None) == audit

    @pytest.mark.parametrize("corrupt, named", [("garbage", "vocab.tsv, line 1"),
                                                ("not_utf8", "vocab.tsv: not UTF-8"),
                                                ("cut_short", "vocab.tsv: 20 tokens")])
    def test_malformed_vocab_exits_3(self, specialist_dir, tmp_path, capsys, corrupt, named):
        """route reads vocab.tsv, and decodes its specialists' suggestions with it;
        "cut_short" is what a write cut off at a line boundary leaves."""
        out, cfg_path, _ = specialist_dir
        shutil.copytree(out, tmp_path / "run")
        vocab = tmp_path / "run" / "vocab.tsv"
        if corrupt == "garbage":
            vocab.write_text("garbage\n")
        elif corrupt == "not_utf8":
            vocab.write_bytes(vocab.read_bytes() + b"\xff\xfe")
        else:
            vocab.write_text("".join(vocab.read_text().splitlines(keepends=True)[:20]))
        capsys.readouterr()
        code = run(["route", "--config", str(cfg_path), "--out", str(tmp_path / "run"),
                    "--episode", str(write_cardiac_probe(tmp_path / "ep.json"))])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("data error: ") and named in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "run" / "audit.jsonl").exists()

    def test_cohort_not_utf8_exits_3_naming_it(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "config.json")
        assert run_pipeline(tmp_path, cfg_path, upto="synth") == [EXIT_OK]
        with open(tmp_path / "cohort.jsonl", "ab") as fh:
            fh.write(b"\xff\xfe\n")
        capsys.readouterr()
        assert run(["tokenize", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "cohort.jsonl: not UTF-8" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_truncated_episode_exits_3(self, pipeline_dir, tmp_path, capsys):
        out, cfg_path = pipeline_dir
        ep_path = tmp_path / "ep.json"
        ep_path.write_text('{"episode_id": "x", "events": [')
        capsys.readouterr()
        code = run(["route", "--config", str(cfg_path), "--out", str(out),
                    "--episode", str(ep_path)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("data error: ") and "ep.json" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_config_hash_mismatch_exits_2(self, tmp_path):
        cfg_path = write_config(tmp_path / "config.json")
        run_pipeline(tmp_path, cfg_path, upto="featurize")
        other = write_config(tmp_path / "other.json", seed=99)
        code = run(["train-router", "--config", str(other), "--out", str(tmp_path)])
        assert code == EXIT_CONFIG

    def test_unmet_constraint_exits_4(self, tmp_path):
        # a signal-free cohort cannot reach life recall 0.98 on a TOP2-only grid
        cfg_path = write_config(
            tmp_path / "config.json",
            cohort={"counts": {"Cardiac": 15, "Pulmonary": 15, "Gastro": 60,
                               "Musculoskeletal": 10, "Psychogenic": 60},
                    "signal_strength": 0.0},
            grid=[[0.99, 0.01]],
        )
        codes = run_pipeline(tmp_path, cfg_path, upto="train-router")
        assert codes == [EXIT_OK] * 4
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run(["tune", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert code == EXIT_CONSTRAINT
        data = json.loads((tmp_path / "thresholds.json").read_text())
        assert not data["constraint_met"]


    @pytest.mark.parametrize("stage, override, key", [
        ("synth", {"k": 7}, "k = 7"),
        ("train-specialist", {"specialist": {"heads": 3}}, "specialist.heads"),
        ("train-specialist", {"specialist": {"heads": 0}}, "specialist.heads"),
        ("train-specialist", {"specialist": {"lora_rank": 100}}, "specialist.lora_rank"),
        ("train-specialist", {"specialist": {"lora_rank": -1}}, "specialist.lora_rank"),
        ("train-specialist", {"specialist": {"scope_cap": -5}}, "specialist.scope_cap"),
        ("featurize", {"svd_rank": 0}, "svd_rank"),
        ("featurize", {"svd_rank": -3}, "svd_rank"),
        ("train-specialist", {"specialist": {"epochs": 0}}, "specialist.epochs"),
        ("train-specialist", {"specialist": {"batch_size": 0}}, "specialist.batch_size"),
        ("train-specialist", {"specialist": {"d_model": 0}}, "specialist.d_model"),
        ("train-specialist", {"specialist": {"layers": -1}}, "specialist.layers"),
        ("train-specialist", {"specialist": {"peak_lr": -0.01}}, "specialist.peak_lr"),
    ])
    def test_invalid_config_value_exits_2_and_names_it(self, tmp_path, capsys, stage,
                                                       override, key):
        # earlier stages are built under a valid config: a bad value is refused
        # by every stage, since each loads the whole config
        if stage != "synth":
            base = write_config(tmp_path / "base.json")
            assert run_pipeline(tmp_path, base, upto="tokenize") == [EXIT_OK] * 2
        cfg_path = write_config(tmp_path / "config.json", **override)
        argv = [stage, "--config", str(cfg_path), "--out", str(tmp_path)]
        if stage == "train-specialist":
            argv += ["--domain", "Cardiac"]
        capsys.readouterr()
        code = run(argv)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: ") and key in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not list(tmp_path.glob("specialist_*.bin"))

    def test_min_count_above_every_token_count_exits_2_and_names_it(self, tmp_path, capsys):
        base = write_config(tmp_path / "base.json")
        assert run_pipeline(tmp_path, base, upto="synth") == [EXIT_OK]
        cfg_path = write_config(tmp_path / "config.json", min_count=100000)
        capsys.readouterr()
        code = run(["tokenize", "--config", str(cfg_path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: ") and "min_count" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "vocab.tsv").exists() and not (tmp_path / "tokens.bin").exists()

    def test_cohort_without_content_tokens_exits_3_naming_it(self, tmp_path, capsys):
        (tmp_path / "cohort.jsonl").write_text(json.dumps(
            {"episode_id": "e0", "events": [], "labels": ["Gastro"], "gold": "530.81"}) + "\n")
        cfg_path = write_config(tmp_path / "config.json")
        capsys.readouterr()
        code = run(["tokenize", "--config", str(cfg_path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("data error: ") and "cohort.jsonl" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "vocab.tsv").exists() and not (tmp_path / "tokens.bin").exists()

    @pytest.mark.parametrize("peak_lr", [1e6, 1e300])
    def test_exploding_specialist_exits_2_naming_peak_lr(self, tmp_path, capsys, peak_lr):
        # 1e6 ends with a finite dev loss whose perplexity overflows; 1e300
        # makes a training loss non-finite
        base = write_config(tmp_path / "base.json", cohort={"counts": None, "total": 95})
        assert run_pipeline(tmp_path, base, upto="tokenize") == [EXIT_OK] * 2
        cfg_path = write_config(tmp_path / "config.json", cohort={"counts": None, "total": 95},
                                specialist={"epochs": 1, "peak_lr": peak_lr})
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run(["train-specialist", "--domain", "Gastro", "--config", str(cfg_path),
                        "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: ") and "specialist.peak_lr" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not list(tmp_path.glob("specialist_*.bin"))

    def test_stale_specialist_is_refused_by_route_and_eval(self, pipeline_dir, tmp_path, capsys):
        out, cfg_path = pipeline_dir
        run_dir = tmp_path / "run"
        shutil.copytree(out, run_dir)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(["train-specialist", "--domain", "Gastro", "--config", str(cfg_path),
                        "--out", str(run_dir)]) == EXIT_OK
        other = write_config(tmp_path / "other.json", seed=8)
        assert run_pipeline(run_dir, other, upto="tune") == [EXIT_OK] * 5
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert "specialist_Gastro.bin" not in manifest["artifacts"]
        probe = write_cardiac_probe(tmp_path / "ep.json")
        probe.write_text(json.dumps({**json.loads(probe.read_text()), "danger": True}))
        for argv in (["route", "--episode", str(probe)], ["eval"]):
            capsys.readouterr()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = run([*argv, "--config", str(other), "--out", str(run_dir)])
            err = capsys.readouterr().err
            assert code == EXIT_CONFIG, argv[0]
            assert err.startswith("config error: ") and "specialist_Gastro.bin" in err
            assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("stage", ["route", "eval"])
    def test_specialist_of_another_vocabulary_size_exits_3(self, pipeline_dir, tmp_path,
                                                           capsys, stage):
        """A specialist trained before a re-tokenize grew vocab.tsv would score token
        ids it was never trained on; both stages that load it refuse it."""
        out, cfg_path = pipeline_dir
        run_dir = tmp_path / "run"
        shutil.copytree(out, run_dir)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(["train-specialist", "--domain", "Gastro", "--config", str(cfg_path),
                        "--out", str(run_dir)]) == EXIT_OK
        cohort = run_dir / "cohort.jsonl"
        episodes = [json.loads(line) for line in cohort.read_text().splitlines()]
        for ep in episodes:
            if "Gastro" in ep["labels"]:
                ep["events"] += [{"kind": "ORDER", "code": f"NEW{i}", "t_min": 900 + i}
                                 for i in range(5)]
        cohort.write_text("".join(json.dumps(ep) + "\n" for ep in episodes))
        n_vocab = len((run_dir / "vocab.tsv").read_text().splitlines())
        assert run(["tokenize", "--config", str(cfg_path), "--out", str(run_dir)]) == EXIT_OK
        assert len((run_dir / "vocab.tsv").read_text().splitlines()) == n_vocab + 5
        probe = write_cardiac_probe(tmp_path / "ep.json")  # danger: consults all five
        probe.write_text(json.dumps({**json.loads(probe.read_text()), "danger": True}))
        argv = ["route", "--episode", str(probe)] if stage == "route" else ["eval"]
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run([*argv, "--config", str(cfg_path), "--out", str(run_dir)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("data error: ")
        assert "specialist_Gastro.bin" in err and "vocab.tsv" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_foreign_feature_models_exit_2(self, pipeline_dir, tmp_path, capsys):
        out, cfg_path = pipeline_dir
        run_dir = tmp_path / "run"
        shutil.copytree(out, run_dir)
        other = write_config(tmp_path / "other.json", seed=99)
        assert run_pipeline(tmp_path / "other", other, upto="featurize") == [EXIT_OK] * 3
        shutil.copy(tmp_path / "other" / "feature_models.bin", run_dir / "feature_models.bin")
        argv = ["route", "--config", str(cfg_path), "--out", str(run_dir),
                "--episode", str(write_cardiac_probe(tmp_path / "ep.json"))]
        capsys.readouterr()
        code = run(argv)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: ") and "feature_models.bin" in err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestSpecialistScope:
    def test_eval_scores_the_test_part_of_the_capped_split(self, tmp_path, monkeypatch):
        """With scope_cap below Cardiac's 30 episodes, eval's test perplexity is
        taken over the test part of the capped pool that train-specialist split,
        and over no episode the specialist trained or early-stopped on."""
        import numpy as np

        from panelroute import cli
        from panelroute.router import SplitSpec, split
        from panelroute.specialist import SpecialistModel, perplexity

        cfg_path = write_config(tmp_path / "config.json",
                                specialist={"scope_cap": 20, "epochs": 1})
        assert run_pipeline(tmp_path, cfg_path, upto="tune") == [EXIT_OK] * 5
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(["train-specialist", "--domain", "Cardiac", "--config", str(cfg_path),
                        "--out", str(tmp_path)]) == EXIT_OK
        scored = []

        def recording_perplexity(model, sequences):
            scored.extend(tuple(s) for s in sequences)
            return perplexity(model, sequences)

        monkeypatch.setattr(cli, "perplexity", recording_perplexity)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(["eval", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_OK

        episodes, _ = cli._load_tokenized(tmp_path)
        pool = [ep for ep in episodes if cli.DomainLabel.CARDIAC in ep.labels]
        assert len(pool) == 30
        rng = np.random.default_rng(np.random.SeedSequence([7, 0x5C0]))
        capped = [pool[i] for i in sorted(rng.choice(len(pool), size=20, replace=False))]
        train_eps, dev_eps, test_eps = split(capped, SplitSpec(seed=7))
        test_seqs = [e.tokens for e in test_eps]
        assert scored == [tuple(s) for s in test_seqs]
        assert not set(scored) & {tuple(e.tokens) for e in train_eps + dev_eps}
        model = SpecialistModel.load(tmp_path / "specialist_Cardiac.bin")
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["specialists"]["Cardiac"]["test_ppl"] == perplexity(model, test_seqs)


@pytest.fixture(scope="module")
def specialist_dir(tmp_path_factory):
    """Every stage, synth through report, with a specialist per domain, and the
    number of times read_episodes_jsonl ran while they did."""
    from panelroute import cli, events

    out = tmp_path_factory.mktemp("specialists")
    cfg_path = write_config(out / "config.json", specialist={"epochs": 1})
    calls = []

    def counting_read(path):
        calls.append(path)
        return events.read_episodes_jsonl(path)

    stages = ["synth", "tokenize", "featurize", "train-router", "tune", "train-specialist",
              "eval", "report"]
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mp.setattr(cli, "read_episodes_jsonl", counting_read)
        codes = [run([stage, "--config", str(cfg_path), "--out", str(out)]) for stage in stages]
    assert codes == [EXIT_OK] * len(stages)
    return out, cfg_path, calls


# Each bundle kind: its layout, the stamp its writer adds, and a stage that reads it.
BUNDLES = {
    "tokens.bin": (TOKENS, "inputs", "featurize"),
    "features.bin": (FEATURES, "config_hash", "eval"),
    "feature_models.bin": (features.LAYOUT, "config_hash", "route"),
    "router.bin": (router.LAYOUT, "config_hash", "tune"),
    "specialist_Gastro.bin": (specialist.LAYOUT, "config_hash", "eval"),
}


def declared_arrays(layout, meta) -> dict:
    return layout.arrays(meta) if callable(layout.arrays) else layout.arrays


def load_with_layout(run_dir, name):
    """Read a bundle through its loader; tokens.bin's reports a DataError, and
    features.bin's x_test is read against the width router.bin scores, as eval does."""
    path = run_dir / name
    if name == "tokens.bin":
        return cli._load_tokenized(run_dir)
    if name == "features.bin":
        _, table = load_bundle(path, FEATURES)
        return RouterModel.load(run_dir / "router.bin", (table["x_test"].shape[1], str(path)))
    if name == "router.bin":
        return RouterModel.load(path, load_bundle(run_dir / "features.bin")[1]["x_test"].shape[1])
    if name.startswith("specialist_"):
        return SpecialistModel.load(path)
    if name == "feature_models.bin":
        return load_feature_models(path)
    return load_bundle(path, FEATURES)


def stage_argv(stage, cfg_path, run_dir, tmp_path):
    argv = [stage, "--config", str(cfg_path), "--out", str(run_dir)]
    if stage == "route":
        argv += ["--episode", str(write_cardiac_probe(tmp_path / "ep.json"))]
    return argv


def cut(key, index):
    return lambda meta, arrays: arrays.update({key: arrays[key][index]})


def retype(key, dtype, scale=1):
    return lambda meta, arrays: arrays.update({key: arrays[key].astype(dtype) * scale})


class TestBundleLayouts:
    @pytest.mark.parametrize("stage, name, part, key, edit", [
        ("train-router", "feature_models.bin", "array", "tfidf_idf", cut("tfidf_idf", np.s_[:-5])),
        ("eval", "features.bin", "array", "y_test", cut("y_test", np.s_[:, :4])),
        ("eval", "features.bin", "array", "w_test", cut("w_test", np.s_[:-3])),
        ("eval", "features.bin", "array", "x_test", cut("x_test", np.s_[:, :10])),
        ("tune", "feature_models.bin", "array", "svd_components",
         cut("svd_components", np.s_[:-5])),
        ("eval", "features.bin", "array", "x_test", retype("x_test", np.int8)),
        ("train-router", "tokens.bin", "array", "ids", retype("ids", np.float64)),
        ("route", "feature_models.bin", "array", "tfidf_idf", cut("tfidf_idf", np.s_[:-5])),
        ("route", "feature_models.bin", "array", "svd_components",
         cut("svd_components", np.s_[:, :-5])),
        ("route", "feature_models.bin", "meta key", "tfidf.terms",
         lambda meta, arrays: meta["tfidf"].update(terms=5)),
        ("route", "feature_models.bin", "array", "svd_components",
         cut("svd_components", np.s_[:-5])),
        ("tune", "router.bin", "array", "head_weights", retype("head_weights", np.int64)),
        ("eval", "specialist_Gastro.bin", "array", "tok_emb", retype("tok_emb", np.int8)),
        ("eval", "specialist_Gastro.bin", "array", "tok_emb", retype("tok_emb", np.float32)),
        ("eval", "specialist_Gastro.bin", "meta key", "lora_rank",
         lambda meta, arrays: meta.update(lora_rank="x")),
        ("eval", "specialist_Gastro.bin", "array", "lora.l0.wq.A",
         lambda meta, arrays: (meta.update(lora_rank=2), arrays.update(
             {"lora.l0.wq.A": np.zeros((3, 7)), "lora.l0.wq.B": np.zeros((2, 9))}))),
        ("eval", "specialist_Gastro.bin", "array", "lora.nope.A",
         lambda meta, arrays: arrays.update(
             {"lora.nope.A": np.zeros((64, 2)), "lora.nope.B": np.zeros((2, 64))})),
        ("eval", "specialist_Gastro.bin", "array", "junk",
         lambda meta, arrays: arrays.update(junk=np.zeros(3))),
        ("featurize", "tokens.bin", "array", "ids", retype("ids", np.float64)),
        ("featurize", "tokens.bin", "array", "labels", retype("labels", np.int64, 3)),
        ("tune", "router.bin", "array", "head_weights", cut("head_weights", np.s_[:, :59])),
        ("eval", "router.bin", "array", "head_weights", cut("head_weights", np.s_[:, :59])),
        ("route", "router.bin", "array", "head_weights", cut("head_weights", np.s_[:, :59])),
        ("eval", "specialist_Gastro.bin", "meta key", "domain", "specialist_Cardiac.bin"),
        ("route", "specialist_Cardiac.bin", "meta key", "domain", "specialist_Gastro.bin"),
    ])
    def test_bundle_off_its_layout_exits_3_naming_file_and_key(
            self, specialist_dir, tmp_path, capsys, stage, name, part, key, edit):
        """A bundle re-saved with one edit, or a specialist copied over another
        domain's, is refused by the stage that reads it."""
        out, cfg_path, _ = specialist_dir
        run_dir = tmp_path / "run"
        shutil.copytree(out, run_dir)
        if isinstance(edit, str):
            shutil.copy(run_dir / edit, run_dir / name)
        else:
            meta, arrays = load_bundle(run_dir / name)
            edit(meta, arrays)
            save_bundle(run_dir / name, meta, arrays)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(stage_argv(stage, cfg_path, run_dir, tmp_path)) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and name in err and f"{part} {key!r}" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_an_empty_split_is_stored_in_its_declared_shape(self, tmp_path, capsys):
        """Two episodes per domain leave the test split empty: its y is
        (0, 5), and train-router and tune build their tables as at any size.
        eval cannot evaluate it, and exits 2 naming the key that sized the
        cohort, without a traceback."""
        cfg_path = write_config(tmp_path / "config.json", cohort={"counts": dict.fromkeys(
            ("Cardiac", "Pulmonary", "Gastro", "Musculoskeletal", "Psychogenic"), 2)})
        assert run_pipeline(tmp_path, cfg_path, upto="tune") == [EXIT_OK] * 5
        _, arrays = load_bundle(tmp_path / "features.bin", FEATURES)
        assert arrays["y_test"].shape == (0, 5) and arrays["x_test"].shape[0] == 0
        capsys.readouterr()
        assert run(["eval", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: cohort.counts = ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    def test_readme_names_every_declared_key(self):
        """README's module bullets name every meta key and array of every
        layout; a split, a layer and an adapted weight are written as <split>,
        l<i> and <name>."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        bullets = "\n".join(line for line in readme.splitlines()
                            if line.startswith("- `src/panelroute/"))
        lora_meta = {"config": dataclasses.asdict(SpecialistConfig(vocab_size=5, layers=1)),
                     "lora_rank": 1}
        keys = set()
        for layout, _, _ in BUNDLES.values():
            keys |= {part for key in layout.meta for part in key.split(".")}
            for name in declared_arrays(layout, lora_meta):
                name = re.sub(r"_(train|dev|test)$", "_<split>", name)
                name = re.sub(r"^lora\.l\d+\.\w+\.", "lora.<name>.", name)
                keys.add(re.sub(r"^l\d+\.", "l<i>.", name))
        assert {"x_<split>", "l<i>.wq", "lora.<name>.A", "terms", "vocab_size", "offsets"} <= keys
        assert [key for key in sorted(keys) if f"`{key}`" not in bullets] == []

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(BUNDLES)), st.data())
    def test_any_edit_off_the_layout_is_refused(self, specialist_dir, tmp_path_factory, name,
                                                data):
        """Drop a declared key, retype a declared meta value, resize or retype a
        declared array, or add an array: the loader raises and the stage exits 3."""
        out, cfg_path, _ = specialist_dir
        run_dir = tmp_path_factory.mktemp("run")
        shutil.copytree(out, run_dir, dirs_exist_ok=True)
        layout, _, stage = BUNDLES[name]
        meta, arrays = load_bundle(run_dir / name)
        arrays = dict(arrays)
        shapes = declared_arrays(layout, meta)
        paths = sorted({("kind",), *(tuple(key.split(".")) for key in layout.meta),
                        *((key.split(".")[0],) for key in layout.meta)})
        edit = data.draw(st.sampled_from(["drop", "retype_meta", "resize", "dtype", "add"]))
        if edit == "drop":
            key = data.draw(st.sampled_from(paths + sorted(shapes)))
            if isinstance(key, tuple):
                parent = meta[key[0]] if len(key) == 2 else meta
                del parent[key[-1]]
            else:
                del arrays[key]
        elif edit == "retype_meta":
            key = data.draw(st.sampled_from(paths))
            parent = meta[key[0]] if len(key) == 2 else meta
            want = layout.meta.get(".".join(key))
            allowed = (() if want is None or want[1]
                       else (int, float) if want[0] is float else (want[0],))
            parent[key[-1]] = data.draw(st.sampled_from(
                [v for v in ("x", 5, 2.5, None, True, {}) if type(v) not in allowed]))
        elif edit == "resize":
            key = data.draw(st.sampled_from(sorted(shapes)))
            arr = arrays[key]
            axis = data.draw(st.integers(0, arr.ndim - 1))
            size = data.draw(st.integers(0, arr.shape[axis] + 3).filter(
                lambda n: n != arr.shape[axis]))
            new_shape = list(arr.shape)
            new_shape[axis] = size
            arrays[key] = np.resize(arr, new_shape)
        elif edit == "dtype":
            key = data.draw(st.sampled_from(sorted(shapes)))
            dtype = data.draw(st.sampled_from(
                [t for t in (np.int8, np.uint16, np.int64, np.float32, np.float64, np.bool_)
                 if not issubclass(t, shapes[key][0])]))
            arrays[key] = arrays[key].astype(dtype)
        else:
            arrays[data.draw(st.sampled_from(["junk", "lora.l0.wq.A", "x_extra"]))] = np.zeros(2)
        save_bundle(run_dir / name, meta, arrays)
        with pytest.raises(DataError if name == "tokens.bin" else BundleError):
            load_with_layout(run_dir, name)
        with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()) as err:
            warnings.simplefilter("ignore")
            code = run(stage_argv(stage, cfg_path, run_dir, run_dir))
        assert code == EXIT_DATA, err.getvalue()
        assert name in err.getvalue()


class TestTokenBundle:
    def test_the_cohort_is_parsed_once_per_build(self, specialist_dir):
        out, _, calls = specialist_dir
        assert calls == [out / "cohort.jsonl"]
        assert set(json.loads((out / "report.json").read_text())["specialists"]) == {
            "Cardiac", "Pulmonary", "Gastro", "Musculoskeletal", "Psychogenic"}

    def test_report_states_each_specialists_unigram_baseline(self, specialist_dir):
        """unigram_ppl is exp of the entropy of the test split's target tokens."""
        from panelroute import cli

        out, cfg_path, _ = specialist_dir
        cfg = cli.load_config(build_parser().parse_args(["eval", "--config", str(cfg_path)]))
        episodes, _ = cli._load_tokenized(out)
        report = json.loads((out / "report.json").read_text())["specialists"]
        for domain in cli.DOMAINS:
            _, _, test_eps = cli._specialist_split(episodes, cfg, domain)
            counts = collections.Counter(t for e in test_eps for t in e.tokens[1:])
            total = sum(counts.values())
            entropy = -sum(c / total * np.log(c / total) for c in counts.values())
            assert report[domain.value]["unigram_ppl"] == pytest.approx(np.exp(entropy),
                                                                        rel=1e-12)

    def test_ids_are_narrow_and_stamped_with_their_inputs(self, specialist_dir):
        out, _, _ = specialist_dir
        meta, arrays = load_bundle(out / "tokens.bin", TOKENS)
        assert arrays["ids"].dtype == np.uint8
        assert meta["inputs"] == {"cohort.jsonl": sha256_file(out / "cohort.jsonl"),
                                  "vocab.tsv": sha256_file(out / "vocab.tsv")}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"]["tokens.bin"] == sha256_file(out / "tokens.bin")

    @pytest.mark.parametrize("corrupt", ["truncated", "wrong_kind", "last_offset",
                                         "id_past_vocab"])
    def test_bad_tokens_bin_exits_3_naming_it(self, specialist_dir, tmp_path, capsys, corrupt):
        out, cfg_path, _ = specialist_dir
        run_dir = tmp_path / "run"
        shutil.copytree(out, run_dir)
        path = run_dir / "tokens.bin"
        if corrupt == "truncated":
            path.write_bytes(path.read_bytes()[:-100])
        elif corrupt == "wrong_kind":
            shutil.copy(run_dir / "features.bin", path)
        else:
            meta, arrays = load_bundle(path)
            arrays = {k: v.copy() for k, v in arrays.items()}
            if corrupt == "last_offset":
                arrays["offsets"][-1] -= 1
            else:
                arrays["ids"][5] = 250
            save_bundle(path, meta, arrays)
        capsys.readouterr()
        code = run(["train-specialist", "--domain", "Gastro", "--config", str(cfg_path),
                    "--out", str(run_dir)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("data error: ") and "tokens.bin" in err and "tokenize" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_vocab_rewritten_after_tokenize_makes_eval_exit_3(self, specialist_dir, tmp_path,
                                                              capsys):
        out, cfg_path, _ = specialist_dir
        run_dir = tmp_path / "run"
        shutil.copytree(out, run_dir)
        vocab = run_dir / "vocab.tsv"
        lines = vocab.read_text().splitlines()
        sid, tok, cnt = lines[-1].split("\t")
        vocab.write_text("\n".join([*lines[:-1], f"{sid}\t{tok}\t{int(cnt) + 1}"]) + "\n")
        capsys.readouterr()
        code = run(["eval", "--config", str(cfg_path), "--out", str(run_dir)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("data error: ") and "tokens.bin" in err and "tokenize" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_eval_without_specialists_reads_no_tokens(self, pipeline_dir, tmp_path):
        out, cfg_path = pipeline_dir
        run_dir = tmp_path / "run"
        shutil.copytree(out, run_dir)
        (run_dir / "tokens.bin").unlink()
        (run_dir / "cohort.jsonl").unlink()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(["eval", "--config", str(cfg_path), "--out", str(run_dir)]) == EXIT_OK
        assert "specialists" not in json.loads((run_dir / "report.json").read_text())

    @settings(max_examples=25, deadline=None)
    @given(cohort=st.lists(st.tuples(
        st.lists(st.tuples(st.sampled_from(["DIAG", "LAB", "ORDER"]),
                           st.sampled_from(["A", "B", "410.71"]), st.integers(0, 900)),
                 max_size=10),
        st.sampled_from([0, 0, 520]),  # extra orders: past 510 the oldest tokens are cut
        st.sampled_from(["", "A", "410.71"]),
        st.sets(st.sampled_from(["Cardiac", "Gastro", "Psychogenic"])),
        st.booleans(),
        st.sampled_from([None, [5.0, 61.5]])), min_size=1, max_size=5),
        min_count=st.integers(1, 3))
    def test_token_ids_are_the_tokenizers(self, cohort, min_count):
        from panelroute import cli
        from panelroute.events import (SENTINELS, Vocabulary, episode_from_dict,
                                       read_episodes_jsonl, render_episode_tokens,
                                       tokenize_episode)

        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            with open(out / "cohort.jsonl", "w", encoding="utf-8") as fh:
                for i, (evs, extra, gold, labels, danger, feats) in enumerate(cohort):
                    events = [{"kind": k, "code": c, "t_min": t, **({"bin": "HIGH"} if k == "LAB"
                                                                   else {})}
                              for k, c, t in evs]
                    events += [{"kind": "ORDER", "code": f"O{j % 7}", "t_min": 1000 + j}
                               for j in range(extra)]
                    line = {"episode_id": f"e{i}", "events": events, "labels": sorted(labels),
                            "gold": gold, "danger": danger}
                    if feats:  # a key older cohorts carry; it is read and ignored
                        line["time_feats"] = feats
                    fh.write(json.dumps(line) + "\n")
            (out / "config.json").write_text(json.dumps({"min_count": min_count}))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = run(["tokenize", "--config", str(out / "config.json"), "--out", tmp])
            counts = collections.Counter(
                tok for ep in read_episodes_jsonl(out / "cohort.jsonl")
                for tok in render_episode_tokens(ep.events, ep.gold_diag_code)
                if tok not in SENTINELS)
            if not counts:
                # no content token at all: the cohort is at fault
                assert code == EXIT_DATA and not (out / "vocab.tsv").exists()
                return
            if max(counts.values()) < min_count:
                # no token reaches min_count: refused, not a vocabulary of sentinels
                assert code == EXIT_CONFIG and not (out / "vocab.tsv").exists()
                return
            assert code == EXIT_OK
            meta, arrays = load_bundle(out / "tokens.bin", TOKENS)
            vocab = Vocabulary.load(out / "vocab.tsv")
            expected = [tokenize_episode(ep, vocab) for ep in read_episodes_jsonl(
                out / "cohort.jsonl")]
            off = arrays["offsets"]
            assert [arrays["ids"][a:b].tolist() for a, b in zip(off, off[1:])] == [
                ep.tokens for ep in expected]
            got, _ = cli._load_tokenized(out)
            assert [(g.episode_id, g.tokens, set(g.labels), g.danger) for g in got] == [
                (e.episode_id, e.tokens, set(e.labels), e.danger) for e in expected]


class TestReproducibility:
    def test_seed_7_pipeline_twice_identical_manifests(self, tmp_path):
        manifests = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            out.mkdir()
            cfg_path = write_config(out / "config.json")
            run_pipeline(out, cfg_path)
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]

    def test_blas_threads_default_to_one_in_a_cli_process(self, tmp_path):
        """With OPENBLAS_NUM_THREADS and OMP_NUM_THREADS unset, featurize and
        train-router write the bytes of a run pinned to one thread. At the
        default pool (one thread per core) they differ on a multi-core machine."""
        cfg_path = write_config(tmp_path / "config.json")
        assert run_pipeline(tmp_path / "base", cfg_path, upto="tokenize") == [EXIT_OK] * 2
        unset = {k: v for k, v in src_env().items()
                 if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        written = {}
        for name, env in (("unset", unset),
                          ("pinned", dict(unset, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"))):
            out = tmp_path / name
            shutil.copytree(tmp_path / "base", out)
            for stage in ("featurize", "train-router"):
                proc = subprocess.run(
                    [sys.executable, "-m", "panelroute.cli", stage, "--config", str(cfg_path),
                     "--out", str(out)], env=env, capture_output=True, text=True, timeout=300,
                    check=False)
                assert proc.returncode == EXIT_OK, proc.stderr
            written[name] = {f: (out / f).read_bytes()
                             for f in ("feature_models.bin", "features.bin", "router.bin")}
        assert written["unset"] == written["pinned"]


def nested(key, value):
    """A config override setting one dotted key."""
    section, _, leaf = key.rpartition(".")
    return {section: {leaf: value}} if section else {leaf: value}


def values_out_of_bounds():
    """(key, value) for a value just below each least and just above each
    greatest value in the schema."""
    for key, row in _SCHEMA.items():
        step = 1 if (row.kind or type(row.default)) is int else 1e-3
        if row.low is not None:
            yield key, row.low - step
        if row.high is not None:
            yield key, row.high + step


class TestConfigSchema:
    def test_default_config_hash_is_unchanged(self):
        # every artifact's stamp is this hash under the default config
        assert config_hash(DEFAULT_CONFIG) == (
            "84203868aaff8213b9b3f9352d24ed155f37a84d83efd8bdbaf9c31a6c606ecd")

    @pytest.mark.parametrize("key, value", list(values_out_of_bounds()))
    def test_value_out_of_bounds_exits_2_and_names_it(self, tmp_path, capsys, key, value):
        (tmp_path / "config.json").write_text(json.dumps(nested(key, value)))
        capsys.readouterr()
        assert run(["synth", "--total", "20", "--config", str(tmp_path / "config.json"),
                    "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must be ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "cohort.jsonl").exists()

    @pytest.mark.parametrize("key", [k for k, row in _SCHEMA.items() if row.default is None])
    def test_null_default_key_accepts_null(self, tmp_path, key):
        (tmp_path / "config.json").write_text(json.dumps(nested(key, None)))
        assert run(["synth", "--total", "20", "--config", str(tmp_path / "config.json"),
                    "--out", str(tmp_path)]) == EXIT_OK

    def test_every_key_is_read_by_a_stage(self):
        # a key that no stage reads is a switch that changes nothing but the hash
        import ast

        from panelroute import cli

        tree = ast.parse(Path(cli.__file__).read_text())
        schema = next(node for node in ast.walk(tree) if isinstance(node, ast.Assign)
                      and any(getattr(t, "id", None) == "_SCHEMA" for t in node.targets))
        inside = {id(node) for node in ast.walk(schema)}
        read = {node.slice.value for node in ast.walk(tree)
                if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                and id(node) not in inside and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)}
        assert [key for key in _SCHEMA if key.rpartition(".")[2] not in read] == []

    def test_readme_names_every_bounded_or_ruled_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        paragraph = readme[readme.index("Config is a single JSON file"):]
        paragraph = paragraph[:paragraph.index("\n\n")]
        checked = [key for key, row in _SCHEMA.items()
                   if (row.low, row.high) != (None, None) or row.rule is not None]
        assert {"seed", "grid", "specialist.peak_lr"} <= set(checked)
        assert [key for key in checked if f"`{key}`" not in paragraph] == []


class TestEntryPoints:
    def test_flags_leave_defaults_untouched(self, tmp_path):
        before = copy.deepcopy(DEFAULT_CONFIG)
        assert run(["synth", "--total", "50", "--out", str(tmp_path)]) == EXIT_OK
        assert run(["synth", "--mixture", "0.2,0.2,0.2,0.2,0.2", "--total", "30",
                    "--out", str(tmp_path)]) == EXIT_OK
        assert DEFAULT_CONFIG == before

    def test_counts_flag_replaces_the_file_counts(self, tmp_path):
        cfg_path = write_config(tmp_path / "config.json")
        assert run(["synth", "--config", str(cfg_path), "--counts", '{"Gastro": 12}',
                    "--out", str(tmp_path)]) == EXIT_OK
        assert len((tmp_path / "cohort.jsonl").read_text().splitlines()) == 12

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "panelroute.cli", "synth", "--total", "20", "--out", str(tmp_path)],
            env=src_env(), capture_output=True, text=True, timeout=300, check=False)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (tmp_path / "cohort.jsonl").exists()

    def test_cached_parser_leaks_no_values_between_runs(self, tmp_path):
        assert build_parser() is build_parser()
        hashes = []
        for name, seed in (("a", ["--seed", "3"]), ("b", [])):
            assert run(["synth", *seed, "--total", "30", "--out", str(tmp_path / name)]) == EXIT_OK
            hashes.append(json.loads((tmp_path / name / "manifest.json").read_text())["config_hash"])
        assert hashes[0] != hashes[1]

    @pytest.fixture(scope="class")
    def panel_dir(self, pipeline_dir, tmp_path_factory):
        """pipeline_dir with a Cardiac specialist, evaluated again with it, and
        the probe episode that routes to Cardiac."""
        out, cfg_path = pipeline_dir
        panel = tmp_path_factory.mktemp("panel") / "run"
        shutil.copytree(out, panel)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for stage in (["train-specialist", "--domain", "Cardiac"], ["eval"], ["report"]):
                assert run([*stage, "--config", str(cfg_path), "--out", str(panel)]) == EXIT_OK
        return panel, cfg_path, write_cardiac_probe(panel.parent / "ep.json")

    # stage -> (extra arguments, the artifacts it writes)
    STAGES = {
        "synth": ([], ["cohort.jsonl"]),
        "tokenize": ([], ["vocab.tsv", "tokens.bin"]),
        "featurize": ([], ["feature_models.bin", "features.bin"]),
        "train-router": ([], ["router.bin"]),
        "tune": ([], ["thresholds.json", "frontier.csv"]),
        "train-specialist": (["--domain", "Cardiac"],
                             ["specialist_Cardiac.bin", "curve_Cardiac.csv"]),
        "eval": ([], ["report.json", "report.csv"]),
        "report": ([], ["anytime.csv"]),
        "route": (["--episode", "PROBE"], []),
    }

    @pytest.mark.parametrize("stage", list(STAGES))
    def test_stage_process_imports_no_scipy(self, panel_dir, tmp_path, stage):
        """Each stage, run again in a new process on a built panel, imports no
        scipy module and rewrites its artifacts byte for byte."""
        panel, cfg_path, probe = panel_dir
        shutil.copytree(panel, tmp_path / "run")
        extra, artifacts = self.STAGES[stage]
        argv = [stage, "--config", str(cfg_path), "--out", str(tmp_path / "run"),
                *[str(probe) if a == "PROBE" else a for a in extra]]
        script = (
            "import sys, warnings, panelroute.cli\n"
            "warnings.simplefilter('ignore')\n"
            f"code = panelroute.cli.run({argv!r})\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=src_env(),
                              capture_output=True, text=True, timeout=300, check=False)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"
        for name in artifacts:
            assert (tmp_path / "run" / name).read_bytes() == (panel / name).read_bytes(), name
        if stage == "route":
            assert '"suggestions"' in proc.stdout  # the Cardiac specialist was consulted

    def test_importing_the_cli_loads_no_scipy(self):
        script = ("import sys, panelroute.cli\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        proc = subprocess.run([sys.executable, "-c", script], env=src_env(),
                              capture_output=True, text=True, timeout=300, check=False)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.strip() == "[]"
