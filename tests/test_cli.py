import copy
import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import panelroute
from panelroute.cli import (
    DEFAULT_CONFIG,
    EXIT_CONFIG,
    EXIT_CONSTRAINT,
    EXIT_DATA,
    EXIT_OK,
    build_parser,
    run,
)
from panelroute.cohort import default_grammars, save_grammars
from panelroute.serial import load_bundle, sha256_file


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
        assert "config_hash" not in meta["config"]

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

    def test_consult_all_policy_reports_five_experts(self, pipeline_dir, capsys):
        out, cfg_path = pipeline_dir
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run(["eval", "--config", str(cfg_path), "--out", str(out),
                        "--policy", "consult-all"])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["policy"]["expected_experts"] == 5.0
        assert report["policy"]["recall_all"] == 1.0
        # restore the learned-policy report for other tests
        run_pipeline(out, cfg_path, upto="report")

    def test_route_high_confidence_cardiac_episode(self, pipeline_dir, capsys, tmp_path):
        out, cfg_path = pipeline_dir
        ep_path = write_cardiac_probe(tmp_path / "ep.json")
        code = run(["route", "--config", str(cfg_path), "--out", str(out),
                    "--episode", str(ep_path)])
        captured = capsys.readouterr().out
        assert code == EXIT_OK
        payload = json.loads(captured[captured.index("{"):])
        assert payload["branch"] == "TOP1_LIFE"
        assert payload["route"] == ["Cardiac"]
        audit = (out / "audit.jsonl").read_text().strip().split("\n")
        assert json.loads(audit[-1])["episode_id"] == "probe"


class TestErrorPaths:
    def test_invalid_config_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["synth", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("cfg, key", [
        ({"svd_rnak": 32}, "svd_rnak"),
        ({"specialist": {"epoch": 3}}, "specialist.epoch"),
        ({"cohort": {"total": 50, "dangr_rate": 0.1}}, "cohort.dangr_rate"),
    ])
    def test_unknown_config_key_exits_2_and_names_it(self, tmp_path, capsys, cfg, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run(["synth", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "cohort.jsonl").exists()

    def test_missing_artifact_exits_3(self, tmp_path):
        assert run(["tokenize", "--out", str(tmp_path)]) == EXIT_DATA

    @pytest.mark.parametrize("corrupt", ["truncated", "wrong_kind"])
    def test_bad_router_checkpoint_exits_3(self, pipeline_dir, tmp_path, capsys, corrupt):
        out, cfg_path = pipeline_dir
        shutil.copytree(out, tmp_path / "run")
        router = tmp_path / "run" / "router.bin"
        if corrupt == "truncated":
            raw = router.read_bytes()
            router.write_bytes(raw[: len(raw) // 2])
        else:
            shutil.copy(tmp_path / "run" / "feature_models.bin", router)
        capsys.readouterr()
        code = run(["route", "--config", str(cfg_path), "--out", str(tmp_path / "run"),
                    "--episode", str(write_cardiac_probe(tmp_path / "ep.json"))])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("data error: ") and "router.bin" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("stage, name, corrupt, code", [
        ("route", "thresholds.json", "truncated", EXIT_DATA),
        ("route", "thresholds.json", "unstamped", EXIT_CONFIG),
        ("report", "report.json", "truncated", EXIT_DATA),
        ("tune", "manifest.json", "truncated", EXIT_DATA),
        ("route", "timings.json", "open_brace", EXIT_DATA),
        ("tune", "features.bin", "wrong_kind", EXIT_DATA),
    ])
    def test_unreadable_artifact_exits_with_one_line_naming_it(
            self, pipeline_dir, tmp_path, capsys, stage, name, corrupt, code):
        out, cfg_path = pipeline_dir
        run_dir = tmp_path / "run"
        shutil.copytree(out, run_dir)
        path = run_dir / name
        if corrupt == "truncated":
            path.write_bytes(path.read_bytes()[:40])
        elif corrupt == "unstamped":
            data = json.loads(path.read_text())
            del data["config_hash"]
            path.write_text(json.dumps(data))
        elif corrupt == "open_brace":
            path.write_text("{")
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
        assert name in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("corrupt", ["truncated", "bad_kind", "missing_key"])
    def test_malformed_cohort_line_exits_3_naming_the_line(self, tmp_path, capsys, corrupt):
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
            else:
                del rec["episode_id"]
            lines[4] = json.dumps(rec)
            cohort.write_text("\n".join(lines) + "\n")
            lineno = 5
        capsys.readouterr()
        assert run(["featurize", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_DATA
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
        else:
            cohort["mixture"] = [0.5] * 5
        cfg_path = write_config(tmp_path / "config.json", cohort=cohort)
        capsys.readouterr()
        assert run(["synth", "--config", str(cfg_path), "--out", str(tmp_path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
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

    def test_malformed_vocab_exits_3(self, pipeline_dir, tmp_path, capsys):
        out, cfg_path = pipeline_dir
        shutil.copytree(out, tmp_path / "run")
        (tmp_path / "run" / "vocab.tsv").write_text("garbage\n")
        capsys.readouterr()
        code = run(["route", "--config", str(cfg_path), "--out", str(tmp_path / "run"),
                    "--episode", str(write_cardiac_probe(tmp_path / "ep.json"))])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err.startswith("data error: ") and "vocab.tsv, line 1" in err
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
            calibrate=False,
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
    ])
    def test_invalid_config_value_exits_2_and_names_it(self, tmp_path, capsys, stage,
                                                       override, key):
        cfg_path = write_config(tmp_path / "config.json", **override)
        if stage == "train-specialist":
            assert run_pipeline(tmp_path, cfg_path, upto="tokenize") == [EXIT_OK] * 2
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

    @pytest.mark.parametrize("stage", ["train-router", "route"])
    def test_foreign_feature_models_exit_2(self, pipeline_dir, tmp_path, capsys, stage):
        out, cfg_path = pipeline_dir
        run_dir = tmp_path / "run"
        shutil.copytree(out, run_dir)
        other = write_config(tmp_path / "other.json", seed=99)
        assert run_pipeline(tmp_path / "other", other, upto="featurize") == [EXIT_OK] * 3
        shutil.copy(tmp_path / "other" / "feature_models.bin", run_dir / "feature_models.bin")
        argv = [stage, "--config", str(cfg_path), "--out", str(run_dir)]
        if stage == "route":
            argv += ["--episode", str(write_cardiac_probe(tmp_path / "ep.json"))]
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

        episodes, _ = cli._load_tokenized(tmp_path, {})
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


class TestEntryPoints:
    def test_flags_leave_defaults_untouched(self, tmp_path):
        before = copy.deepcopy(DEFAULT_CONFIG)
        assert run(["synth", "--total", "50", "--out", str(tmp_path)]) == EXIT_OK
        assert run(["synth", "--mixture", "0.2,0.2,0.2,0.2,0.2", "--total", "30",
                    "--out", str(tmp_path)]) == EXIT_OK
        assert DEFAULT_CONFIG == before

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

    def test_route_process_imports_no_fitting_code(self, pipeline_dir, tmp_path):
        out, cfg_path = pipeline_dir
        shutil.copytree(out, tmp_path / "run")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(["train-specialist", "--domain", "Cardiac", "--config", str(cfg_path),
                        "--out", str(tmp_path / "run")]) == EXIT_OK
        probe = write_cardiac_probe(tmp_path / "ep.json")
        script = (
            "import sys, panelroute.cli\n"
            f"code = panelroute.cli.run(['route', '--config', {str(cfg_path)!r}, "
            f"'--out', {str(tmp_path / 'run')!r}, '--episode', {str(probe)!r}])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=src_env(),
                              capture_output=True, text=True, timeout=300, check=False)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert '"suggestions"' in proc.stdout  # the Cardiac specialist was consulted
        assert proc.stdout.strip().splitlines()[-1] == "[]"

    def test_importing_the_cli_loads_no_scipy(self):
        script = ("import sys, panelroute.cli\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        proc = subprocess.run([sys.executable, "-c", script], env=src_env(),
                              capture_output=True, text=True, timeout=300, check=False)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.strip() == "[]"
