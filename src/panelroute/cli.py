"""Command-line orchestration of the full pipeline.

Subcommands: synth, tokenize, featurize, train-router, tune, train-specialist,
eval, route, report. One config file plus flag overrides (flags win). Stages
stamp the artifacts later stages read back with the config hash and refuse one
built under another config; cohort.jsonl and vocab.tsv carry no stamp yet.

Exit codes: 0 ok, 2 config error, 3 data error (missing, truncated or corrupt
artifact), 4 tuner constraint unmet (fallback point selected, outputs still
written).
"""

import argparse
import copy
import functools
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, metrics, policy
from .cohort import (
    CohortConfig,
    CohortConfigError,
    default_grammars,
    generate_cohort,
    ingest,
    load_grammars,
    proportional_sample,
)
from .events import (
    DOMAINS,
    DomainLabel,
    SchemaError,
    Vocabulary,
    episode_from_dict,
    read_episodes_jsonl,
    tokenize_episode,
    write_episodes_jsonl,
)
from .features import expand_prefixes, featurize_rows, load_feature_models, save_feature_models
from .pipeline import (
    RouterDatasets,
    RouterTrainConfig,
    prepare_router_datasets,
    evaluate,
    train_router,
    prob_rows_for,
)
from .policy import AuditLog, AuditRecord, Thresholds, arbitrate, tune_thresholds, write_frontier_csv
from .router import RouterModel, SplitSpec, split
from .serial import BundleError, load_bundle, save_bundle, sha256_file, sha256_obj, write_json
from .specialist import (
    SpecialistConfig,
    SpecialistError,
    SpecialistModel,
    TrainConfig,
    perplexity,
    train,
    write_curve_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CONSTRAINT = 4


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


DEFAULT_CONFIG = {
    "seed": 0,
    "k": 5,
    "cohort": {
        "total": 2000,
        "counts": None,
        "mixture": [0.082, 0.228, 0.326, 0.038, 0.326],
        "multi_label_rate": 0.0,
        "danger_rate": 0.0,
        "signal_strength": None,
        "grammar_file": None,
        "sample_target": 0,
    },
    "min_count": 1,
    "use_time": False,
    "use_prefix_weights": True,
    "calibrate": True,
    "restrict_top1_to_life": True,
    "life_guard_tau": None,
    "svd_rank": 256,
    "grid": None,
    "constraint": 0.98,
    "latency": {"l_router": 10.0, "l_expert": 50.0},
    "specialist": {
        "layers": 2,
        "d_model": 64,
        "heads": 2,
        "epochs": 5,
        "batch_size": 16,
        "peak_lr": 1e-3,
        "scope_cap": 0,
        "lora_rank": 0,
        "lora_alpha": 8.0,
    },
}


# JSON types a value may take, by the type of its default; a key whose default
# is None takes null or a value of the type it is declared with here.
_VALUE_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,), list: (list,),
                dict: (dict,)}
_NULL_DEFAULT_TYPES = {"cohort.counts": dict, "cohort.signal_strength": float,
                       "cohort.grammar_file": str, "life_guard_tau": float, "grid": list}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _merge(base: dict, override, prefix: str = "") -> dict:
    """Merge override into base, rejecting keys the defaults do not have and
    values whose type does not fit the key's."""
    if not isinstance(override, dict):
        raise ConfigError(f"{prefix.rstrip('.') or 'config'} must be a JSON object, "
                          f"got {override!r}")
    out = dict(base)
    for k, v in override.items():
        key = f"{prefix}{k}"
        if k not in base:
            raise ConfigError(f"unknown config key: {key}")
        default = base[k]
        want = type(default) if default is not None else _NULL_DEFAULT_TYPES[key]
        if (v is not None or default is not None) and (
                not isinstance(v, _VALUE_TYPES[want]) or isinstance(v, bool) != (want is bool)):
            null = " or null" if default is None else ""
            raise ConfigError(f"{key} must be of type {want.__name__}{null}, got {v!r}")
        if key == "grid" and v and not all(isinstance(p, list) and len(p) == 2
                                           and all(map(_is_number, p)) for p in v):
            raise ConfigError(f"grid must be a list of [tau_hi, tau_lo] number pairs, got {v!r}")
        out[k] = _merge(default, v, f"{key}.") if isinstance(default, dict) else v
    return out


def load_config(args) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            override = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid config JSON: {e}") from e
        cfg = _merge(cfg, override)
    for flag in ("seed", "k"):
        v = getattr(args, flag, None)
        if v is not None:
            cfg[flag] = v
    if getattr(args, "total", None) is not None:
        cfg["cohort"]["total"] = args.total
    if getattr(args, "counts", None):
        try:
            cfg["cohort"]["counts"] = json.loads(args.counts)
        except json.JSONDecodeError as e:
            raise ConfigError(f"--counts: invalid JSON: {e}") from None
    if getattr(args, "mixture", None):
        try:
            cfg["cohort"]["mixture"] = [float(x) for x in args.mixture.split(",")]
        except ValueError as e:
            raise ConfigError(f"--mixture: {e}") from None
    if getattr(args, "multi_label_rate", None) is not None:
        cfg["cohort"]["multi_label_rate"] = args.multi_label_rate
    if cfg["k"] < 1:
        raise ConfigError("k must be >= 1")
    return cfg


def config_hash(cfg: dict) -> str:
    return sha256_obj(cfg)


# --- manifest ----------------------------------------------------------------

def _read_json(path: Path) -> dict:
    """A JSON artifact's top-level object; anything else is a data error."""
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError) as e:  # JSONDecodeError and UnicodeDecodeError
        raise DataError(f"{path}: not readable JSON: {e}") from None
    if not isinstance(data, dict):
        raise DataError(f"{path}: expected a JSON object")
    return data


def _update_manifest(out: Path, cfg: dict, artifacts: dict) -> None:
    path = out / "manifest.json"
    manifest = {"config_hash": config_hash(cfg), "tool_version": __version__, "artifacts": {}}
    if path.exists():
        prev = _read_json(path)
        if prev.get("config_hash") == manifest["config_hash"]:
            manifest["artifacts"] = prev.get("artifacts", {})
    for name in artifacts:
        manifest["artifacts"][name] = sha256_file(out / name)
    write_json(path, manifest)


def _log_timing(out: Path, command: str, seconds: float) -> None:
    path = out / "timings.json"
    data = _read_json(path) if path.exists() else {}
    data[command] = round(seconds, 3)
    write_json(path, data)


def _require(out: Path, name: str, producer: str) -> Path:
    path = out / name
    if not path.exists():
        raise DataError(f"missing artifact {name}; run `panelroute {producer}` first")
    return path


def _check_hash(found: str | None, cfg: dict, artifact: str) -> None:
    if found != config_hash(cfg):
        raise ConfigError(
            f"{artifact} was built with a different config (hash mismatch); "
            "re-run the producing stage"
        )


# --- stage helpers -------------------------------------------------------------

def _cohort_config(cfg: dict) -> CohortConfig:
    c = cfg["cohort"]
    return CohortConfig(
        seed=cfg["seed"],
        counts=c["counts"],
        total=c["total"],
        mixture=tuple(c["mixture"]),
        k=cfg["k"],
        multi_label_rate=c["multi_label_rate"],
        danger_rate=c["danger_rate"],
    )


def _grammars(cfg: dict):
    c = cfg["cohort"]
    grammars = load_grammars(c["grammar_file"]) if c["grammar_file"] else default_grammars()
    if c["signal_strength"] is not None:
        for g in grammars.values():
            g.signal_strength = float(c["signal_strength"])
    return grammars


def _router_config(cfg: dict) -> RouterTrainConfig:
    return RouterTrainConfig(
        k=cfg["k"],
        seed=cfg["seed"],
        use_time=cfg["use_time"],
        use_prefix_weights=cfg["use_prefix_weights"],
        calibrate=cfg["calibrate"],
        svd_rank=cfg["svd_rank"],
    )


def _load_tokenized(out: Path, cfg: dict):
    cohort_path = _require(out, "cohort.jsonl", "synth")
    vocab_path = _require(out, "vocab.tsv", "tokenize")
    episodes = read_episodes_jsonl(cohort_path)
    vocab = Vocabulary.load(vocab_path)
    for ep in episodes:
        tokenize_episode(ep, vocab)
    return episodes, vocab


def _specialist_split(episodes, cfg: dict, domain: DomainLabel):
    """(train, dev, test) episodes of `domain`'s specialist: the domain's
    episodes, capped at `specialist.scope_cap`, then split as the router's."""
    pool = [ep for ep in episodes if domain in ep.labels]
    cap = cfg["specialist"]["scope_cap"]
    if not isinstance(cap, int) or cap < 0:
        raise ConfigError(f"specialist.scope_cap must be a non-negative integer, got {cap!r}")
    if cap and len(pool) > cap:
        rng = np.random.default_rng(np.random.SeedSequence([cfg["seed"], 0x5C0]))
        idx = sorted(rng.choice(len(pool), size=cap, replace=False))
        pool = [pool[i] for i in idx]
    if len(pool) < 10:
        raise DataError(f"{domain.value}: only {len(pool)} episodes; cannot train")
    return split(pool, SplitSpec(seed=cfg["seed"]))


def _load_specialist(out: Path, cfg: dict, domain: DomainLabel) -> SpecialistModel | None:
    """This config's specialist for `domain`, or None when none was trained."""
    name = f"specialist_{domain.value}.bin"
    if not (out / name).exists():
        return None
    model = SpecialistModel.load(out / name)
    _check_hash(model.config_hash, cfg, name)
    return model


# --- commands ----------------------------------------------------------------

def cmd_synth(args, cfg: dict, out: Path) -> int:
    try:
        episodes = generate_cohort(_cohort_config(cfg), _grammars(cfg))
    except CohortConfigError as e:
        raise ConfigError(str(e)) from None
    episodes = ingest(episodes)
    target = cfg["cohort"].get("sample_target", 0)
    if target:
        episodes = proportional_sample(episodes, target, seed=cfg["seed"])
    write_episodes_jsonl(out / "cohort.jsonl", episodes)
    _update_manifest(out, cfg, {"cohort.jsonl": None})
    print(f"wrote {len(episodes)} episodes to {out / 'cohort.jsonl'}")
    return EXIT_OK


def cmd_tokenize(args, cfg: dict, out: Path) -> int:
    cohort_path = _require(out, "cohort.jsonl", "synth")
    episodes = read_episodes_jsonl(cohort_path)
    from .events import build_vocabulary, render_episode_tokens

    token_lists = [render_episode_tokens(ep.events, ep.gold_diag_code) for ep in episodes]
    vocab = build_vocabulary(token_lists, min_count=cfg["min_count"])
    vocab.save(out / "vocab.tsv")
    _update_manifest(out, cfg, {"vocab.tsv": None})
    print(f"vocabulary of {len(vocab)} tokens written to {out / 'vocab.tsv'}")
    return EXIT_OK


def cmd_featurize(args, cfg: dict, out: Path) -> int:
    episodes, vocab = _load_tokenized(out, cfg)
    rc = _router_config(cfg)
    ds = prepare_router_datasets(episodes, vocab, rc)
    save_feature_models(out / "feature_models.bin", ds.tfidf, ds.svd,
                        {"config_hash": config_hash(cfg)})
    arrays = {}
    meta = {"kind": "features", "config_hash": config_hash(cfg), "seed": cfg["seed"],
            "model_hash": sha256_file(out / "feature_models.bin"),
            "dim": int(ds.x["train"].shape[1]), "splits": {}, "ids": {}}
    for name in ("train", "dev", "test"):
        arrays[f"x_{name}"] = ds.x[name]
        arrays[f"y_{name}"] = ds.y[name].astype(np.uint8)
        arrays[f"w_{name}"] = ds.w[name]
        arrays[f"ell_{name}"] = ds.ell[name]
        arrays[f"danger_{name}"] = ds.danger[name].astype(np.uint8)
        meta["splits"][name] = len(ds.ids[name])
        meta["ids"][name] = ds.ids[name]
    save_bundle(out / "features.bin", meta, arrays)
    _update_manifest(out, cfg, {"feature_models.bin": None, "features.bin": None})
    print(f"feature table: {meta['splits']} rows, dim {meta['dim']}")
    return EXIT_OK


def _load_feature_models(out: Path, cfg: dict):
    """This config's fitted (tfidf, svd) from feature_models.bin."""
    tfidf, svd, stamp = load_feature_models(_require(out, "feature_models.bin", "featurize"))
    _check_hash(stamp, cfg, "feature_models.bin")
    return tfidf, svd


def _load_datasets(out: Path, cfg: dict):
    meta, arrays = load_bundle(_require(out, "features.bin", "featurize"), "features")
    _check_hash(meta.get("config_hash"), cfg, "features.bin")
    ds = RouterDatasets(*_load_feature_models(out, cfg))
    for name in ("train", "dev", "test"):
        ds.x[name] = arrays[f"x_{name}"]
        ds.y[name] = arrays[f"y_{name}"].astype(np.float64)
        ds.w[name] = arrays[f"w_{name}"]
        ds.danger[name] = arrays[f"danger_{name}"].astype(bool)
        ds.ell[name] = arrays[f"ell_{name}"]
        ds.ids[name] = meta["ids"][name]
    return ds


def cmd_train_router(args, cfg: dict, out: Path) -> int:
    ds = _load_datasets(out, cfg)
    rc = _router_config(cfg)
    model = train_router(ds, rc)
    model.save(out / "router.bin", {"config_hash": config_hash(cfg)})
    _update_manifest(out, cfg, {"router.bin": None})
    print(f"router checkpoint written to {out / 'router.bin'}")
    return EXIT_OK


def _load_router(out: Path, cfg: dict) -> RouterModel:
    model = RouterModel.load(_require(out, "router.bin", "train-router"))
    _check_hash(model.config_hash, cfg, "router.bin")
    return model


def _route_kwargs(cfg: dict) -> dict:
    return {
        "restrict_top1_to_life": cfg["restrict_top1_to_life"],
        "life_guard_tau": cfg["life_guard_tau"],
    }


def cmd_tune(args, cfg: dict, out: Path) -> int:
    ds = _load_datasets(out, cfg)
    model = _load_router(out, cfg)
    dev_rows = prob_rows_for(model, ds, "dev")
    grid = [tuple(p) for p in cfg["grid"]] if cfg["grid"] else None
    result = tune_thresholds(dev_rows, grid=grid, constraint=cfg["constraint"],
                             **_route_kwargs(cfg))
    write_json(out / "thresholds.json", {
        "config_hash": config_hash(cfg),
        "tau_hi": result.tau_hi,
        "tau_lo": result.tau_lo,
        "dev_life_recall": result.life_recall,
        "dev_expected_experts": result.expected_experts,
        "constraint": cfg["constraint"],
        "constraint_met": result.constraint_met,
    })
    write_frontier_csv(out / "frontier.csv", result.table)
    _update_manifest(out, cfg, {"thresholds.json": None, "frontier.csv": None})
    print(f"selected (tau_hi, tau_lo) = ({result.tau_hi}, {result.tau_lo}); "
          f"dev life recall {result.life_recall:.3f}, E[|R|] {result.expected_experts:.3f}")
    if not result.constraint_met:
        print("warning: no grid point met the safety constraint; "
              "fallback point with maximal life recall selected")
        return EXIT_CONSTRAINT
    return EXIT_OK


def _load_thresholds(out: Path, cfg: dict) -> Thresholds:
    path = _require(out, "thresholds.json", "tune")
    data = _read_json(path)
    _check_hash(data.get("config_hash"), cfg, "thresholds.json")
    return Thresholds(data["tau_hi"], data["tau_lo"])


def cmd_train_specialist(args, cfg: dict, out: Path) -> int:
    episodes, vocab = _load_tokenized(out, cfg)
    sc = cfg["specialist"]
    try:
        shape = SpecialistConfig(vocab_size=len(vocab), layers=sc["layers"],
                                 d_model=sc["d_model"], heads=sc["heads"])
    except SpecialistError as e:
        raise ConfigError(f"specialist.heads = {sc['heads']}: {e}") from None
    domains = [DomainLabel(args.domain)] if args.domain else list(DOMAINS)
    for domain in domains:
        train_eps, dev_eps, _ = _specialist_split(episodes, cfg, domain)
        model = SpecialistModel(shape, seed=cfg["seed"], domain=domain.value)
        if sc["lora_rank"]:
            try:
                model.attach_lora(sc["lora_rank"], sc["lora_alpha"], seed=cfg["seed"])
            except SpecialistError as e:
                raise ConfigError(f"specialist.lora_rank = {sc['lora_rank']}: {e}") from None
        tc = TrainConfig(peak_lr=sc["peak_lr"], batch_size=sc["batch_size"],
                         epochs=sc["epochs"], seed=cfg["seed"])
        curve = train(model, [e.tokens for e in train_eps], [e.tokens for e in dev_eps],
                      tc, adapters_only=bool(sc["lora_rank"]))
        name = f"specialist_{domain.value}.bin"
        model.save(out / name, {"config_hash": config_hash(cfg)})
        write_curve_csv(out / f"curve_{domain.value}.csv", curve)
        _update_manifest(out, cfg, {name: None, f"curve_{domain.value}.csv": None})
        best = min(r["dev_loss"] for r in curve)
        print(f"{domain.value}: best dev loss {best:.4f} (ppl {np.exp(best):.2f})")
    return EXIT_OK


def cmd_eval(args, cfg: dict, out: Path) -> int:
    ds = _load_datasets(out, cfg)
    model = _load_router(out, cfg)
    thresholds = _load_thresholds(out, cfg)
    lm = metrics.LatencyModel(l_router=cfg["latency"]["l_router"],
                              l_expert_default=cfg["latency"]["l_expert"])
    report = evaluate(model, ds, thresholds, lm, k=cfg["k"],
                      route_kwargs=_route_kwargs(cfg))
    if args.policy == "consult-all":
        report["policy"] = {"policy": "consult-all", **report["baselines"]["consult_all"]}
    elif args.policy == "fixed-life":
        report["policy"] = {"policy": "fixed-life",
                            **report["baselines"]["fixed_cardiac_pulmonary"]}
    specialists = {}
    for domain in DOMAINS:
        spec_model = _load_specialist(out, cfg, domain)
        if spec_model is not None:
            _, _, test_eps = _specialist_split(_load_tokenized(out, cfg)[0], cfg, domain)
            specialists[domain.value] = {
                "test_ppl": perplexity(spec_model, [e.tokens for e in test_eps])
            }
    if specialists:
        report["specialists"] = specialists
    report["config_hash"] = config_hash(cfg)
    write_json(out / "report.json", report)
    with open(out / "report.csv", "w", encoding="utf-8") as fh:
        fh.write("domain,roc_auc,pr_auc,brier,ece\n")
        for dom, row in report["router"]["per_domain"].items():
            fh.write(f"{dom},{row['roc_auc']!r},{row['pr_auc']!r},{row['brier']!r},{row['ece']!r}\n")
    _update_manifest(out, cfg, {"report.json": None, "report.csv": None})
    print(json.dumps(report["policy"], sort_keys=True, indent=2))
    return EXIT_OK


def cmd_route(args, cfg: dict, out: Path) -> int:
    model = _load_router(out, cfg)
    tfidf, svd = _load_feature_models(out, cfg)
    thresholds = _load_thresholds(out, cfg)
    vocab = Vocabulary.load(_require(out, "vocab.tsv", "tokenize"))
    episode_path = Path(args.episode)
    try:
        episode = episode_from_dict(json.loads(episode_path.read_text()))
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise DataError(f"{episode_path}: not a readable episode: {e!r}") from None
    tokenize_episode(episode, vocab)
    rows = expand_prefixes(episode, cfg["k"])
    if not rows:
        raise DataError(f"episode {episode.episode_id} has no content tokens")
    row = rows[-1]  # longest available prefix, at most K events
    x = featurize_rows([row], vocab, tfidf, svd, cfg["use_time"])
    raw = model.predict_raw(x)[0]
    probs = model.predict_proba(x)[0]
    decision = policy.route(probs, thresholds, danger_flag=episode.danger,
                            **_route_kwargs(cfg))
    decision.timestamp = datetime.now(timezone.utc).isoformat()

    suggestions = {}
    for domain in decision.route:
        spec_model = _load_specialist(out, cfg, domain)
        if spec_model is not None:
            top = spec_model.suggest(episode.tokens[:-1], k=3)
            suggestions[domain] = [vocab.decode(t) for t, _ in top]
    merged = arbitrate(suggestions) if suggestions else []

    audit = AuditLog(out / "audit.jsonl")
    audit.append(AuditRecord(
        episode_id=episode.episode_id,
        ell=row.ell,
        raw_scores=tuple(float(v) for v in raw),
        probs=tuple(float(v) for v in probs),
        tau_hi=thresholds.tau_hi,
        tau_lo=thresholds.tau_lo,
        branch=decision.branch,
        route=decision.route,
        arbitration=[[item, d.value] for item, d in merged],
        danger_flag=episode.danger,
        timestamp=decision.timestamp,
    ))
    payload = decision.to_dict()
    payload["episode_id"] = episode.episode_id
    if merged:
        payload["suggestions"] = [[item, d.value] for item, d in merged]
    print(json.dumps(payload, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_report(args, cfg: dict, out: Path) -> int:
    path = _require(out, "report.json", "eval")
    report = _read_json(path)
    _check_hash(report.get("config_hash"), cfg, "report.json")
    with open(out / "anytime.csv", "w", encoding="utf-8") as fh:
        fh.write("ell,metric,value\n")
        for metric_name, curve in report["anytime"].items():
            for ell in sorted(curve, key=int):
                v = curve[ell]
                fh.write(f"{ell},{metric_name},{'' if v is None else repr(v)}\n")
    _update_manifest(out, cfg, {"anytime.csv": None})
    print(f"anytime curves written to {out / 'anytime.csv'}")
    return EXIT_OK


COMMANDS = {
    "synth": cmd_synth,
    "tokenize": cmd_tokenize,
    "featurize": cmd_featurize,
    "train-router": cmd_train_router,
    "tune": cmd_tune,
    "train-specialist": cmd_train_specialist,
    "eval": cmd_eval,
    "route": cmd_route,
    "report": cmd_report,
}


@functools.cache  # parse_args never mutates the parser, so run() calls share no state
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="panelroute")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=".", help="artifact directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--k", type=int, default=None)
        if name == "synth":
            p.add_argument("--total", type=int, default=None)
            p.add_argument("--counts", default=None, help='JSON, e.g. {"Cardiac": 10}')
            p.add_argument("--mixture", default=None, help="comma-separated prevalences")
            p.add_argument("--multi-label-rate", type=float, default=None,
                           dest="multi_label_rate")
        if name == "train-specialist":
            p.add_argument("--domain", default=None, choices=[d.value for d in DOMAINS])
        if name == "eval":
            p.add_argument("--policy", default="learned",
                           choices=["learned", "consult-all", "fixed-life"])
        if name == "route":
            p.add_argument("--episode", required=True, help="episode JSON file")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        t0 = time.time()
        code = COMMANDS[args.command](args, cfg, out)
        _log_timing(out, args.command, time.time() - t0)
        return code
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, BundleError, SchemaError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
