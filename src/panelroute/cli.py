"""Command-line orchestration of the full pipeline.

Subcommands: synth, tokenize, featurize, train-router, tune, train-specialist,
eval, route, report. One config file plus flag overrides (flags win). Stages
stamp the artifacts later stages read back with the config hash and refuse one
built under another config. Only tokenize reads cohort.jsonl: it writes the
episodes' token ids to tokens.bin, stamped with the SHA-256 of the cohort.jsonl
and vocab.tsv they were encoded from, and later stages read the ids back.

Exit codes: 0 ok, 2 config error, 3 data error (missing, truncated or corrupt
artifact), 4 tuner constraint unmet (fallback point selected, outputs still
written).
"""

import argparse
import contextlib
import copy
import dataclasses
import functools
import itertools
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, metrics, policy
from .cohort import (
    DEFAULT_MIXTURE,
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
    SENTINELS,
    DomainLabel,
    Episode,
    SchemaError,
    Vocabulary,
    episode_from_dict,
    from_multi_hot,
    read_episodes_jsonl,
    tokenize_episode,
    write_episodes_jsonl,
)
from .features import expand_prefixes, featurize_rows, load_feature_models, save_feature_models
from .pipeline import (
    SPLITS,
    TABLE,
    prepare_router_datasets,
    evaluate,
    build_table,
    split_rows,
    train_router,
    prob_rows_for,
    tokenize_cohort,
)
from .policy import AuditLog, PolicyError, Thresholds, arbitrate, tune_thresholds, write_frontier_csv
from .router import RouterError, RouterModel, SplitSpec, split
from .serial import (BundleError, Layout, load_bundle, save_bundle, sha256_file, sha256_obj,
                     write_json, write_lines)
from .specialist import (
    SpecialistConfig,
    SpecialistError,
    SpecialistModel,
    TrainConfig,
    perplexity,
    perplexity_from_loss,
    train,
    unigram_entropy,
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


class _Key(NamedTuple):
    """A config key: its default, least and greatest value (None leaves that end
    open), the type of a non-null value if the default is null, and a raising rule."""
    default: object
    low: float | None = None
    high: float | None = None
    kind: type | None = None
    rule: Callable | None = None


def _grid_rule(grid) -> None:
    for pair in grid:
        if not isinstance(pair, list) or len(pair) != 2 or {type(v) for v in pair} - {int, float}:
            raise ConfigError(f"grid must be a list of [tau_hi, tau_lo] number pairs, got {grid!r}")
        Thresholds(*pair)


def _peak_lr_rule(v) -> None:
    if not v > 0:  # a learning rate of 0 trains nothing, and a negative one ascends the loss
        raise ConfigError(f"specialist.peak_lr must be > 0, got {v!r}")


# Every config key by dotted path; CohortConfig, SpecialistConfig and Thresholds keep their own.
_SCHEMA = {
    "seed": _Key(0, 0),  # numpy needs a seed >= 0
    "k": _Key(5, 1),
    "cohort.total": _Key(2000),
    "cohort.counts": _Key(None, kind=dict),
    "cohort.mixture": _Key(list(DEFAULT_MIXTURE)),
    "cohort.multi_label_rate": _Key(0.0, 0, 1),
    "cohort.danger_rate": _Key(0.0, 0, 1),
    "cohort.signal_strength": _Key(None, 0, 1, kind=float),
    "cohort.grammar_file": _Key(None, kind=str),
    "cohort.sample_target": _Key(0, 0),
    "min_count": _Key(1, 1),
    "life_guard_tau": _Key(None, kind=float, rule=lambda v: Thresholds(1, 0, life_guard_tau=v)),
    "svd_rank": _Key(256, 1),
    "grid": _Key(None, kind=list, rule=_grid_rule),
    "constraint": _Key(0.98, 0, 1),
    "latency.l_router": _Key(10.0, 0),
    "latency.l_expert": _Key(50.0, 0),
    "specialist.layers": _Key(2, 1),
    "specialist.d_model": _Key(64, 1),
    "specialist.heads": _Key(2, 1),
    "specialist.epochs": _Key(5, 1),
    "specialist.batch_size": _Key(16, 1),
    "specialist.peak_lr": _Key(1e-3, rule=_peak_lr_rule),
    "specialist.scope_cap": _Key(0, 0),
    "specialist.lora_rank": _Key(0, 0),
    "specialist.lora_alpha": _Key(8.0),
}


def _defaults() -> dict:
    cfg = {}
    for key, row in _SCHEMA.items():
        section, _, leaf = key.rpartition(".")
        (cfg.setdefault(section, {}) if section else cfg)[leaf] = row.default
    return cfg


DEFAULT_CONFIG = _defaults()


def _merge(base: dict, override, prefix: str = "") -> dict:
    """Merge override into base, checking each value against its key's _SCHEMA
    row: an unknown key, then null, then the type, the bounds and the rule."""
    if not isinstance(override, dict):
        raise ConfigError(f"{prefix[:-1] or 'config'} must be a JSON object, got {override!r}")
    out = dict(base)
    for k, v in override.items():
        key = f"{prefix}{k}"
        if k not in base:
            raise ConfigError(f"unknown config key: {key}")
        row = _SCHEMA.get(key)
        if row is None:  # a section, such as cohort
            out[k] = _merge(base[k], v, f"{key}.")
            continue
        out[k] = v
        if v is None and row.default is None:
            continue
        want = row.kind or type(row.default)
        if (not isinstance(v, (int, float) if want is float else want)
                or isinstance(v, bool) != (want is bool)):
            null = " or null" if row.default is None else ""
            raise ConfigError(f"{key} must be of type {want.__name__}{null}, got {v!r}")
        if (row.low is not None and v < row.low) or (row.high is not None and v > row.high):
            rule = f">= {row.low}" if row.high is None else f"in [{row.low}, {row.high}]"
            raise ConfigError(f"{key} must be {rule}, got {v!r}")
        try:
            if row.rule:
                row.rule(v)
        except PolicyError as e:
            raise ConfigError(f"{key}: {e}") from None
    return out


def load_config(args) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            override = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid config JSON: {e}") from e
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"config file {path} cannot be read: {e}") from None
        cfg = _merge(cfg, override)
    return _merge(cfg, _flag_overrides(args))


def _flag_overrides(args) -> dict:
    """The config values given as flags, as a config override."""
    flags = {k: v for k in ("seed", "k") if (v := getattr(args, k, None)) is not None}
    cohort = {k: v for k in ("total", "multi_label_rate")
              if (v := getattr(args, k, None)) is not None}
    if getattr(args, "counts", None):
        try:
            cohort["counts"] = json.loads(args.counts)
        except json.JSONDecodeError as e:
            raise ConfigError(f"--counts: invalid JSON: {e}") from None
    if getattr(args, "mixture", None):
        try:
            cohort["mixture"] = [float(x) for x in args.mixture.split(",")]
        except ValueError as e:
            raise ConfigError(f"--mixture: {e}") from None
    if cohort:
        flags["cohort"] = cohort
    return flags


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


def _field(path: Path, data: dict, key: str, kind: str):
    """data[key] if it is `kind`, "a number" (not a bool) or "an object";
    anything else, or no such key, is a data error naming the file and key."""
    if type(data.get(key)) not in {"a number": (int, float), "an object": (dict,)}[kind]:
        got = json.dumps(data[key]) if key in data else "nothing"
        raise DataError(f"{path}: key {key!r} must be {kind}, got {got}")
    return data[key]


def _environment() -> dict:
    """What the array artifacts' bytes hinge on besides the config: the BLAS
    library (name and version, no machine paths) and the thread counts in force."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"blas": {key: blas.get(key) for key in ("name", "version")},
            **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def _update_manifest(out: Path, cfg: dict, *names: str) -> None:
    path = out / "manifest.json"
    manifest = {"config_hash": config_hash(cfg), "tool_version": __version__,
                "environment": _environment(), "artifacts": {}}
    if path.exists():
        prev = _read_json(path)
        if prev.get("config_hash") == manifest["config_hash"]:
            manifest["artifacts"] = _field(path, prev, "artifacts", "an object")
    for name in names:
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
    path = c["grammar_file"]
    grammars = load_grammars(path) if path else default_grammars()
    if c["signal_strength"] is not None:
        for g in grammars.values():
            g.signal_strength = float(c["signal_strength"])
    if path:  # generate_cohort checks k too, but cannot name the file
        for g in grammars.values():
            try:
                g.validate(cfg["k"])
            except CohortConfigError as e:
                raise CohortConfigError(f"grammar file {path}: {e}") from None
    return grammars


@contextlib.contextmanager
def _cohort_sized(cfg: dict, *errors):
    """Report `errors` as a config error naming the keys that sized the cohort:
    too few episodes to split, or a split lacking a class, cannot be fitted."""
    try:
        yield
    except errors as e:
        c = cfg["cohort"]
        keys = ["counts" if c["counts"] is not None else "total"]
        keys += ["sample_target"] if c["sample_target"] else []
        sized = ", ".join(f"cohort.{key} = {json.dumps(c[key])}" for key in keys)
        raise ConfigError(f"{sized}: {e}") from None


def _token_inputs(out: Path) -> dict:
    """tokens.bin's stamp: the SHA-256 of each file it is encoded from."""
    return {"cohort.jsonl": sha256_file(_require(out, "cohort.jsonl", "synth")),
            "vocab.tsv": sha256_file(_require(out, "vocab.tsv", "tokenize"))}


# features.bin: the test split's TABLE arrays; train-router and tune project their splits.
FEATURES = Layout("features", {}, {name: spec for name, spec in TABLE.items()
                                   if name.endswith("_test")})
# tokens.bin: n episodes' token ids, n + 1 offsets into them, label bits and danger flags.
TOKENS = Layout("tokens", {"episode_ids": (str, ("n",))},
                {"ids": (np.unsignedinteger, ("n_ids",)), "offsets": (np.int64, ("n+1",)),
                 "labels": (np.uint8, ("n", len(DOMAINS))), "danger": (np.uint8, ("n",))})


def _save_tokens(out: Path, episodes, vocab: Vocabulary) -> None:
    """Write tokens.bin: every episode's token ids (one ragged array with
    offsets), label bits and danger flag."""
    seqs = [ep.tokens for ep in episodes]
    meta = {"kind": "tokens", "inputs": _token_inputs(out),
            "episode_ids": [ep.episode_id for ep in episodes]}
    save_bundle(out / "tokens.bin", meta, {
        "ids": np.fromiter(itertools.chain.from_iterable(seqs),
                           np.min_scalar_type(len(vocab) - 1)),
        "offsets": np.cumsum([0, *map(len, seqs)], dtype=np.int64),
        "labels": np.array([ep.label_bits() for ep in episodes],
                           dtype=np.uint8).reshape(-1, len(DOMAINS)),
        "danger": np.array([ep.danger for ep in episodes], dtype=np.uint8),
    })


def _load_tokenized(out: Path):
    """(episodes, vocab) from tokens.bin. The episodes carry id, token ids,
    labels and danger flag, but no events."""
    path = _require(out, "tokens.bin", "tokenize")
    inputs = _token_inputs(out)
    vocab = Vocabulary.load(out / "vocab.tsv")
    try:
        meta, arrays = load_bundle(path, TOKENS)
        if meta.get("inputs") != inputs:
            raise DataError(f"{path}: built from another cohort.jsonl or vocab.tsv")
        ids, off = arrays["ids"], arrays["offsets"]
        if not (off[0] == 0 and off[-1] == ids.size and np.all(off[1:] >= off[:-1])
                and (ids.size == 0 or ids.max() < len(vocab))):
            raise DataError(f"{path}: offsets or token ids do not fit vocab.tsv")
    except (BundleError, DataError) as e:
        raise DataError(f"{e}; re-run `panelroute tokenize`") from None
    tokens, off = ids.tolist(), off.tolist()
    labels, danger = arrays["labels"].tolist(), arrays["danger"].tolist()
    episodes = [Episode(eid, tokens=tokens[a:b], labels=from_multi_hot(bits), danger=bool(flag))
                for eid, a, b, bits, flag in zip(meta["episode_ids"], off, off[1:], labels, danger)]
    return episodes, vocab


def _specialist_split(episodes, cfg: dict, domain: DomainLabel):
    """(train, dev, test) episodes of `domain`'s specialist: the domain's
    episodes, capped at `specialist.scope_cap`, then split as the router's.
    A pool too small to split is a config error naming what sized it."""
    pool = [ep for ep in episodes if domain in ep.labels]
    cap = cfg["specialist"]["scope_cap"]
    if cap and len(pool) > cap:
        if cap < 10:
            raise ConfigError(f"specialist.scope_cap = {cap}: caps {domain.value}'s "
                              f"{len(pool)} episodes below the 10 a specialist needs")
        rng = np.random.default_rng(np.random.SeedSequence([cfg["seed"], 0x5C0]))
        idx = sorted(rng.choice(len(pool), size=cap, replace=False))
        pool = [pool[i] for i in idx]
    with _cohort_sized(cfg, RouterError):
        if len(pool) < 10:  # split's own floor, named with the domain
            raise RouterError(f"{domain.value}: only {len(pool)} episodes; cannot train")
        return split(pool, SplitSpec(seed=cfg["seed"]))


def _specialist_path(out: Path, domain: DomainLabel) -> Path:
    return out / f"specialist_{domain.value}.bin"


def _load_specialist(out: Path, cfg: dict, domain: DomainLabel,
                     vocab: Vocabulary) -> SpecialistModel | None:
    """This config's specialist for `domain`, refused unless it was trained on
    a vocabulary of vocab.tsv's size, or None when none was trained."""
    path = _specialist_path(out, domain)
    if not path.exists():
        return None
    model = SpecialistModel.load(path)
    if model.domain != domain.value:
        raise DataError(f"{path}: meta key 'domain' is {model.domain!r}, not {domain.value!r}")
    _check_hash(model.config_hash, cfg, path.name)
    if model.config.vocab_size != len(vocab):
        raise DataError(f"{out / 'vocab.tsv'}: {len(vocab)} tokens, but {path} was trained "
                        f"on {model.config.vocab_size}; re-run `panelroute train-specialist`")
    return model


# --- commands ----------------------------------------------------------------

def cmd_synth(args, cfg: dict, out: Path) -> int:
    try:
        episodes = generate_cohort(_cohort_config(cfg), _grammars(cfg))
    except CohortConfigError as e:
        raise ConfigError(str(e)) from None
    episodes = ingest(episodes)
    target = cfg["cohort"]["sample_target"]
    if target:
        episodes = proportional_sample(episodes, target, seed=cfg["seed"])
    write_episodes_jsonl(out / "cohort.jsonl", episodes)
    _update_manifest(out, cfg, "cohort.jsonl")
    print(f"wrote {len(episodes)} episodes to {out / 'cohort.jsonl'}")
    return EXIT_OK


def cmd_tokenize(args, cfg: dict, out: Path) -> int:
    cohort_path = _require(out, "cohort.jsonl", "synth")
    episodes, vocab = tokenize_cohort(read_episodes_jsonl(cohort_path), cfg["min_count"])
    if not any(ep.content_tokens for ep in episodes):
        raise DataError(f"{cohort_path}: no episode has a content token, so the vocabulary "
                        "would hold only the sentinels")
    if len(vocab) == len(SENTINELS):
        raise ConfigError(f"min_count = {cfg['min_count']}: no token occurs that often in "
                          f"{cohort_path.name}, so the vocabulary would hold only the sentinels")
    vocab.save(out / "vocab.tsv")
    _save_tokens(out, episodes, vocab)
    _update_manifest(out, cfg, "vocab.tsv", "tokens.bin")
    print(f"vocabulary of {len(vocab)} tokens written to {out / 'vocab.tsv'}")
    return EXIT_OK


def cmd_featurize(args, cfg: dict, out: Path) -> int:
    episodes, vocab = _load_tokenized(out)
    with _cohort_sized(cfg, RouterError):
        rows = split_rows(episodes, cfg["k"], cfg["seed"], SPLITS)
        table, tfidf, svd = prepare_router_datasets(rows, vocab, cfg["svd_rank"])
    save_feature_models(out / "feature_models.bin", tfidf, svd, {"config_hash": config_hash(cfg)})
    save_bundle(out / "features.bin", {"kind": "features", "config_hash": config_hash(cfg)},
                table)
    _update_manifest(out, cfg, "feature_models.bin", "features.bin")
    print(f"feature table: { {name: len(r) for name, r in rows.items()} } rows, dim {svd.rank}")
    return EXIT_OK


def _load_feature_models(out: Path, cfg: dict):
    """(tfidf, svd): this config's fitted models in feature_models.bin."""
    tfidf, svd, stamp = load_feature_models(_require(out, "feature_models.bin", "featurize"))
    _check_hash(stamp, cfg, "feature_models.bin")
    return tfidf, svd


def _project_splits(out: Path, cfg: dict, *names: str) -> dict:
    """The TABLE arrays of the named splits, projected from tokens.bin with this
    config's feature_models.bin; the other splits are not expanded."""
    tfidf, svd = _load_feature_models(out, cfg)
    episodes, vocab = _load_tokenized(out)
    with _cohort_sized(cfg, RouterError):
        rows = split_rows(episodes, cfg["k"], cfg["seed"], names)
    return build_table(rows, vocab, tfidf, svd)


def _load_test_table(out: Path, cfg: dict) -> dict:
    """This config's test table: the arrays in features.bin."""
    meta, table = load_bundle(_require(out, "features.bin", "featurize"), FEATURES)
    _check_hash(meta.get("config_hash"), cfg, "features.bin")
    return table


def cmd_train_router(args, cfg: dict, out: Path) -> int:
    table = _project_splits(out, cfg, "train", "dev")
    with _cohort_sized(cfg, RouterError):
        model = train_router(table)
    model.save(out / "router.bin", {"config_hash": config_hash(cfg)})
    _update_manifest(out, cfg, "router.bin")
    for part, fitted in (("head", model.heads), ("calibrator", model.calibrators)):
        for domain, res in zip(DOMAINS, (f.solve for f in fitted)):
            status = "converged" if res and res.success else "NOT converged"
            print(f"{domain.value} {part}: " + ("identity, single-class dev labels" if res is None
                  else f"{res.nit} L-BFGS iterations, {status} ({res.message})"))
    print(f"router checkpoint written to {out / 'router.bin'}")
    return EXIT_OK


def _load_router(out: Path, cfg: dict, dim: int, name: str, array: str) -> RouterModel:
    """This config's router, refused unless its heads score features of width
    `dim`, read from the artifact `name`'s `array`."""
    model = RouterModel.load(_require(out, "router.bin", "train-router"),
                             (dim, f"{out / name} array {array!r}"))
    _check_hash(model.config_hash, cfg, "router.bin")
    return model


def cmd_tune(args, cfg: dict, out: Path) -> int:
    table = _project_splits(out, cfg, "dev")
    model = _load_router(out, cfg, table["x_dev"].shape[1], "feature_models.bin",
                         "svd_components")
    grid = [tuple(p) for p in cfg["grid"]] if cfg["grid"] else None
    with _cohort_sized(cfg, PolicyError):
        result = tune_thresholds(*prob_rows_for(model, table, "dev"), grid=grid,
                                 constraint=cfg["constraint"],
                                 life_guard_tau=cfg["life_guard_tau"])
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
    _update_manifest(out, cfg, "thresholds.json", "frontier.csv")
    print(f"selected (tau_hi, tau_lo) = ({result.tau_hi}, {result.tau_lo}); "
          f"dev life recall {result.life_recall:.3f}, E[|R|] {result.expected_experts:.3f}")
    if not result.constraint_met:
        print("warning: no grid point met the safety constraint; "
              "fallback point with maximal life recall selected")
        return EXIT_CONSTRAINT
    return EXIT_OK


def _load_thresholds(out: Path, cfg: dict) -> Thresholds:
    """The routing policy: the tuned thresholds and the config's life guard."""
    path = _require(out, "thresholds.json", "tune")
    data = _read_json(path)
    _check_hash(data.get("config_hash"), cfg, "thresholds.json")
    taus = [_field(path, data, key, "a number") for key in ("tau_hi", "tau_lo")]
    try:
        return Thresholds(*taus, life_guard_tau=cfg["life_guard_tau"])
    except PolicyError as e:  # the life guard was checked with the config
        raise DataError(f"{path}: keys 'tau_hi' and 'tau_lo': {e}") from None


def cmd_train_specialist(args, cfg: dict, out: Path) -> int:
    episodes, vocab = _load_tokenized(out)
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
        try:
            curve = train(model, [e.tokens for e in train_eps], [e.tokens for e in dev_eps], tc)
        except SpecialistError as e:
            raise ConfigError(f"specialist.peak_lr = {sc['peak_lr']}: training the "
                              f"{domain.value} specialist failed ({e}); lower it") from None
        path = _specialist_path(out, domain)
        model.save(path, {"config_hash": config_hash(cfg)})
        write_curve_csv(out / f"curve_{domain.value}.csv", curve)
        _update_manifest(out, cfg, path.name, f"curve_{domain.value}.csv")
        best = min(r["dev_loss"] for r in curve)
        print(f"{domain.value}: best dev loss {best:.4f} (ppl {perplexity_from_loss(best):.2f})")
    return EXIT_OK


def cmd_eval(args, cfg: dict, out: Path) -> int:
    table = _load_test_table(out, cfg)
    model = _load_router(out, cfg, table["x_test"].shape[1], "features.bin", "x_test")
    thresholds = _load_thresholds(out, cfg)
    lm = metrics.LatencyModel(l_router=cfg["latency"]["l_router"],
                              l_expert=cfg["latency"]["l_expert"])
    with _cohort_sized(cfg, metrics.MetricError):
        report = evaluate(model, table, thresholds, lm, k=cfg["k"])
    if any(_specialist_path(out, d).exists() for d in DOMAINS):
        episodes, vocab = _load_tokenized(out)
        report["specialists"] = {}
        for domain in DOMAINS:
            spec_model = _load_specialist(out, cfg, domain, vocab)
            if spec_model is None:
                continue
            _, _, test_eps = _specialist_split(episodes, cfg, domain)
            test_seqs = [e.tokens for e in test_eps]
            report["specialists"][domain.value] = {
                "test_ppl": perplexity(spec_model, test_seqs),
                "unigram_ppl": perplexity_from_loss(unigram_entropy(test_seqs)),
            }
    report["config_hash"] = config_hash(cfg)
    write_json(out / "report.json", report)
    write_lines(out / "report.csv", [
        "domain,roc_auc,pr_auc,brier,ece\n",
        *(f"{dom},{row['roc_auc']!r},{row['pr_auc']!r},{row['brier']!r},{row['ece']!r}\n"
          for dom, row in report["router"]["per_domain"].items())])
    _update_manifest(out, cfg, "report.json", "report.csv")
    print(json.dumps(report["policy"], sort_keys=True, indent=2))
    return EXIT_OK


def cmd_route(args, cfg: dict, out: Path) -> int:
    tfidf, svd = _load_feature_models(out, cfg)
    model = _load_router(out, cfg, svd.rank, "feature_models.bin", "svd_components")
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
    x = featurize_rows([row], vocab, tfidf, svd)
    raw = model.predict_raw(x)[0]
    probs = model.predict_proba(x)[0]
    decision = policy.route(probs, thresholds, danger_flag=episode.danger)
    decision.timestamp = datetime.now(timezone.utc).isoformat()

    suggestions = {}
    for domain in decision.route:
        spec_model = _load_specialist(out, cfg, domain, vocab)
        if spec_model is not None:
            top = spec_model.suggest(episode.tokens[:-1], k=3)
            suggestions[domain] = [vocab.decode(t) for t, _ in top]
    merged = [[item, d.value] for item, d in arbitrate(suggestions)]

    record = {**dataclasses.asdict(decision), "episode_id": episode.episode_id}
    AuditLog(out / "audit.jsonl").append({**record, "ell": row.ell,
                                          "raw_scores": [float(v) for v in raw],
                                          "danger_flag": episode.danger, "arbitration": merged})
    if merged:
        record["suggestions"] = merged
    print(json.dumps(record, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_report(args, cfg: dict, out: Path) -> int:
    path = _require(out, "report.json", "eval")
    report = _read_json(path)
    _check_hash(report.get("config_hash"), cfg, "report.json")
    anytime = _field(path, report, "anytime", "an object")
    for metric_name, curve in anytime.items():
        if type(curve) is not dict or not all(
                ell.isdecimal() and type(v) in (int, float, type(None)) for ell, v in curve.items()):
            raise DataError(f"{path}: key 'anytime': {metric_name!r} must map prefix lengths "
                            f"to numbers or null, got {json.dumps(curve)}")
    write_lines(out / "anytime.csv", [
        "ell,metric,value\n",
        *(f"{ell},{metric_name},{'' if curve[ell] is None else repr(curve[ell])}\n"
          for metric_name, curve in anytime.items() for ell in sorted(curve, key=int))])
    _update_manifest(out, cfg, "anytime.csv")
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
        if name == "route":
            p.add_argument("--episode", required=True, help="episode JSON file")
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # --help (0), or a refused flag (2) after argparse's usage line
        return e.code
    try:
        cfg = load_config(args)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"--out {out} is not a usable artifact directory: {e}") from None
        t0 = time.time()
        code = COMMANDS[args.command](args, cfg, out)
        if args.command != "route":  # build stages only: requests would race on the file
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
