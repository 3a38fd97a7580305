"""End-to-end orchestration: tokenize -> features -> router -> thresholds ->
evaluation. Shared by the CLI and the test suites."""

from dataclasses import dataclass, field

import numpy as np

from . import features as feats
from . import metrics, policy
from .events import (DOMAINS, LIFE_THREAT_DOMAINS, build_vocabulary, encode_tokens,
                     from_multi_hot, render_episode_tokens)
from .router import RouterModel, SplitSpec, fit_head, platt_fit, split


@dataclass
class RouterTrainConfig:
    k: int = 5
    seed: int = 0
    svd_rank: int = 256


def tokenize_cohort(episodes, min_count: int = 1):
    """Render every episode once, build the vocabulary over the renderings and
    encode them into `ep.tokens`, as `tokenize_episode` would."""
    token_lists = [render_episode_tokens(ep.events, ep.gold_diag_code) for ep in episodes]
    vocab = build_vocabulary(token_lists, min_count=min_count)
    for ep, texts in zip(episodes, token_lists):
        ep.tokens = encode_tokens(texts, vocab)
    return episodes, vocab


@dataclass
class RouterDatasets:
    """The feature table: per split name, one array per field."""
    x: dict = field(default_factory=dict)  # split -> feature matrix
    y: dict = field(default_factory=dict)  # split -> (N, 5) 0/1
    w: dict = field(default_factory=dict)  # split -> sample weights
    danger: dict = field(default_factory=dict)  # split -> (N,) bool
    ell: dict = field(default_factory=dict)  # split -> (N,) prefix length


def prepare_router_datasets(episodes, vocab, cfg: RouterTrainConfig):
    """(datasets, tfidf, svd): split episodes (before prefix expansion), expand,
    fit TF-IDF and SVD on the training rows only, and featurize every split;
    each row weighs ell/K."""
    parts = split(episodes, SplitSpec(seed=cfg.seed))
    rows = {name: feats.expand_cohort(eps, cfg.k)
            for name, eps in zip(("train", "dev", "test"), parts)}
    train_docs = [feats.row_document(r, vocab) for r in rows["train"]]
    tfidf = feats.tfidf_fit(train_docs)
    svd = feats.svd_fit(tfidf.transform(train_docs), rank=cfg.svd_rank, seed=cfg.seed)
    ds = RouterDatasets()
    for name, split_rows in rows.items():
        ds.x[name] = feats.featurize_rows(split_rows, vocab, tfidf, svd)
        ds.y[name] = np.array([r.label_bits for r in split_rows], dtype=np.float64)
        ds.w[name] = np.array([r.weight for r in split_rows])
        ds.danger[name] = np.array([r.danger for r in split_rows], dtype=bool)
        ds.ell[name] = np.array([r.ell for r in split_rows], dtype=np.int64)
    return ds, tfidf, svd


def train_router(ds: RouterDatasets) -> RouterModel:
    """Fit a head per domain on train and Platt-calibrate each on dev."""
    heads = [fit_head(ds.x["train"], ds.y["train"][:, d], ds.w["train"], domain=domain)
             for d, domain in enumerate(DOMAINS)]
    calibrators = [platt_fit(head.raw_scores(ds.x["dev"]), ds.y["dev"][:, d])
                   for d, head in enumerate(heads)]
    return RouterModel(heads, calibrators)


def prob_rows_for(model: RouterModel, ds: RouterDatasets, split_name: str):
    """(probs, truth_domains, danger) triples for the tuner and evaluators."""
    probs = model.predict_proba(ds.x[split_name])
    truths = [from_multi_hot(bits) for bits in ds.y[split_name]]
    return list(zip(probs, truths, ds.danger[split_name].tolist()))


def _policy_metrics(routed, truth, lm: metrics.LatencyModel) -> dict:
    m = metrics.policy_metrics(routed, truth)
    return {**m, "compute_savings": metrics.compute_savings(m["expected_experts"]),
            "latency_mean_ms": float(lm.per_row(routed).mean())}


def evaluate(model: RouterModel, ds: RouterDatasets, thresholds: policy.Thresholds,
             lm: metrics.LatencyModel | None = None, k: int = 5) -> dict:
    """Full metric report on the test split: per-head discrimination and
    calibration, tuned-policy routing quality, baselines, anytime curves."""
    lm = lm or metrics.LatencyModel()
    probs = model.predict_proba(ds.x["test"])
    y = ds.y["test"]
    n = len(y)

    per_domain = {}
    for d, domain in enumerate(DOMAINS):
        entry = {}
        try:
            entry["roc_auc"] = metrics.roc_auc(probs[:, d], y[:, d])
            entry["pr_auc"] = metrics.pr_auc(probs[:, d], y[:, d])
        except metrics.MetricError:
            entry["roc_auc"] = None
            entry["pr_auc"] = None
        brier, _, ece = metrics.calibration_metrics(probs[:, d], y[:, d])
        entry["brier"] = brier
        entry["ece"] = ece
        per_domain[domain.value] = entry
    defined = [v["roc_auc"] for v in per_domain.values() if v["roc_auc"] is not None]
    macro = {
        "roc_auc": float(np.mean(defined)) if defined else None,
        "brier": float(np.mean([v["brier"] for v in per_domain.values()])),
    }

    truth = y.astype(bool)
    routed, branch = policy.route_batch(probs, thresholds, ds.danger["test"])
    branch_mix = {b: int(np.sum(branch == i)) for i, b in enumerate(policy.BRANCHES)}

    baselines = {
        "consult_all": _policy_metrics(metrics.domain_mask([DOMAINS]).repeat(n, 0), truth, lm),
        "fixed_cardiac_pulmonary": _policy_metrics(
            metrics.domain_mask([LIFE_THREAT_DOMAINS]).repeat(n, 0), truth, lm),
        "learned_router": _policy_metrics(routed, truth, lm),
    }

    def stratum_auc(idx):
        return float(np.mean([metrics.roc_auc(probs[idx][:, d], y[idx][:, d])
                              for d in range(len(DOMAINS))]))

    def stratum_recall_any(idx):
        return metrics.policy_metrics(routed[idx], truth[idx])["recall_any"]

    indices = list(range(n))
    ell_of = lambda i: ds.ell["test"][i]
    anytime = {
        "macro_roc_auc": metrics.anytime(stratum_auc, indices, ell_of, k),
        "recall_any": metrics.anytime(stratum_recall_any, indices, ell_of, k),
    }

    return {
        "router": {"per_domain": per_domain, "macro": macro},
        "policy": {
            "tau_hi": thresholds.tau_hi,
            "tau_lo": thresholds.tau_lo,
            "branch_mix": branch_mix,
            **baselines["learned_router"],
        },
        "baselines": baselines,
        "anytime": anytime,
        "n_test_rows": n,
    }
