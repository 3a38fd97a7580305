"""End-to-end orchestration: tokenize -> features -> router -> thresholds ->
evaluation. Shared by the CLI and the test suites."""

from dataclasses import asdict, dataclass, field

import numpy as np

from . import features as feats
from . import metrics, policy
from .events import DOMAINS, LIFE_THREAT_DOMAINS, build_vocabulary, render_episode_tokens, tokenize_episode
from .router import PlattCalibrator, RouterModel, SplitSpec, fit_head, platt_fit, split


@dataclass
class RouterTrainConfig:
    k: int = 5
    seed: int = 0
    use_time: bool = False
    use_prefix_weights: bool = True
    calibrate: bool = True
    svd_rank: int = 256


def tokenize_cohort(episodes, min_count: int = 1, whitelist=None):
    """Build the vocabulary over rendered sequences and encode every episode."""
    token_lists = [render_episode_tokens(ep.events, ep.gold_diag_code) for ep in episodes]
    vocab = build_vocabulary(token_lists, min_count=min_count, whitelist=whitelist)
    for ep in episodes:
        tokenize_episode(ep, vocab)
    return episodes, vocab


@dataclass
class RouterDatasets:
    tfidf: object
    svd: object
    x: dict = field(default_factory=dict)  # split -> feature matrix
    y: dict = field(default_factory=dict)  # split -> (N, 5) 0/1
    w: dict = field(default_factory=dict)  # split -> sample weights
    danger: dict = field(default_factory=dict)  # split -> (N,) bool
    ell: dict = field(default_factory=dict)  # split -> (N,) prefix length
    ids: dict = field(default_factory=dict)  # split -> [episode id] per row


def prepare_router_datasets(episodes, vocab, cfg: RouterTrainConfig) -> RouterDatasets:
    """Split episodes (before prefix expansion), expand, fit TF-IDF and SVD on
    the training rows only, and featurize every split."""
    parts = split(episodes, SplitSpec(seed=cfg.seed))
    rows = {name: feats.expand_cohort(eps, cfg.k)
            for name, eps in zip(("train", "dev", "test"), parts)}
    train_docs = [feats.row_document(r, vocab) for r in rows["train"]]
    tfidf = feats.tfidf_fit(train_docs)
    svd = feats.svd_fit(tfidf.transform(train_docs), rank=cfg.svd_rank, seed=cfg.seed)
    ds = RouterDatasets(tfidf, svd)
    for name, split_rows in rows.items():
        ds.x[name] = feats.featurize_rows(split_rows, vocab, ds.tfidf, ds.svd, cfg.use_time)
        ds.y[name] = np.array([r.label_bits for r in split_rows], dtype=np.float64)
        ds.w[name] = (np.array([r.weight for r in split_rows]) if cfg.use_prefix_weights
                      else np.ones(len(split_rows)))
        ds.danger[name] = np.array([r.danger for r in split_rows], dtype=bool)
        ds.ell[name] = np.array([r.ell for r in split_rows], dtype=np.int64)
        ds.ids[name] = [r.episode_id for r in split_rows]
    return ds


def train_router(ds: RouterDatasets, cfg: RouterTrainConfig) -> RouterModel:
    heads = [fit_head(ds.x["train"], ds.y["train"][:, d], ds.w["train"], domain=domain)
             for d, domain in enumerate(DOMAINS)]
    calibrators = []
    for d, head in enumerate(heads):
        if cfg.calibrate:
            scores = head.raw_scores(ds.x["dev"])
            calibrators.append(platt_fit(scores, ds.y["dev"][:, d]))
        else:
            calibrators.append(PlattCalibrator(1.0, 0.0))
    return RouterModel(heads, calibrators, asdict(cfg))


def prob_rows_for(model: RouterModel, ds: RouterDatasets, split_name: str):
    """(probs, truth_domains, danger) triples for the tuner and evaluators."""
    probs = model.predict_proba(ds.x[split_name])
    truths = [tuple(d for d, b in zip(DOMAINS, bits) if b) for bits in ds.y[split_name]]
    return list(zip(probs, truths, ds.danger[split_name].tolist()))


def _policy_metrics(routed, truth, lm: metrics.LatencyModel) -> dict:
    m = metrics.policy_metrics(routed, truth)
    return {**m, "compute_savings": metrics.compute_savings(m["expected_experts"]),
            "latency_mean_ms": float(lm.per_row(routed).mean())}


def evaluate(model: RouterModel, ds: RouterDatasets, thresholds: policy.Thresholds,
             lm: metrics.LatencyModel | None = None, k: int = 5,
             route_kwargs: dict | None = None) -> dict:
    """Full metric report on the test split: per-head discrimination and
    calibration, tuned-policy routing quality, baselines, anytime curves."""
    lm = lm or metrics.LatencyModel()
    route_kwargs = route_kwargs or {}
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
    routed, branch = policy.route_batch(probs, thresholds, ds.danger["test"], **route_kwargs)
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
