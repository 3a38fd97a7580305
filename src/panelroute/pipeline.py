"""End-to-end orchestration: tokenize -> features -> router -> thresholds ->
evaluation. Shared by the CLI and the test suites."""

import numpy as np

from . import features as feats
from . import metrics, policy
from .events import (DOMAINS, LIFE_THREAT_DOMAINS, build_vocabulary, encode_tokens,
                     render_episode_tokens)
from .router import RouterModel, SplitSpec, fit_head, platt_fit, split

SPLITS = ("train", "dev", "test")
# The feature table: the dtype and shape of each field's array per split, with
# n_<split> rows and features of width dim. features.bin stores the test split's.
TABLE = {f"{field}_{name}": (dtype, (f"n_{name}", *dims)) for field, dtype, dims in (
    ("x", np.float64, ("dim",)), ("y", np.uint8, (len(DOMAINS),)), ("w", np.float64, ()),
    ("ell", np.int64, ()), ("danger", np.uint8, ())) for name in SPLITS}


def tokenize_cohort(episodes, min_count: int = 1):
    """Render every episode once, build the vocabulary over the renderings and
    encode them into `ep.tokens`, as `tokenize_episode` would."""
    token_lists = [render_episode_tokens(ep.events, ep.gold_diag_code) for ep in episodes]
    vocab = build_vocabulary(token_lists, min_count=min_count)
    for ep, texts in zip(episodes, token_lists):
        ep.tokens = encode_tokens(texts, vocab)
    return episodes, vocab


def split_rows(episodes, k: int, seed: int, names) -> dict:
    """Each named split's prefix rows: the episodes are split (before prefix
    expansion), and only the splits in `names` are expanded."""
    parts = dict(zip(SPLITS, split(episodes, SplitSpec(seed=seed))))
    return {name: feats.expand_cohort(parts[name], k) for name in names}


def build_table(rows: dict, vocab, tfidf, svd) -> dict:
    """The TABLE arrays of each split in `rows` (split name -> prefix rows),
    projected with `tfidf` and `svd`: each row weighs ell/K, and `y` (N, 5)
    and `danger` (N,) are 0/1 uint8."""
    table = {}
    for name, prefixes in rows.items():
        table[f"x_{name}"] = feats.featurize_rows(prefixes, vocab, tfidf, svd)
        table[f"y_{name}"] = np.array([r.label_bits for r in prefixes],
                                      dtype=np.uint8).reshape(-1, len(DOMAINS))
        table[f"w_{name}"] = np.array([r.weight for r in prefixes])
        table[f"ell_{name}"] = np.array([r.ell for r in prefixes], dtype=np.int64)
        table[f"danger_{name}"] = np.array([r.danger for r in prefixes], dtype=np.uint8)
    return table


def prepare_router_datasets(rows: dict, vocab, svd_rank: int):
    """(test table, tfidf, svd): fit TF-IDF and SVD on `rows["train"]` only,
    and build the test split's table, the one features.bin stores."""
    train_docs = [feats.row_document(r, vocab) for r in rows["train"]]
    tfidf = feats.tfidf_fit(train_docs)
    svd = feats.svd_fit(tfidf.transform(train_docs), tfidf.n_terms, rank=svd_rank)
    return build_table({"test": rows["test"]}, vocab, tfidf, svd), tfidf, svd


def train_router(table: dict) -> RouterModel:
    """Fit a head per domain on train and Platt-calibrate each on dev."""
    heads = [fit_head(table["x_train"], table["y_train"][:, d], table["w_train"], domain=domain)
             for d, domain in enumerate(DOMAINS)]
    calibrators = [platt_fit(head.raw_scores(table["x_dev"]), table["y_dev"][:, d])
                   for d, head in enumerate(heads)]
    return RouterModel(np.stack([h.weights for h in heads]), np.array([h.bias for h in heads]),
                       np.array([[cal.a, cal.b] for cal in calibrators]),
                       solves={"head": [h.solve for h in heads],
                               "calibrator": [cal.solve for cal in calibrators]})


def prob_rows_for(model: RouterModel, table: dict, split_name: str):
    """(probs, truth, danger) of a split, for the tuner and evaluators: the
    router's (N, 5) probabilities, the (N, 5) boolean truth mask and the (N,)
    boolean danger flags."""
    return (model.predict_proba(table[f"x_{split_name}"]),
            table[f"y_{split_name}"].astype(bool), table[f"danger_{split_name}"].astype(bool))


def _policy_metrics(routed, truth, lm: metrics.LatencyModel) -> dict:
    m = metrics.policy_metrics(routed, truth)
    return {**m, "compute_savings": metrics.compute_savings(m["expected_experts"]),
            "latency_mean_ms": float(lm.per_row(routed).mean())}


def evaluate(model: RouterModel, table: dict, thresholds: policy.Thresholds,
             lm: metrics.LatencyModel | None = None, k: int = 5) -> dict:
    """Full metric report on the test split: per-head discrimination and
    calibration, tuned-policy routing quality, baselines, anytime curves.
    An empty test split raises MetricError."""
    lm = lm or metrics.LatencyModel()
    n = len(table["y_test"])
    if n == 0:
        raise metrics.MetricError("the test split has no rows to evaluate")
    probs, truth, danger = prob_rows_for(model, table, "test")

    per_domain = {}
    for d, domain in enumerate(DOMAINS):
        entry = {}
        try:
            entry["roc_auc"] = metrics.roc_auc(probs[:, d], truth[:, d])
            entry["pr_auc"] = metrics.pr_auc(probs[:, d], truth[:, d])
        except metrics.MetricError:
            entry["roc_auc"] = None
            entry["pr_auc"] = None
        entry["brier"], entry["ece"] = metrics.calibration_metrics(probs[:, d], truth[:, d])
        per_domain[domain.value] = entry
    defined = [v["roc_auc"] for v in per_domain.values() if v["roc_auc"] is not None]
    macro = {
        "roc_auc": float(np.mean(defined)) if defined else None,
        "brier": float(np.mean([v["brier"] for v in per_domain.values()])),
    }

    routed, branch = policy.route_batch(probs, thresholds, danger)
    branch_mix = {b: int(np.sum(branch == i)) for i, b in enumerate(policy.BRANCHES)}

    baselines = {
        "consult_all": _policy_metrics(metrics.domain_mask([DOMAINS]).repeat(n, 0), truth, lm),
        "fixed_cardiac_pulmonary": _policy_metrics(
            metrics.domain_mask([LIFE_THREAT_DOMAINS]).repeat(n, 0), truth, lm),
        "learned_router": _policy_metrics(routed, truth, lm),
    }

    def stratum_auc(idx):
        return float(np.mean([metrics.roc_auc(probs[idx, d], truth[idx, d])
                              for d in range(len(DOMAINS))]))

    def stratum_recall_any(idx):
        return metrics.policy_metrics(routed[idx], truth[idx])["recall_any"]

    anytime = {
        "macro_roc_auc": metrics.anytime(stratum_auc, table["ell_test"], k),
        "recall_any": metrics.anytime(stratum_recall_any, table["ell_test"], k),
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
