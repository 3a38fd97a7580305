"""Discrimination, calibration, routing-quality, compute/latency, anytime,
and bootstrap metrics. All functions are pure over immutable inputs."""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .events import DOMAINS, LIFE_THREAT_DOMAINS

LIFE_IDX = [DOMAINS.index(d) for d in LIFE_THREAT_DOMAINS]


class MetricError(Exception):
    pass


def _mid_ranks(x) -> np.ndarray:
    """1-based ranks of x; tied values share the mean of the ranks they span."""
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    starts = np.flatnonzero(np.r_[True, sorted_x[1:] != sorted_x[:-1]])
    ends = np.r_[starts[1:], len(x)]
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def roc_auc(scores, labels) -> float:
    """P(random positive outranks random negative), ties counted 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("roc_auc undefined for single-class labels")
    if np.isnan(scores).any():
        return float("nan")
    ranks = _mid_ranks(scores)
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def pr_auc(scores, labels) -> float:
    """Precision-recall step integration (average precision over thresholds):
    one step per run of tied scores, added left to right."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    n_pos = int(labels.sum())
    if n_pos == 0 or n_pos == len(labels):
        raise MetricError("pr_auc undefined for single-class labels")
    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    last = np.flatnonzero(np.r_[scores[1:] != scores[:-1], True])
    tp = np.cumsum(labels[order])[last]
    recall = tp / n_pos
    return float(np.cumsum(np.diff(recall, prepend=0.0) * (tp / (last + 1)))[-1])


def domain_mask(domain_sets) -> np.ndarray:
    """(N, 5) boolean mask; column j marks DOMAINS[j] in row i's domain set."""
    rows = [[d in s for d in DOMAINS] for s in map(set, domain_sets)]
    return np.array(rows, dtype=bool).reshape(-1, len(DOMAINS))


def mask_recalls(routed, truth):
    """(Recall_any, Recall_all, life-threat recall) over (N, 5) boolean route
    and truth masks. Rows with no truth domain are excluded with a warning.
    Life-threat recall is restricted to rows whose truth touches Cardiac or
    Pulmonary."""
    routed = np.asarray(routed, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    keep = truth.any(axis=1)
    if not keep.all():
        warnings.warn(f"{int((~keep).sum())} episode(s) with empty truth set excluded from recalls")
    if not keep.any():
        raise MetricError("no episodes with non-empty truth sets")
    routed, truth = routed[keep], truth[keep]
    any_hits = (routed & truth).any(axis=1)
    all_hits = ~(truth & ~routed).any(axis=1)
    life = truth[:, LIFE_IDX].any(axis=1)
    life_hits = routed[life][:, LIFE_IDX].any(axis=1)
    life_recall = float(life_hits.mean()) if life.any() else float("nan")
    return float(any_hits.mean()), float(all_hits.mean()), life_recall


def routing_recalls(routes, truths):
    """`mask_recalls` over routed domain sets vs truth domain sets."""
    return mask_recalls(domain_mask(routes), domain_mask(truths))


def policy_metrics(routed, truth) -> dict:
    """Recalls and E[|R|] (mean route size) of an (N, 5) route mask vs its truth mask."""
    r_any, r_all, r_life = mask_recalls(routed, truth)
    return {"life_recall": r_life, "expected_experts": float(np.sum(routed, axis=1).mean()),
            "recall_any": r_any, "recall_all": r_all}


@dataclass
class LatencyModel:
    l_router: float = 10.0
    per_expert: dict = field(default_factory=dict)  # {DomainLabel: ms}
    l_expert_default: float = 50.0

    def expert_ms(self, domain) -> float:
        return float(self.per_expert.get(domain, self.l_expert_default))

    def per_row(self, routed) -> np.ndarray:
        """L_router + consulted experts' times per row of an (N, 5) route mask,
        added in DOMAINS order (a cumulative sum keeps it; a dot product would not)."""
        times = np.array([self.expert_ms(d) for d in DOMAINS])
        return self.l_router + np.cumsum(np.where(routed, times, 0.0), axis=1)[:, -1]


def latency(routes, lm: LatencyModel):
    """Per-episode L_i over routed domain sets, plus their mean."""
    per = lm.per_row(domain_mask(routes))
    return per.tolist(), float(per.mean()) if per.size else float("nan")


def compute_savings(expected_experts: float) -> float:
    """Fraction of expert compute saved versus consult-all (5 experts)."""
    if not 1.0 <= expected_experts <= 5.0:
        raise MetricError(f"expected experts {expected_experts} outside [1, 5]")
    return 1.0 - expected_experts / 5.0


def calibration_metrics(probs, labels, bins: int = 10):
    """Brier score, reliability table, and expected calibration error."""
    probs = np.asarray(probs, dtype=np.float64)
    outcomes = np.asarray(labels, dtype=np.float64)
    brier = float(np.mean((probs - outcomes) ** 2))
    edges = np.linspace(0.0, 1.0, bins + 1)
    table = []
    ece = 0.0
    n = len(probs)
    for b in range(bins):
        lo, hi = edges[b], edges[b + 1]
        mask = (probs >= lo) & (probs < hi) if b < bins - 1 else (probs >= lo) & (probs <= hi)
        count = int(mask.sum())
        if count == 0:
            table.append({"bin": b, "mean_prob": None, "empirical_rate": None, "count": 0})
            continue
        mean_p = float(probs[mask].mean())
        rate = float(outcomes[mask].mean())
        table.append({"bin": b, "mean_prob": mean_p, "empirical_rate": rate, "count": count})
        ece += (count / n) * abs(mean_p - rate)
    return brier, table, float(ece)


def ndcg_at_k(ranked, relevant, k: int) -> float:
    """Binary-relevance NDCG with log2 discounting."""
    if k < 1:
        raise MetricError("k must be >= 1")
    relevant = set(relevant)
    if not relevant:
        warnings.warn("empty relevant set; NDCG is 0")
        return 0.0
    dcg = sum(
        1.0 / np.log2(i + 2) for i, item in enumerate(ranked[:k]) if item in relevant
    )
    ideal = sum(1.0 / np.log2(i + 2) for i in range(min(k, len(relevant))))
    return float(dcg / ideal)


def topk_recall(ranked, target, k: int) -> float:
    if k < 1:
        raise MetricError("k must be >= 1")
    return 1.0 if target in ranked[:k] else 0.0


def anytime(metric_fn, rows, ell_of, k: int) -> dict:
    """Evaluate metric_fn per prefix-length stratum; undefined strata are
    None, not zero."""
    curve = {}
    for ell in range(1, k + 1):
        stratum = [r for r in rows if ell_of(r) == ell]
        if not stratum:
            curve[ell] = None
            continue
        try:
            curve[ell] = metric_fn(stratum)
        except MetricError:
            curve[ell] = None
    return curve


def bootstrap_ci(metric_fn, episodes, b: int = 1000, level: float = 0.95, seed: int = 0):
    """Percentile interval over B episode-level resamples (all prefixes of an
    episode move together because resampling happens at episode granularity)."""
    episodes = list(episodes)
    if len(episodes) < 10:
        raise MetricError("bootstrap needs at least 10 episodes")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB007]))
    n = len(episodes)
    reps = np.empty(b)
    for i in range(b):
        idx = rng.integers(0, n, size=n)
        reps[i] = metric_fn([episodes[j] for j in idx])
    alpha = (1.0 - level) / 2.0
    return float(np.quantile(reps, alpha)), float(np.quantile(reps, 1.0 - alpha))
