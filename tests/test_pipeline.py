"""`pipeline.evaluate` against per-row reference formulas on a seeded synthetic
table: the anytime curves of a row list filtered by a per-row `ell_of`, and
ECE summed over a reliability table built bin by bin."""

import warnings

import numpy as np

from panelroute import metrics, pipeline, policy
from panelroute.events import DOMAINS
from panelroute.router import RouterModel


def row_anytime(metric_fn, rows, ell_of, k):
    """Each stratum as the list of rows whose `ell_of` is ell; an empty or
    undefined stratum is None."""
    curve = {}
    for ell in range(1, k + 1):
        stratum = [r for r in rows if ell_of(r) == ell]
        if not stratum:
            curve[ell] = None
            continue
        try:
            curve[ell] = metric_fn(stratum)
        except metrics.MetricError:
            curve[ell] = None
    return curve


def table_ece(probs, labels, bins=10):
    """ECE from a reliability table of (count, mean prob, empirical rate) per
    bin, summed in bin order; the top bin includes 1.0."""
    probs = np.asarray(probs, dtype=np.float64)
    outcomes = np.asarray(labels, dtype=np.float64)
    edges = np.linspace(0.0, 1.0, bins + 1)
    table = []
    for b in range(bins):
        lo, hi = edges[b], edges[b + 1]
        mask = (probs >= lo) & (probs < hi) if b < bins - 1 else (probs >= lo) & (probs <= hi)
        count = int(mask.sum())
        table.append((count, float(probs[mask].mean()) if count else None,
                      float(outcomes[mask].mean()) if count else None))
    ece = 0.0
    for count, mean_p, rate in table:
        if count:
            ece += (count / len(probs)) * abs(mean_p - rate)
    return float(ece)


def synthetic_case(seed=3, n=400, dim=6):
    """A router of random heads and calibrators and a test table it scores:
    labels follow the scores, one row in ten has a second label, stratum 4 is
    empty and stratum 5 holds one row, so its AUC is undefined."""
    rng = np.random.default_rng(seed)
    model = RouterModel(rng.standard_normal((len(DOMAINS), dim)), rng.normal(size=len(DOMAINS)),
                        np.column_stack([rng.uniform(0.5, 2.0, len(DOMAINS)),
                                         rng.normal(size=len(DOMAINS))]))
    x = rng.standard_normal((n, dim))
    y = np.zeros((n, len(DOMAINS)), dtype=np.uint8)
    y[np.arange(n), np.argmax(model.predict_raw(x) + rng.normal(0, 2, (n, 5)), axis=1)] = 1
    y[rng.random(n) < 0.1, int(rng.integers(0, 5))] = 1
    ell = rng.integers(1, 4, n).astype(np.int64)
    ell[0] = 5
    table = {"x_test": x, "y_test": y, "w_test": ell / 5.0, "ell_test": ell,
             "danger_test": (rng.random(n) < 0.05).astype(np.uint8)}
    return model, table


def test_evaluate_matches_the_per_row_formulas():
    model, table = synthetic_case()
    thresholds = policy.Thresholds(0.7, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = pipeline.evaluate(model, table, thresholds, k=5)

    probs = model.predict_proba(table["x_test"])
    y = table["y_test"]
    truth = y.astype(bool)
    routed, _ = policy.route_batch(probs, thresholds, table["danger_test"])
    rows = list(range(len(y)))
    ell_of = lambda i: table["ell_test"][i]
    want = {
        "macro_roc_auc": row_anytime(
            lambda idx: float(np.mean([metrics.roc_auc(probs[idx][:, d], y[idx][:, d])
                                       for d in range(len(DOMAINS))])), rows, ell_of, 5),
        "recall_any": row_anytime(
            lambda idx: metrics.policy_metrics(routed[idx], truth[idx])["recall_any"],
            rows, ell_of, 5),
    }
    assert report["anytime"] == want
    assert want["macro_roc_auc"][4] is None and want["macro_roc_auc"][5] is None
    assert want["recall_any"][5] is not None
    for d, domain in enumerate(DOMAINS):
        got = report["router"]["per_domain"][domain.value]
        assert got["brier"] == float(np.mean((probs[:, d] - y[:, d]) ** 2))
        assert got["ece"] == table_ece(probs[:, d], y[:, d])
