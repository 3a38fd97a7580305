"""`pipeline.evaluate` against per-row reference formulas on a seeded synthetic
table: the anytime curves of a row list filtered by a per-row `ell_of`, and
ECE summed over a reliability table built bin by bin. `pipeline.train_router`'s
calibrators against `platt_fit` on the columns of `predict_raw`."""

import warnings

import numpy as np
import pytest

from panelroute import metrics, pipeline, policy, router
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


def defined_mean_auc(probs, y):
    """The mean ROC-AUC over the domains whose rows hold both classes, or None."""
    aucs = [metrics.roc_auc(probs[:, d], y[:, d]) for d in range(len(DOMAINS))
            if 0 < y[:, d].sum() < len(y)]
    return float(np.mean(aucs)) if aucs else None


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
        "macro_roc_auc": row_anytime(lambda idx: defined_mean_auc(probs[idx], y[idx]),
                                     rows, ell_of, 5),
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


def test_a_stratum_lacking_a_class_averages_its_defined_domains():
    """Stratum 2 holds no Musculoskeletal positive: its macro ROC-AUC is the mean
    of the other four domains' AUCs, the report's rule on those rows alone."""
    model, table = synthetic_case()
    y, rows = table["y_test"], table["ell_test"] == 2
    y[rows, 0] |= y[rows, 3]
    y[rows, 3] = 0
    thresholds = policy.Thresholds(0.7, 0.3)
    stratum = {key: value[rows] for key, value in table.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = pipeline.evaluate(model, table, thresholds, k=5)
        alone = pipeline.evaluate(model, stratum, thresholds, k=5)
    probs = model.predict_proba(stratum["x_test"])
    want = float(np.mean([metrics.roc_auc(probs[:, d], stratum["y_test"][:, d])
                          for d in (0, 1, 2, 4)]))
    assert report["anytime"]["macro_roc_auc"][2] == want
    assert alone["router"]["macro"]["roc_auc"] == want
    assert alone["router"]["per_domain"]["Musculoskeletal"]["roc_auc"] is None


def train_dev_case(seed=5, n_train=300, n_dev=200, dim=24):
    """Train and dev tables whose labels follow a random linear router plus
    noise; every domain holds both classes in both splits."""
    rng = np.random.default_rng(seed)
    w, b = rng.standard_normal((len(DOMAINS), dim)), rng.normal(size=len(DOMAINS))
    table = {}
    for name, n in (("train", n_train), ("dev", n_dev)):
        x = rng.standard_normal((n, dim))
        table[f"x_{name}"] = x
        table[f"y_{name}"] = (x @ w.T + b + rng.normal(0, 2, (n, 5)) > 0).astype(np.uint8)
        table[f"w_{name}"] = rng.uniform(0.2, 1.0, n)
    return table


def test_each_calibrator_is_fitted_on_its_column_of_predict_raw():
    """The calibrators are fitted on the raw dev scores `predict_proba` applies
    them to, bit for bit. With OpenBLAS, a per-head matrix-vector product rounds
    some of this case's scores differently from `predict_raw`'s matrix product."""
    table = train_dev_case()
    model = pipeline.train_router(table)
    raw = model.predict_raw(table["x_dev"])
    per_head = [table["x_dev"] @ model.weights[d] + model.biases[d] for d in range(len(DOMAINS))]
    if all(per_head[d].tobytes() == raw[:, d].tobytes() for d in range(len(DOMAINS))):
        pytest.skip("this BLAS rounds per-head and matrix-product scores alike, "
                    "so the case cannot tell the two fitting rules apart")
    for d in range(len(DOMAINS)):
        cal = router.platt_fit(raw[:, d], table["y_dev"][:, d])
        assert model.calibrators[d].tobytes() == np.array([cal.a, cal.b]).tobytes(), d
        assert model.solves["calibrator"][d].x.tobytes() == cal.solve.x.tobytes()
