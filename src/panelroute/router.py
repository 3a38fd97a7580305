"""Five one-vs-rest L2-regularized logistic heads over prefix features,
episode-level stratified splitting, Platt calibration per head, and optional
temperature scaling. The router checkpoint holds the heads and calibrators
only; the feature models it scores on live in `features`.

The head objective is sum_i w_i * logloss + (1/(2C)) * ||weights||^2 with an
unpenalized bias; the contract is the optimum, not a specific solver, so we
minimize with L-BFGS and a 1e-6 gradient stop.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .events import DOMAINS, DomainLabel
from .serial import load_bundle, save_bundle

DEFAULT_C = 2.0
DEFAULT_MAX_ITER = 3000


class RouterError(Exception):
    pass


@dataclass
class SplitSpec:
    fractions: tuple = (0.70, 0.10, 0.20)
    seed: int = 0

    def __post_init__(self):
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise RouterError("split fractions must sum to 1")


def split(episodes, spec: SplitSpec):
    """Episode-level 70/10/20 split, stratified on the label signature.

    All prefixes of an episode inherit its split because splitting happens
    before prefix expansion.
    """
    episodes = list(episodes)
    if len(episodes) < 10:
        raise RouterError("need at least 10 episodes to split")
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0x5917]))
    groups: dict[tuple, list] = {}
    for i, ep in enumerate(episodes):
        groups.setdefault(ep.label_bits(), []).append(i)
    out = ([], [], [])
    for key in sorted(groups):
        idx = groups[key]
        idx = [idx[int(j)] for j in rng.permutation(len(idx))]
        cum = 0.0
        taken = 0
        for s, frac in enumerate(spec.fractions):
            cum += frac
            upto = round(cum * len(idx))
            out[s].extend(idx[taken:upto])
            taken = upto
    sets = tuple([episodes[i] for i in sorted(part)] for part in out)
    in_input = {d for ep in episodes for d in ep.labels}
    for s, part in enumerate(sets):
        present = {d for ep in part for d in ep.labels}
        missing = [d.value for d in DOMAINS if d in in_input and d not in present]
        if missing:
            warnings.warn(f"split {s}: no episodes for {missing}")
    return sets


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _logloss_terms(margins):
    # log(1 + exp(-m)) computed stably
    return np.logaddexp(0.0, -margins)


def _warn_unconverged(res, what: str) -> None:
    if not res.success:
        warnings.warn(f"{what}: L-BFGS did not converge after {res.nit} iterations: "
                      f"{res.message}", RuntimeWarning, stacklevel=3)


@dataclass
class LogisticHead:
    domain: DomainLabel
    weights: np.ndarray = None
    bias: float = 0.0

    def raw_scores(self, x) -> np.ndarray:
        return np.asarray(x) @ self.weights + self.bias


def fit_head(x, y, sample_weight=None, domain=DomainLabel.CARDIAC,
             c: float = DEFAULT_C, max_iter: int = DEFAULT_MAX_ITER) -> LogisticHead:
    """L2 logistic regression: argmin sum w_i*logloss + ||beta||^2/(2C)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if sample_weight is None:
        sample_weight = np.ones_like(y)
    sample_weight = np.asarray(sample_weight, dtype=np.float64)
    classes = np.unique(y)
    if len(classes) < 2:
        raise RouterError(f"{domain.value}: single-class input, head is degenerate")
    sign = np.where(y > 0, 1.0, -1.0)
    n, dim = x.shape

    def objective(theta):
        beta, b = theta[:dim], theta[dim]
        margins = sign * (x @ beta + b)
        loss = np.sum(sample_weight * _logloss_terms(margins)) + beta @ beta / (2.0 * c)
        p = _sigmoid(-margins)  # d logloss / d margin = -p
        g_margin = -sample_weight * p * sign
        grad = np.empty(dim + 1)
        grad[:dim] = x.T @ g_margin + beta / c
        grad[dim] = g_margin.sum()
        return loss, grad

    from scipy import optimize  # deferred: routing never fits, so never pays this import

    res = optimize.minimize(
        objective,
        np.zeros(dim + 1),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter, "gtol": 1e-6, "ftol": 1e-12},
    )
    _warn_unconverged(res, f"{domain.value} head")
    return LogisticHead(domain=domain, weights=res.x[:dim].copy(), bias=float(res.x[dim]))


@dataclass
class PlattCalibrator:
    a: float = 1.0
    b: float = 0.0

    def __call__(self, scores):
        return _sigmoid(self.a * np.asarray(scores) + self.b)


def _fit_sigmoid_ab(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    sign = np.where(np.asarray(labels) > 0, 1.0, -1.0)

    def objective(theta):
        a, b = theta
        margins = sign * (a * scores + b)
        loss = np.sum(_logloss_terms(margins))
        p = _sigmoid(-margins)
        g = -p * sign
        return loss, np.array([g @ scores, g.sum()])

    from scipy import optimize

    res = optimize.minimize(objective, np.array([1.0, 0.0]), jac=True,
                            method="L-BFGS-B", options={"gtol": 1e-9, "ftol": 1e-14})
    _warn_unconverged(res, "Platt fit")
    return float(res.x[0]), float(res.x[1])


def platt_fit(scores, labels, folds: int = 3) -> PlattCalibrator:
    """Sigmoid calibration: per-fold fits validate stability, final (a, b)
    refit on the pooled (score, label) pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if len(np.unique(labels)) < 2:
        warnings.warn("single-class calibration data; using identity calibration")
        return PlattCalibrator(1.0, 0.0)
    fold_ids = np.arange(len(scores)) % folds
    for f in range(folds):
        mask = fold_ids != f
        if len(np.unique(labels[mask])) < 2:
            continue
        _fit_sigmoid_ab(scores[mask], labels[mask])
    a, b = _fit_sigmoid_ab(scores, labels)
    return PlattCalibrator(a, b)


def temperature_fit(logits, labels, bracket=(0.05, 20.0)) -> float:
    """Temperature T minimizing cross-entropy of sigmoid(s/T)."""
    logits = np.asarray(logits, dtype=np.float64)
    sign = np.where(np.asarray(labels) > 0, 1.0, -1.0)
    if len(np.unique(sign)) < 2:
        raise RouterError("temperature_fit needs both classes")

    def nll(t):
        return float(np.sum(_logloss_terms(sign * logits / t)))

    from scipy import optimize

    res = optimize.minimize_scalar(nll, bounds=bracket, method="bounded",
                                   options={"xatol": 1e-6})
    return float(res.x)


@dataclass
class RouterModel:
    heads: list  # 5 LogisticHead in DOMAINS order
    calibrators: list  # 5 PlattCalibrator
    config: dict = field(default_factory=dict)
    config_hash: str = ""  # the stamp `load` read from the checkpoint, if any

    def predict_raw(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        w = np.stack([h.weights for h in self.heads])
        b = np.array([h.bias for h in self.heads])
        return x @ w.T + b

    def predict_proba(self, x) -> np.ndarray:
        raw = self.predict_raw(x)
        out = np.empty_like(raw)
        for d, cal in enumerate(self.calibrators):
            out[:, d] = cal(raw[:, d])
        return out

    def save(self, path, extra_meta: dict | None = None) -> None:
        meta = {
            "kind": "router",
            "config": self.config,
            "domains": [d.value for d in DOMAINS],
            "calibrators": [[cal.a, cal.b] for cal in self.calibrators],
            "biases": [h.bias for h in self.heads],
            **(extra_meta or {}),
        }
        save_bundle(path, meta, {"head_weights": np.stack([h.weights for h in self.heads])})

    @classmethod
    def load(cls, path) -> "RouterModel":
        meta, arrays = load_bundle(path, "router")
        heads = [LogisticHead(domain=d, weights=arrays["head_weights"][i],
                              bias=float(meta["biases"][i]))
                 for i, d in enumerate(DOMAINS)]
        calibrators = [PlattCalibrator(a, b) for a, b in meta["calibrators"]]
        return cls(heads, calibrators, meta["config"], meta.get("config_hash", ""))
