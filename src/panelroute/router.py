"""Five one-vs-rest L2-regularized logistic heads over prefix features,
episode-level stratified splitting, Platt calibration per head, and optional
temperature scaling. The router checkpoint holds the heads and calibrators
only; the feature models it scores on live in `features`.

The head objective is sum_i w_i * logloss + (1/(2C)) * ||weights||^2 with an
unpenalized bias; the contract is the optimum, not a specific solver. Heads
and calibrators are minimized by `lbfgs`, a numpy L-BFGS (two-loop recursion
over the last 10 steps, Armijo backtracking from the unit step) that stops as
scipy's L-BFGS-B does: when max|g| <= gtol (1e-6 for heads) or when the
relative decrease of the objective is at most ftol.
"""

import warnings
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .events import DOMAINS, DomainLabel
from .serial import BundleError, Layout, load_bundle, save_bundle

DEFAULT_C = 2.0
DEFAULT_MAX_ITER = 3000
SPLIT_FRACTIONS = (0.70, 0.10, 0.20)  # train, dev, test
TEMPERATURE_BRACKET = (0.05, 20.0)


class RouterError(Exception):
    pass


@dataclass
class SplitSpec:
    seed: int = 0


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
        for s, frac in enumerate(SPLIT_FRACTIONS):
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


class Solve(NamedTuple):
    x: np.ndarray
    nit: int  # iterations taken
    success: bool
    message: str


_LBFGS_MEMORY = 10
_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60  # halvings of the unit step before the line search fails


def _two_loop(g, pairs):
    """H g for the L-BFGS inverse-Hessian estimate H of the (s, y, 1/(s.y))
    pairs, with H0 = (s.y / y.y) I from the latest pair (Nocedal & Wright,
    Algorithm 7.4)."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ q))
        q -= alphas[-1] * y
    s, y, _ = pairs[-1]
    q *= (s @ y) / (y @ y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * (y @ q)) * s
    return q


def lbfgs(objective, x0, gtol: float, ftol: float, max_iter: int) -> Solve:
    """Minimize objective(x) -> (f, gradient) from x0 by L-BFGS.

    Stops, as scipy's L-BFGS-B does, with success when max|g| <= gtol or when
    (f_old - f) / max(|f_old|, |f|, 1) <= ftol; without it after max_iter
    iterations or when 60 halvings of the step find no Armijo decrease. The
    first step is scaled to unit length; later steps start from the unit step
    along the two-loop direction."""
    x = np.array(x0, dtype=np.float64)
    f, g = objective(x)
    pairs = deque(maxlen=_LBFGS_MEMORY)
    f_old, nit = None, 0
    while True:
        if np.max(np.abs(g)) <= gtol:
            return Solve(x, nit, True, "max|g| <= gtol")
        if f_old is not None and f_old - f <= ftol * max(abs(f_old), abs(f), 1.0):
            return Solve(x, nit, True, "relative decrease <= ftol")
        if nit >= max_iter:
            return Solve(x, nit, False, "iteration limit reached")
        d = -_two_loop(g, pairs) if pairs else -g / np.sqrt(g @ g)
        slope, step = g @ d, 1.0
        for _ in range(_MAX_BACKTRACKS):
            x_new = x + step * d
            f_new, g_new = objective(x_new)
            if f_new <= f + _ARMIJO_C * step * slope:
                break
            step *= 0.5
        else:
            return Solve(x, nit, False, "line search found no decrease")
        s, y = x_new - x, g_new - g
        if s @ y > np.finfo(float).eps * (y @ y):  # keep H positive definite
            pairs.append((s, y, 1.0 / (s @ y)))
        x, f_old, f, g, nit = x_new, f, f_new, g_new, nit + 1


def _warn_unconverged(res: Solve, what: str) -> None:
    if not res.success:
        warnings.warn(f"{what}: L-BFGS did not converge after {res.nit} iterations: "
                      f"{res.message}", RuntimeWarning, stacklevel=3)


def fit_head(x, y, sample_weight=None, domain=DomainLabel.CARDIAC,
             c: float = DEFAULT_C, max_iter: int = DEFAULT_MAX_ITER) -> Solve:
    """L2 logistic regression: argmin sum w_i*logloss + ||beta||^2/(2C). The
    solve's x holds the weights beta, then the bias."""
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

    res = lbfgs(objective, np.zeros(dim + 1), gtol=1e-6, ftol=1e-12, max_iter=max_iter)
    _warn_unconverged(res, f"{domain.value} head")
    return res


@dataclass
class PlattCalibrator:
    a: float = 1.0
    b: float = 0.0
    solve: Solve = field(default=None, compare=False, repr=False)  # set by platt_fit only

    def __call__(self, scores):
        return _sigmoid(self.a * np.asarray(scores) + self.b)


def platt_fit(scores, labels) -> PlattCalibrator:
    """Sigmoid calibration: (a, b) fitted once on all the (score, label) pairs,
    from the identity; single-class data gets the identity."""
    if len(np.unique(labels)) < 2:
        warnings.warn("single-class calibration data; using identity calibration")
        return PlattCalibrator(1.0, 0.0)
    scores = np.asarray(scores, dtype=np.float64)
    sign = np.where(np.asarray(labels) > 0, 1.0, -1.0)

    def objective(theta):
        a, b = theta
        margins = sign * (a * scores + b)
        loss = np.sum(_logloss_terms(margins))
        p = _sigmoid(-margins)
        g = -p * sign
        return loss, np.array([g @ scores, g.sum()])

    res = lbfgs(objective, np.array([1.0, 0.0]), gtol=1e-9, ftol=1e-14,
                max_iter=DEFAULT_MAX_ITER)
    _warn_unconverged(res, "Platt fit")
    return PlattCalibrator(float(res.x[0]), float(res.x[1]), res)


def temperature_fit(logits, labels) -> float:
    """Temperature T in TEMPERATURE_BRACKET minimizing cross-entropy of
    sigmoid(s/T), to within 1e-6."""
    logits = np.asarray(logits, dtype=np.float64)
    sign = np.where(np.asarray(labels) > 0, 1.0, -1.0)
    if len(np.unique(sign)) < 2:
        raise RouterError("temperature_fit needs both classes")

    def nll(t):
        return float(np.sum(_logloss_terms(sign * logits / t)))

    # Golden-section search: the NLL is convex in 1/t, so unimodal in t.
    shrink = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = TEMPERATURE_BRACKET
    a, b = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fa, fb = nll(a), nll(b)
    while hi - lo > 1e-6:
        if fa <= fb:
            hi, b, fb = b, a, fa
            a = hi - shrink * (hi - lo)
            fa = nll(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + shrink * (hi - lo)
            fb = nll(b)
    return (lo + hi) / 2.0


@dataclass
class RouterModel:
    weights: np.ndarray  # (5, dim) float64: a head per domain, in DOMAINS order
    biases: np.ndarray  # (5,) float64
    calibrators: np.ndarray  # (5, 2) float64: each head's Platt (a, b)
    config_hash: str = ""  # the stamp `load` read from the checkpoint, if any
    solves: dict = field(default=None, repr=False)  # each part's Solves, set by train_router

    def predict_raw(self, x) -> np.ndarray:
        return np.atleast_2d(np.asarray(x, dtype=np.float64)) @ self.weights.T + self.biases

    def predict_proba(self, x) -> np.ndarray:
        return PlattCalibrator(*self.calibrators.T)(self.predict_raw(x))

    def save(self, path, extra_meta: dict | None = None) -> None:
        meta = {"kind": "router", "calibrators": self.calibrators.tolist(),
                "biases": self.biases.tolist(), **(extra_meta or {})}
        save_bundle(path, meta, {"head_weights": self.weights})

    @classmethod
    def load(cls, path, dim) -> "RouterModel":
        """The router in `path`, refused unless its heads score features of width
        `dim`, given as a width or as (width, where it was read), and every value
        is finite."""
        meta, arrays = load_bundle(path, LAYOUT, dim=dim)
        model = cls(arrays["head_weights"], np.array(meta["biases"], dtype=np.float64),
                    np.array(meta["calibrators"], dtype=np.float64), meta.get("config_hash", ""))
        for where, values in (("array 'head_weights'", model.weights),
                              ("meta key 'biases'", model.biases),
                              ("meta key 'calibrators'", model.calibrators)):
            if not np.isfinite(values).all():
                raise BundleError(f"{path}: {where} holds a non-finite value")
        return model


# router.bin: a head per domain over features of width dim, and each head's Platt (a, b).
LAYOUT = Layout("router", {"biases": (float, (len(DOMAINS),)),
                           "calibrators": (float, (len(DOMAINS), 2))},
                {"head_weights": (np.float64, (len(DOMAINS), "dim"))})
