"""Safety-first routing decision, threshold grid search under a life-threat
recall constraint, deterministic arbitration, and the audit log."""

import json
from dataclasses import dataclass, field

import numpy as np

from .events import DOMAINS, from_multi_hot
from .metrics import LIFE_IDX as _LIFE_IDX, policy_metrics
from .serial import write_lines

FAIL_OPEN_FLOOR = 0.25  # a row whose every probability is below it fails open

TOP1_LIFE = "TOP1_LIFE"
TOP2 = "TOP2"
FAIL_OPEN = "FAIL_OPEN"
BRANCHES = (TOP1_LIFE, TOP2, FAIL_OPEN)  # indexed by route_batch's branch code


class PolicyError(Exception):
    pass


@dataclass(frozen=True)
class Thresholds:
    """The routing policy: every parameter `route_batch` reads but FAIL_OPEN_FLOOR."""
    tau_hi: float
    tau_lo: float
    life_guard_tau: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.tau_lo <= self.tau_hi <= 1.0):
            raise PolicyError(f"need 0 <= tau_lo <= tau_hi <= 1, "
                              f"got tau_hi={self.tau_hi}, tau_lo={self.tau_lo}")
        if self.life_guard_tau is not None and not 0.0 <= self.life_guard_tau <= 1.0:
            raise PolicyError(f"need 0 <= life_guard_tau <= 1, got {self.life_guard_tau}")


@dataclass
class RouteDecision:
    """One routing decision; `dataclasses.asdict` of it is the printed record."""
    route: tuple  # DomainLabel tuple, priority-ordered
    branch: str
    probs: tuple
    tau_hi: float
    tau_lo: float
    timestamp: str | None = None


def route_batch(probs, thr: Thresholds, danger):
    """Apply the routing rules to each row of an (N, 5) probability matrix:

    (a) danger flag, or all probabilities below the fail-open floor -> all 5;
    (b) a life-threat domain at or above tau_hi -> the more probable of
        Cardiac and Pulmonary alone;
    (c) any domain at or above tau_lo -> top-2 by probability, ties broken by
        priority; with `thr.life_guard_tau` set, Cardiac and Pulmonary are
        added whenever their max reaches that guard threshold;
    (d) otherwise fail open.

    Returns an (N, 5) boolean route mask and an (N,) branch code indexing
    BRANCHES. Ties go to the lower domain index.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 2 or p.shape[1] != len(DOMAINS):
        raise PolicyError(f"expected (N, {len(DOMAINS)}) probabilities, got shape {p.shape}")
    if not np.all((p >= 0) & (p <= 1)):
        raise PolicyError("probabilities must be finite and within [0, 1]")
    danger = np.asarray(danger, dtype=bool)
    if danger.shape != (len(p),):
        raise PolicyError(f"expected {len(p)} danger flags, got shape {danger.shape}")
    p_max, life_max = p.max(axis=1), p[:, _LIFE_IDX].max(axis=1)
    routable = ~danger & (p_max >= FAIL_OPEN_FLOOR)
    top1 = routable & (life_max >= thr.tau_hi)
    top2 = routable & ~top1 & (p_max >= thr.tau_lo)
    branch = np.where(top1, 0, np.where(top2, 1, 2))

    mask = np.zeros(p.shape, dtype=bool)
    mask[branch == 2] = True
    pick = np.asarray(_LIFE_IDX)[np.argmax(p[:, _LIFE_IDX], axis=1)]
    mask[top1, pick[top1]] = True
    pair = np.argsort(-p, axis=1, kind="stable")[:, :2]
    mask[np.flatnonzero(top2)[:, None], pair[top2]] = True
    if thr.life_guard_tau is not None:
        mask[:, _LIFE_IDX] |= (top2 & (life_max >= thr.life_guard_tau))[:, None]
    return mask, branch


def route(probs, thr: Thresholds, danger_flag: bool = False) -> RouteDecision:
    """One-row view of `route_batch`, returned as a RouteDecision."""
    p = np.asarray(probs, dtype=np.float64)
    if p.shape != (len(DOMAINS),):
        raise PolicyError(f"expected {len(DOMAINS)} probabilities, got shape {p.shape}")
    mask, branch = route_batch(p[None, :], thr, [danger_flag])
    return RouteDecision(from_multi_hot(mask[0]), BRANCHES[branch[0]],
                         tuple(float(v) for v in p), thr.tau_hi, thr.tau_lo)


def default_grid():
    """tau_hi in {0.50..0.95 step .05} x tau_lo in {0.10..0.50 step .05}."""
    his = [round(0.50 + 0.05 * i, 2) for i in range(10)]
    los = [round(0.10 + 0.05 * i, 2) for i in range(9)]
    return [(hi, lo) for hi in his for lo in los]


@dataclass
class TuneResult:
    tau_hi: float
    tau_lo: float
    life_recall: float
    expected_experts: float
    constraint_met: bool
    table: list = field(default_factory=list)


def _evaluate_point(thr: Thresholds, probs, truth, danger):
    routed, _ = route_batch(probs, thr, danger)
    return {"tau_hi": thr.tau_hi, "tau_lo": thr.tau_lo, **policy_metrics(routed, truth)}


def tune_thresholds(probs, truth, danger, grid=None, constraint: float = 0.98,
                    **options) -> TuneResult:
    """Grid search (tau_hi, tau_lo) with tau_lo <= tau_hi.

    probs: (N, 5) probabilities; truth: (N, 5) boolean truth mask; danger:
    (N,) danger flags, as `pipeline.prob_rows_for` returns them.
    options: the other `Thresholds` fields, shared by every grid point.
    Selection: among constraint-satisfying points, minimal E[|R|] (ties:
    higher life recall, then ascending (tau_hi, tau_lo)); if none satisfies
    the constraint, maximal life recall (ties: lower E[|R|], then ascending
    point).
    """
    if grid is None:
        grid = default_grid()
    grid = [(hi, lo) for hi, lo in grid if lo <= hi]
    if not grid:
        raise PolicyError("empty threshold grid")
    truth = np.asarray(truth, dtype=bool)
    if not truth[:, _LIFE_IDX].any():
        raise PolicyError("no Cardiac or Pulmonary episode; safety constraint undefined")

    table = [_evaluate_point(Thresholds(hi, lo, **options), probs, truth, danger)
             for hi, lo in grid]
    feasible = [row for row in table if row["life_recall"] >= constraint]
    if feasible:
        best = min(
            feasible,
            key=lambda r: (r["expected_experts"], -r["life_recall"], r["tau_hi"], r["tau_lo"]),
        )
        met = True
    else:
        best = min(
            table,
            key=lambda r: (-r["life_recall"], r["expected_experts"], r["tau_hi"], r["tau_lo"]),
        )
        met = False
    return TuneResult(
        tau_hi=best["tau_hi"],
        tau_lo=best["tau_lo"],
        life_recall=best["life_recall"],
        expected_experts=best["expected_experts"],
        constraint_met=met,
        table=table,
    )


def write_frontier_csv(path, table) -> None:
    cols = ["tau_hi", "tau_lo", "life_recall", "expected_experts", "recall_any", "recall_all"]
    write_lines(path, [",".join(cols) + "\n",
                       *(",".join(repr(row[c]) for c in cols) + "\n" for row in table)])


def arbitrate(suggestions: dict) -> list:
    """Merge per-expert ranked lists: expert priority first, then within-
    expert rank; duplicates keep the highest-priority occurrence.

    Returns [(item, attributed_domain)] in merged order.
    """
    merged = []
    seen = set()
    for domain in DOMAINS:
        for item in suggestions.get(domain, []):
            if item not in seen:
                seen.add(item)
                merged.append((item, domain))
    return merged


class AuditLog:
    """Append-only JSONL audit sink; one record per routed prefix."""

    def __init__(self, path):
        self.path = path

    def append(self, record: dict) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
