"""Seeded synthetic episode generator with per-domain event grammars, plus
the ingestion merge and proportional-sampling procedures.

Every episode draws from its own RNG stream `default_rng(SeedSequence([seed,
episode_index]))`, so cohorts are reproducible across platforms and
generation order.

A weighted draw consumes the same stream as `Generator.choice(n, p=p)`: one
`rng.random()` searched in the cdf that `choice` would build, here built once
per `generate_cohort` call (`_draw_table`). A uniform pick is
`rng.integers(0, n)`, as `Generator.choice(n)` draws it. So cohorts are
byte-identical to those drawn through `choice`; the pinned cohort digests in
`tests/test_cohort.py` guard this.
"""

import bisect
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .events import (
    DOMAINS,
    LAB_BINS,
    ClinicalEvent,
    DomainLabel,
    Episode,
    EventKind,
)
from .serial import write_json

# Paper-shaped default domain mixture (Cardiac, Pulmonary, Gastro, MSK, Psych).
DEFAULT_MIXTURE = (0.082, 0.228, 0.326, 0.038, 0.326)


class CohortConfigError(Exception):
    pass


@dataclass
class DomainGrammar:
    domain: DomainLabel
    initial_codes: list  # [(code, weight)]
    order_pool: list  # [(order, weight)]
    lab_pool: list  # [(test, {bin: weight})]
    gold_codes: list  # [(code, weight)]
    signal_strength: float = 0.95
    length_range: tuple = (6, 24)

    def validate(self, k: int) -> None:
        self.check()
        if self.length_range[0] < k:
            raise CohortConfigError(f"k = {k} exceeds {self.domain.value}'s length_range low "
                                    f"end {self.length_range[0]}")

    def check(self) -> None:
        """Refuse a signal_strength outside [0, 1], a length_range that is not
        two integers low <= high, a lab bin outside `LAB_BINS`, an empty pool or
        bin dict, and any weight that is not a positive finite number: the draw
        tables are built without `choice`'s own checks."""
        if not (0.0 <= self.signal_strength <= 1.0):
            raise CohortConfigError(f"{self.domain.value}: signal_strength out of [0,1]")
        low_high = self.length_range
        if not (len(low_high) == 2 and all(type(n) is int for n in low_high)
                and low_high[0] <= low_high[1]):
            raise CohortConfigError(f"{self.domain.value}: length_range {list(low_high)} must "
                                    "be two integers, low <= high")
        for test, bins in self.lab_pool:
            if unknown := sorted(set(bins) - set(LAB_BINS)):
                raise CohortConfigError(f"{self.domain.value}: lab_pool {test} bins {unknown} "
                                        f"are not among {list(LAB_BINS)}")
        pools = [(key, getattr(self, key))
                 for key in ("initial_codes", "order_pool", "gold_codes")]
        pools += [(f"lab_pool {test}", list(bins.items())) for test, bins in self.lab_pool]
        for name, pool in pools:
            if not pool or not all(math.isfinite(w) and w > 0 for _, w in pool):
                raise CohortConfigError(f"{self.domain.value}: {name} needs positive finite "
                                        "weights")

    def to_dict(self) -> dict:
        return {
            "domain": self.domain.value,
            "initial_codes": [[c, w] for c, w in self.initial_codes],
            "order_pool": [[c, w] for c, w in self.order_pool],
            "lab_pool": [[t, dict(b)] for t, b in self.lab_pool],
            "gold_codes": [[c, w] for c, w in self.gold_codes],
            "signal_strength": self.signal_strength,
            "length_range": list(self.length_range),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DomainGrammar":
        domain = DomainLabel(d["domain"])
        if not all(isinstance(bins, dict) for _, bins in d["lab_pool"]):
            raise CohortConfigError(f"{domain.value}: lab_pool bins must be {{bin: weight}}")
        return cls(
            domain=domain,
            initial_codes=[(c, float(w)) for c, w in d["initial_codes"]],
            order_pool=[(c, float(w)) for c, w in d["order_pool"]],
            lab_pool=[(t, {k: float(v) for k, v in b.items()}) for t, b in d["lab_pool"]],
            gold_codes=[(c, float(w)) for c, w in d["gold_codes"]],
            signal_strength=float(d.get("signal_strength", 0.95)),
            length_range=tuple(d.get("length_range", (6, 24))),
        )


@dataclass
class CohortConfig:
    seed: int = 0
    counts: dict | None = None  # {DomainLabel: count}; wins over total+mixture
    total: int = 1000
    mixture: tuple = DEFAULT_MIXTURE
    k: int = 5
    multi_label_rate: float = 0.0
    danger_rate: float = 0.0

    def domain_counts(self) -> dict:
        if self.counts is not None:
            try:
                counts = {DomainLabel(d): n for d, n in self.counts.items()}
            except (AttributeError, TypeError, ValueError) as e:
                raise CohortConfigError(f"cohort.counts {self.counts!r}: {e}") from None
            if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 0
                       for n in counts.values()):
                raise CohortConfigError(f"cohort.counts {self.counts!r}: "
                                        "sizes must be integers >= 0")
            return counts
        if self.total < 0:
            raise CohortConfigError(f"cohort.total {self.total}: must be >= 0")
        try:
            m = np.asarray(self.mixture, dtype=float)
        except (TypeError, ValueError) as e:
            raise CohortConfigError(f"cohort.mixture {self.mixture!r}: {e}") from None
        if m.shape != (len(DOMAINS),) or not (m >= 0).all() or not abs(m.sum() - 1.0) <= 1e-6:
            raise CohortConfigError(f"cohort.mixture {self.mixture}: "
                                    "need 5 shares >= 0 summing to 1")
        quotas = largest_remainder_quotas(self.mixture, self.total)
        return dict(zip(DOMAINS, quotas))


def largest_remainder_quotas(prevalences, total: int) -> list:
    """Integer quotas q_d summing to `total`, rounded by largest remainder."""
    raw = [p * total for p in prevalences]
    floors = [int(np.floor(x)) for x in raw]
    short = total - sum(floors)
    order = sorted(range(len(raw)), key=lambda i: (-(raw[i] - floors[i]), i))
    for i in order[:short]:
        floors[i] += 1
    return floors


def _draw_table(pool) -> tuple:
    """(items, cdf) of [(item, weight)], with the arithmetic of
    `Generator.choice(n, p=w / w.sum())`."""
    w = np.asarray([wt for _, wt in pool], dtype=float)
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return [x for x, _ in pool], cdf.tolist()


def _bin_table(bin_weights: dict) -> tuple:
    """The draw table of a lab's {bin: weight}, bins in sorted order."""
    return _draw_table(sorted(bin_weights.items()))


def _weighted_choice(rng, table):
    """One item of a `_draw_table`; consumes one `rng.random()`, as
    `Generator.choice(n, p=...)` does."""
    items, cdf = table
    return items[bisect.bisect_right(cdf, rng.random())]


# Shared (domain-nonspecific) pools used with probability 1 - signal_strength.
NOISE_DIAGS = [("780.79", 1.0), ("780.60", 0.6), ("796.4", 0.4)]
NOISE_ORDERS = [("CBC", 1.0), ("BMP", 1.0), ("VITALS", 0.8)]
NOISE_LABS = [
    ("WBC", {"NORMAL": 0.8, "HIGH": 0.2}),
    ("NA", {"NORMAL": 0.9, "LOW": 0.1}),
    ("GLU", {"NORMAL": 0.7, "HIGH": 0.3}),
]

_NOISE = DomainGrammar(
    domain=DomainLabel.PSYCHOGENIC,  # placeholder; noise grammar has no label
    initial_codes=NOISE_DIAGS,
    order_pool=NOISE_ORDERS,
    lab_pool=NOISE_LABS,
    gold_codes=[("V00.0", 1.0)],
    signal_strength=0.0,
)


def default_grammars() -> dict:
    """Built-in per-domain grammars with mutually disjoint code pools."""
    g = {
        DomainLabel.CARDIAC: DomainGrammar(
            domain=DomainLabel.CARDIAC,
            initial_codes=[("786.50", 1.0), ("786.51", 0.4), ("785.1", 0.3)],
            order_pool=[("ECG", 1.0), ("ECHO", 0.5), ("CTA_CORONARY", 0.3)],
            lab_pool=[
                ("TROP", {"HIGH": 0.5, "CRITICAL": 0.2, "NORMAL": 0.3}),
                ("CKMB", {"HIGH": 0.5, "NORMAL": 0.5}),
                ("BNP", {"HIGH": 0.4, "NORMAL": 0.6}),
            ],
            gold_codes=[("410.71", 0.5), ("411.1", 0.3), ("441.01", 0.1), ("423.9", 0.1)],
        ),
        DomainLabel.PULMONARY: DomainGrammar(
            domain=DomainLabel.PULMONARY,
            initial_codes=[("786.05", 1.0), ("786.09", 0.4), ("786.30", 0.2)],
            order_pool=[("CXR", 1.0), ("CTA_CHEST", 0.6), ("ABG", 0.4)],
            lab_pool=[
                ("DDIMER", {"POS": 0.55, "NEG": 0.45}),
                ("O2SAT", {"LOW": 0.5, "NORMAL": 0.5}),
                ("PCO2", {"HIGH": 0.3, "NORMAL": 0.7}),
            ],
            gold_codes=[("415.19", 0.4), ("512.0", 0.2), ("486", 0.3), ("511.9", 0.1)],
        ),
        DomainLabel.GASTRO: DomainGrammar(
            domain=DomainLabel.GASTRO,
            initial_codes=[("787.1", 1.0), ("789.06", 0.5), ("787.2", 0.3)],
            order_pool=[("EGD", 1.0), ("UGI_SERIES", 0.5), ("ABD_US", 0.4)],
            lab_pool=[
                ("LIPASE", {"NORMAL": 0.7, "HIGH": 0.3}),
                ("HPYLORI", {"POS": 0.4, "NEG": 0.6}),
                ("LFT", {"NORMAL": 0.8, "HIGH": 0.2}),
            ],
            gold_codes=[("530.81", 0.5), ("530.4", 0.1), ("533.9", 0.2), ("530.5", 0.2)],
        ),
        DomainLabel.MUSCULOSKELETAL: DomainGrammar(
            domain=DomainLabel.MUSCULOSKELETAL,
            initial_codes=[("848.9", 1.0), ("786.59", 0.5), ("729.5", 0.3)],
            order_pool=[("RIB_XRAY", 1.0), ("CHEST_WALL_US", 0.4)],
            lab_pool=[
                ("CRP", {"NORMAL": 0.6, "HIGH": 0.4}),
                ("ESR", {"NORMAL": 0.7, "HIGH": 0.3}),
            ],
            gold_codes=[("733.6", 0.5), ("807.00", 0.3), ("922.1", 0.2)],
        ),
        DomainLabel.PSYCHOGENIC: DomainGrammar(
            domain=DomainLabel.PSYCHOGENIC,
            initial_codes=[("300.00", 1.0), ("786.01", 0.5), ("780.2", 0.3)],
            order_pool=[("PSYCH_EVAL", 1.0), ("TOX_SCREEN", 0.6)],
            lab_pool=[
                ("TSH", {"NORMAL": 0.9, "HIGH": 0.1}),
                ("TOX", {"NEG": 0.85, "POS": 0.15}),
            ],
            gold_codes=[("300.01", 0.6), ("300.02", 0.2), ("306.2", 0.2)],
        ),
    }
    return g


def load_grammars(path) -> dict:
    """{domain: grammar} from a grammar file; a bad file raises CohortConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            grammars = [DomainGrammar.from_dict(d) for d in json.load(fh)["grammars"]]
        for g in grammars:
            g.check()
    except KeyError as e:
        raise CohortConfigError(f"grammar file {path}: missing key {e}") from None
    except (OSError, ValueError, TypeError, CohortConfigError) as e:
        raise CohortConfigError(f"grammar file {path}: {e}") from None
    by_domain = {g.domain: g for g in grammars}
    missing = [d.value for d in DOMAINS if d not in by_domain]
    if missing:
        raise CohortConfigError(f"grammar file {path}: no grammar for {', '.join(missing)}")
    return by_domain


def save_grammars(path, grammars: dict) -> None:
    write_json(path, {"grammars": [grammars[d].to_dict() for d in DOMAINS if d in grammars]})


class _Pools(NamedTuple):
    """One grammar's draw tables, built once per `generate_cohort` call and
    passed down, so no state outlives the call."""
    initial: tuple  # draw table of initial_codes
    orders: list  # order names, picked uniformly
    labs: list  # [(test, draw table of its bins)]
    gold: tuple  # draw table of gold_codes
    signal_strength: float
    length_range: tuple

    @classmethod
    def of(cls, g: DomainGrammar) -> "_Pools":
        return cls(_draw_table(g.initial_codes), [order for order, _ in g.order_pool],
                   [(test, _bin_table(bins)) for test, bins in g.lab_pool],
                   _draw_table(g.gold_codes), g.signal_strength, g.length_range)


def _emit_event(rng, pools: _Pools, t: int, events: list) -> int:
    """Append one or two events (order->lab pairs share provenance)."""
    roll = rng.random()
    if roll < 0.2:
        events.append(ClinicalEvent(EventKind.DIAG, _weighted_choice(rng, pools.initial), timestamp=t))
    elif roll < 0.75:
        idx = int(rng.integers(0, len(pools.orders)))
        events.append(ClinicalEvent(EventKind.ORDER, pools.orders[idx], timestamp=t))
        # paired lab result shortly after the order (bigram structure)
        if rng.random() < 0.9 and pools.labs:
            test, bins = pools.labs[idx % len(pools.labs)]
            t += int(rng.integers(2, 10))
            events.append(
                ClinicalEvent(EventKind.LAB, test, _weighted_choice(rng, bins), timestamp=t)
            )
    else:
        if pools.labs:
            test, bins = pools.labs[int(rng.integers(0, len(pools.labs)))]
            events.append(
                ClinicalEvent(EventKind.LAB, test, _weighted_choice(rng, bins), timestamp=t)
            )
    return t


def _generate_episode(index: int, domain: DomainLabel, pools: dict, noise: _Pools,
                      cfg: CohortConfig) -> Episode:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, index]))
    g = pools[domain]
    labels = [domain]
    secondary = None
    if cfg.multi_label_rate > 0 and rng.random() < cfg.multi_label_rate:
        others = [d for d in DOMAINS if d != domain]
        secondary = others[int(rng.integers(0, len(others)))]
        labels.append(secondary)

    n_content = int(rng.integers(g.length_range[0], g.length_range[1] + 1))
    # the presenting complaint leaks the domain, so it obeys signal_strength too
    init_src = g if rng.random() < g.signal_strength else noise
    events = [
        ClinicalEvent(EventKind.DIAG, _weighted_choice(rng, init_src.initial), timestamp=0)
    ]
    t = 0
    while len(events) < n_content:
        t += int(rng.integers(3, 25))
        if rng.random() < 0.10:
            t += int(rng.integers(60, 480))
        src = g
        if secondary is not None and rng.random() < 0.4:
            src = pools[secondary]
        if rng.random() >= src.signal_strength:
            src = noise
        t = _emit_event(rng, src, t, events)
    events = events[:n_content]

    gold = _weighted_choice(rng, g.gold)
    t += int(rng.integers(5, 60))
    events.append(ClinicalEvent(EventKind.DIAG, gold, timestamp=t))

    danger = bool(cfg.danger_rate > 0 and rng.random() < cfg.danger_rate)
    labels.sort(key=lambda d: DOMAINS.index(d))
    return Episode(
        episode_id=f"ep{index:06d}",
        events=events,
        labels=tuple(labels),
        gold_diag_code=gold,
        danger=danger,
    )


def generate_cohort(cfg: CohortConfig, grammars: dict | None = None) -> list:
    """Deterministic synthetic cohort; episode order fixed by index."""
    grammars = grammars or default_grammars()
    for g in grammars.values():
        g.validate(cfg.k)
    counts = cfg.domain_counts()
    pools = {d: _Pools.of(g) for d, g in grammars.items()}
    noise = _Pools.of(_NOISE)
    episodes = []
    index = 0
    for domain in DOMAINS:
        for _ in range(counts.get(domain, 0)):
            episodes.append(_generate_episode(index, domain, pools, noise, cfg))
            index += 1
    return episodes


def merge_records(records) -> Episode:
    """Merge episodes sharing an id: longest event/token list wins, labels are
    the union."""
    if not records:
        raise ValueError("merge_records needs at least one record")
    def length(ep):
        return len(ep.tokens) if ep.tokens else len(ep.events)
    best = max(records, key=length)
    labels = []
    for ep in records:
        for d in ep.labels:
            if d not in labels:
                labels.append(d)
    labels.sort(key=lambda d: DOMAINS.index(d))
    return Episode(
        episode_id=best.episode_id,
        events=best.events,
        tokens=best.tokens,
        labels=tuple(labels),
        gold_diag_code=best.gold_diag_code,
        danger=any(ep.danger for ep in records),
    )


def ingest(episodes) -> list:
    """Group by episode_id and merge duplicates; preserves first-seen order."""
    groups: dict[str, list] = {}
    order = []
    for ep in episodes:
        if ep.episode_id not in groups:
            groups[ep.episode_id] = []
            order.append(ep.episode_id)
        groups[ep.episode_id].append(ep)
    return [merge_records(groups[eid]) for eid in order]


def proportional_sample(episodes, target: int, seed: int = 0) -> list:
    """Subsample to `target` episodes preserving the domain mixture.

    Quotas are largest-remainder rounded from observed prevalence; quotas are
    filled from domain-exclusive episodes first, topped up from the remainder
    without duplicates. target=0 disables sampling.
    """
    episodes = list(episodes)
    if target <= 0 or target >= len(episodes):
        return episodes
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA11C]))
    member_counts = np.zeros(len(DOMAINS))
    for ep in episodes:
        for d in ep.labels:
            member_counts[DOMAINS.index(d)] += 1
    prevalence = member_counts / member_counts.sum()
    quotas = largest_remainder_quotas(prevalence, target)

    chosen: dict[int, None] = {}
    for di, domain in enumerate(DOMAINS):
        exclusive = [
            i for i, ep in enumerate(episodes)
            if ep.labels == (domain,) and i not in chosen
        ]
        perm = rng.permutation(len(exclusive))
        for j in perm[: quotas[di]]:
            chosen[exclusive[int(j)]] = None
    if len(chosen) < target:
        rest = [i for i in range(len(episodes)) if i not in chosen]
        perm = rng.permutation(len(rest))
        for j in perm[: target - len(chosen)]:
            chosen[rest[int(j)]] = None
    return [episodes[i] for i in sorted(chosen)]
