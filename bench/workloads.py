"""Workload definitions and the set-up step that writes a workload's inputs.

Each workload is a function of the seed alone: the program receives only the
config, grammar and request-episode files written here.

Run as a script, this module is the set-up process the benchmark times:

    PYTHONPATH=src python3 bench/workloads.py <workload> <seed> <dir>
"""

import json
import sys
from pathlib import Path

# Requests come from their own cohort stream, disjoint from the training one.
REQUEST_SEED_OFFSET = 1_000_003
REQUESTS = 100  # one replay round; a p90 over >= 100 requests has >= 10 beyond it

PAPER_MIXTURE = [0.082, 0.228, 0.326, 0.038, 0.326]

WORKLOADS = {
    # Router-side layers carry the build: ~7000 training prefixes, TF-IDF, SVD,
    # five L-BFGS heads and ~91k policy.route calls in tune.
    "paper": {
        "cohort": {"total": 2000, "mixture": PAPER_MIXTURE,
                   "danger_rate": 0.0, "multi_label_rate": 0.0},
        "length_range": None,
        "epochs": 2,
    },
    # Specialist forward/backward at T ~ 170 dominate training; the router side
    # sees only K=5 prefixes per episode. A uniform mixture keeps every
    # specialist's train/dev/test pool at ~80 episodes, so no pool is a handful.
    "long": {
        "cohort": {"total": 400, "mixture": [0.2, 0.2, 0.2, 0.2, 0.2],
                   "danger_rate": 0.0, "multi_label_rate": 0.0},
        "length_range": [100, 160],
        "epochs": 1,
    },
}

# Specialists train for two epochs (one on `long`, whose sequences are ~8x
# longer) instead of the default five. That keeps a whole run inside its time
# budget; each training step is unchanged.
#
# There is no `flagged` workload (2000 paper-mix episodes, 30% danger-flagged).
# Its cohort differs from `paper`'s only in the danger flags, so it built the
# same router features and trained the very same specialists; only its routes
# differed, a third failing open to all five specialists. Its ~20 s of repeated
# build and train per run left too little of the time budget for a replay
# window long enough to be steady.


def config_for(name: str, seed: int, grammar_path: str) -> dict:
    w = WORKLOADS[name]
    return {
        "seed": seed,
        "cohort": {**w["cohort"], "grammar_file": grammar_path},
        "specialist": {"epochs": w["epochs"]},
    }


def prepare(name: str, seed: int, target: Path) -> dict:
    """Write config.json, grammar.json and requests/*.json under `target`.

    Returns the paths the benchmark needs."""
    from panelroute.cohort import CohortConfig, default_grammars, generate_cohort, save_grammars
    from panelroute.events import episode_to_dict

    w = WORKLOADS[name]
    target.mkdir(parents=True, exist_ok=True)
    grammars = default_grammars()
    if w["length_range"]:
        for g in grammars.values():
            g.length_range = tuple(w["length_range"])
    grammar_path = target / "grammar.json"
    save_grammars(grammar_path, grammars)
    config_path = target / "config.json"
    config_path.write_text(json.dumps(config_for(name, seed, str(grammar_path)), indent=2) + "\n")

    c = w["cohort"]
    requests = generate_cohort(
        CohortConfig(seed=seed + REQUEST_SEED_OFFSET, total=REQUESTS, mixture=tuple(c["mixture"]),
                     multi_label_rate=c["multi_label_rate"], danger_rate=c["danger_rate"]),
        grammars,
    )
    req_dir = target / "requests"
    req_dir.mkdir(exist_ok=True)
    paths = []
    for ep in requests:
        p = req_dir / f"{ep.episode_id}.json"
        p.write_text(json.dumps(episode_to_dict(ep), sort_keys=True) + "\n")
        paths.append(str(p))
    return {"config": str(config_path), "grammar": str(grammar_path), "requests": paths}


if __name__ == "__main__":
    workload, seed, target = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    if workload not in WORKLOADS:
        sys.exit(f"unknown workload {workload!r}")
    print(json.dumps(prepare(workload, seed, target)))
