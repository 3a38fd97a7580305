"""panelroute benchmark: panel build, specialist training and per-request routing.

    python3 bench/run.py --workload paper --seed 1 --seconds 24 --trace 0

Run from the repository root; the program is imported from ./src. One run
writes a workload's inputs (timed as set-up), runs every CLI stage in-process
through `panelroute.cli.run` on an empty artifact directory, then replays
`route` for --seconds in whole rounds (four at the least): each round routes
every request warm in-process, then one request cold in a new process. Every
output is checked by `checks.py`.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics of `spans.py` with --trace 1.
"""

import os
import sys

# Fixed for this process and every process it starts, so that runs do not
# inherit a BLAS thread pool or hash seed from the caller. One BLAS thread:
# on 2 cores OpenBLAS's default pool made train-router 3.5x slower in wall
# time and 7x costlier in CPU than one thread.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

if __name__ == "__main__" and any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse
import contextlib
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"
OUT = BENCH / "out"

DOMAIN_NAMES = checks.DOMAIN_NAMES
BUILD_STAGES = ["synth", "tokenize", "featurize", "train-router", "tune"]
CLOSING_STAGES = ["eval", "report"]
WARMUP_REQUESTS = 5
MIN_ROUNDS = 4  # replays of each request, and cold processes, at the least
COLD_STRIDE = 37  # cold round k routes request 37k mod 100 in a new process
CONSTRAINT = 0.98  # the program's default life-recall constraint, which the configs keep

# artifact -> the stage whose operation it belongs to
ARTIFACT_STAGE = {
    "cohort.jsonl": "synth", "vocab.tsv": "tokenize",
    "feature_models.bin": "featurize", "features.bin": "featurize",
    "router.bin": "train-router", "thresholds.json": "tune", "frontier.csv": "tune",
    "report.json": "eval", "report.csv": "eval", "anytime.csv": "report",
    **{f"specialist_{d}.bin": f"train-specialist:{d}" for d in DOMAIN_NAMES},
    **{f"curve_{d}.csv": f"train-specialist:{d}" for d in DOMAIN_NAMES},
}

END_TO_END_UNITS = {
    "setup_s": "s", "build_s": "s", "train_s": "s", "route_mean_ms": "ms", "route_p90_ms": "ms",
    "route_cold_ms": "ms", "peak_rss_mb": "MB", "artifact_mb": "MB", "life_recall": "ratio",
    "macro_roc_auc": "ratio", "expected_experts": "experts/row", "specialist_ppl": "ppl",
}


class Ledger:
    """Operations attempted and the problems found with each."""

    def __init__(self):
        self.attempted = 0
        self.problems = {}  # op -> [text]

    def attempt(self):
        self.attempted += 1

    def fail(self, op, text):
        self.problems.setdefault(op, []).append(text)

    @property
    def failed(self):
        return len(self.problems)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def child_env():
    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_setup(workload, seed, target):
    """Set-up in a fresh process: import panelroute, write the inputs."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "workloads.py"), workload, str(seed), str(target)],
        env=child_env(), capture_output=True, text=True, timeout=120, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"set-up failed: {proc.stderr.strip()}")
    return elapsed, json.loads(proc.stdout.splitlines()[-1])


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "pythonhashseed": os.environ["PYTHONHASHSEED"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Runner:
    """Calls `panelroute.cli.run` in-process and records what each call did."""

    def __init__(self, cli, config, out, tracer=None):
        self.cli = cli
        self.common = ["--config", config, "--out", str(out)]
        self.tracer = tracer

    def call(self, argv, stage, request=None):
        """(exit code, stdout, seconds) of one in-process CLI call."""
        out, err = io.StringIO(), io.StringIO()
        span = (self.tracer.span(f"cli.{argv[0]}", stage, request) if self.tracer
                else contextlib.nullcontext())
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            t0 = time.perf_counter()
            code = self.cli.run(argv + self.common)
            elapsed = time.perf_counter() - t0
        return code, out.getvalue(), elapsed


def run_stage(runner, ledger, argv, op):
    gc.collect()
    ledger.attempt()
    code, _, elapsed = runner.call(argv, argv[0])
    if code != 0:
        ledger.fail(op, f"`{' '.join(argv)}` exited {code}")
    return elapsed


def check_request(ledger, op, code, stdout, danger, thresholds, vocab):
    if code != 0:
        ledger.fail(op, f"route exited {code}")
        return
    try:
        problems = checks.check_route_output(stdout, danger, thresholds, vocab)
    except (KeyError, TypeError, ValueError) as e:
        problems = [f"route output malformed: {e!r}"]
    for text in problems:
        ledger.fail(op, text)


def check_artifacts(ledger, art, splits):
    """The artifact checks of checks.py, each charged to the stage that wrote it."""
    for stage, text in checks.check_manifest(art, ARTIFACT_STAGE):
        ledger.fail(stage, text)
    thresholds = json.loads((art / "thresholds.json").read_text())
    for text in checks.check_thresholds(thresholds, CONSTRAINT):
        ledger.fail("tune", text)
    report = json.loads((art / "report.json").read_text())
    for text in checks.check_report(report, thresholds, *checks.test_probabilities(art)):
        ledger.fail("eval", text)
    vocab_size = sum(1 for _ in open(art / "vocab.tsv", encoding="utf-8"))
    for d in DOMAIN_NAMES:
        meta, arrays = checks.read_bundle(art / f"specialist_{d}.bin")
        dev, test = splits[d]
        for text in checks.check_specialist(
                meta, arrays, dev, test, checks.read_curve_dev_losses(art / f"curve_{d}.csv"),
                report["specialists"][d]["test_ppl"], vocab_size):
            ledger.fail(f"train-specialist:{d}", text)


def specialist_splits(art, cfg):
    """Dev and test token sequences per domain, as train-specialist and eval
    draw them: the program's own reader, tokenizer and episode split."""
    import warnings

    from panelroute.events import Vocabulary, read_episodes_jsonl, tokenize_episode
    from panelroute.router import SplitSpec, split

    vocab = Vocabulary.load(art / "vocab.tsv")
    episodes = [tokenize_episode(ep, vocab) for ep in read_episodes_jsonl(art / "cohort.jsonl")]
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for d in DOMAIN_NAMES:
            pool = [ep for ep in episodes if d in {lab.value for lab in ep.labels}]
            _, dev, test = split(pool, SplitSpec(seed=cfg["seed"]))
            out[d] = ([ep.tokens for ep in dev], [ep.tokens for ep in test])
    return out


def cold_route(config, art, episode):
    """Wall time of `route` in a new process: import, load, route, audit.
    `python -m panelroute.cli` does nothing (no __main__ guard), so the CLI's
    console-script entry is called directly."""
    cmd = [sys.executable, "-c", "from panelroute.cli import main; main()",
           "route", "--config", config, "--out", str(art), "--episode", episode]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True, timeout=120,
                          check=False)
    return proc.returncode, proc.stdout, time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "panelroute" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'panelroute'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    run_dir = RUNS / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs, art = run_dir / "inputs", run_dir / "artifacts"
    traced = bool(args.trace)

    phase_started = time.perf_counter()
    phase_s = {}

    def phase_done(name):
        nonlocal phase_started
        now = time.perf_counter()
        phase_s[name] = now - phase_started
        phase_started = now

    setup_times = []

    def setup_into(target):
        elapsed, written = timed_setup(args.workload, args.seed, target)
        setup_times.append(elapsed)
        return written

    def repeat_setup():
        """One more timed set-up, into a directory that is then removed. Set-ups
        spread over the run meet more of the machine's fast and slow phases than
        back-to-back ones would."""
        if not traced:
            target = run_dir / f"setup-{len(setup_times)}"
            setup_into(target)
            shutil.rmtree(target)

    files = setup_into(inputs)

    from panelroute import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: panelroute imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment()
    print(json.dumps({"environment": env}), flush=True)
    phase_done("setup_and_import")

    tracer = spans.Tracer() if traced else None
    if tracer:
        tracer.install()
    config = files["config"]
    cfg = json.loads(Path(config).read_text())
    runner = Runner(cli, config, art, tracer)
    ledger = Ledger()

    # --- build and train, on an empty artifact directory ----------------------
    art.mkdir(parents=True)
    stage_s = {}
    for stage in BUILD_STAGES:
        stage_s[stage] = run_stage(runner, ledger, [stage], stage)
    repeat_setup()
    train_s = 0.0
    for d in DOMAIN_NAMES:
        train_s += run_stage(runner, ledger, ["train-specialist", "--domain", d],
                             f"train-specialist:{d}")
    repeat_setup()
    for stage in CLOSING_STAGES:
        stage_s[stage] = run_stage(runner, ledger, [stage], stage)
    artifact_bytes = sum(p.stat().st_size for p in art.iterdir() if p.is_file())
    phase_done("build_and_train")

    if ledger.failed:  # later phases need every artifact
        for op, texts in ledger.problems.items():
            print(f"FAILED {op}: {'; '.join(texts)}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": ledger.attempted,
                          "failed": ledger.failed, "metrics": {}}))
        return 1

    thresholds = json.loads((art / "thresholds.json").read_text())
    vocab = {line.split("\t")[1] for line in open(art / "vocab.tsv", encoding="utf-8")}
    requests = files["requests"]
    danger = {p: bool(json.loads(Path(p).read_text()).get("danger", False)) for p in requests}

    # --- replay: warm rounds in-process, each followed by one cold process ---------
    outputs = []
    for i, p in enumerate(requests[:WARMUP_REQUESTS]):
        code, stdout, _ = runner.call(["route", "--episode", p], "warmup", i)
        outputs.append((p, code, stdout))
    rounds = []  # per round, each request's wall time in request order
    cold = []
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - started < args.seconds:
        gc.collect()
        times = []
        for i, p in enumerate(requests):
            request_id = len(rounds) * len(requests) + i
            code, stdout, elapsed = runner.call(["route", "--episode", p], "route", request_id)
            times.append(elapsed)
            outputs.append((p, code, stdout))
        rounds.append(times)
        if len(rounds) == MIN_ROUNDS // 2:
            repeat_setup()
        if not traced:
            p = requests[(len(rounds) * COLD_STRIDE) % len(requests)]
            code, stdout, elapsed = cold_route(config, art, p)
            cold.append(elapsed)
            outputs.append((p, code, stdout))
    # A request's latency is the median of its replays, and the cold latency the
    # median cold process. The machine's speed drifts in phases of seconds to
    # minutes; a median over samples spread across the whole window follows that
    # drift less than the fastest sample, which depends on whether a fast phase
    # happened to fall in the window. The statistics across the 100 distinct
    # requests then show which requests cost more, not when the machine was slow.
    latencies = [statistics.median(replays) for replays in zip(*rounds)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer:
        tracer.uninstall()
    repeat_setup()
    phase_done("replay")

    # --- checks -------------------------------------------------------------------------------
    for n, (p, code, stdout) in enumerate(outputs):
        ledger.attempt()
        check_request(ledger, f"route#{n}", code, stdout, danger[p], thresholds, vocab)
    check_artifacts(ledger, art, specialist_splits(art, cfg))
    for op, texts in ledger.problems.items():
        print(f"FAILED {op}: {'; '.join(texts)}", file=sys.stderr)
    phase_done("checks")

    report = json.loads((art / "report.json").read_text())
    e2e = {
        # median of the set-ups spread over the run, for the reason given at
        # `latencies`
        "setup_s": statistics.median(setup_times),
        "build_s": sum(stage_s.values()),
        "train_s": train_s,
        # a mean, not a median: requests that consult one specialist and those
        # that consult two form two modes of similar size, and a median jumps
        # between them from one seed to the next
        "route_mean_ms": 1e3 * statistics.fmean(latencies),
        "route_p90_ms": 1e3 * percentile(latencies, 90),
        # start-up and imports, the same for every request, are most of it
        "route_cold_ms": 1e3 * statistics.median(cold) if cold else None,
        "peak_rss_mb": peak_rss_mb,
        "artifact_mb": artifact_bytes / 1e6,
        "life_recall": report["policy"]["life_recall"],
        "macro_roc_auc": report["router"]["macro"]["roc_auc"],
        "expected_experts": report["policy"]["expected_experts"],
        "specialist_ppl": statistics.fmean(v["test_ppl"] for v in report["specialists"].values()),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "phase_s": phase_s, "stage_s": stage_s,
        "warm_rounds": len(rounds), "cold_requests": len(cold), "end_to_end": e2e,
        "warm_ms": [[round(1e3 * t, 4) for t in r] for r in rounds],
        "cold_ms": [round(1e3 * t, 4) for t in cold],
        "setup_ms": [round(1e3 * t, 4) for t in setup_times],
        "specialists": report.get("specialists"), "problems": ledger.problems,
    }
    if traced:
        metrics = spans.layer_metrics(tracer)
        record["per_layer"] = metrics
        record["spans"] = len(tracer.spans)
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer:
        tracer.write(OUT / f"{stem}-spans.jsonl")
    if not ledger.problems:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
