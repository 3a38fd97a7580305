"""Acceptance suite: ten numbered criteria, one test and one PASS line each.

Oracles used here are coded independently of the library (brute-force rule
evaluation, exhaustive grid search, dense SVD, hand formulas) so that a
criterion failing means the implementation is wrong, not the test."""

import json
import math
import time
import warnings

import numpy as np
import pytest

from panelroute import cohort, features, metrics, pipeline, policy, specialist
from panelroute.events import DOMAINS, LIFE_THREAT_DOMAINS, DomainLabel


def announce(num, text):
    print(f"PASS [criterion {num}] {text}")


def build_cohort(counts=None, total=None, seed=0, signal=None, mixture=None):
    grammars = cohort.default_grammars()
    if signal is not None:
        for g in grammars.values():
            g.signal_strength = signal
    cfg = cohort.CohortConfig(
        seed=seed,
        counts=counts,
        total=total or 0,
        mixture=tuple(mixture) if mixture else cohort.DEFAULT_MIXTURE,
    )
    return cohort.generate_cohort(cfg, grammars)


def run_router_pipeline(episodes, seed=0, svd_rank=128):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        episodes, vocab = pipeline.tokenize_cohort(episodes)
        rows = pipeline.split_rows(episodes, 5, seed, pipeline.SPLITS)
        _, tfidf, svd = pipeline.prepare_router_datasets(rows, vocab, svd_rank)
        table = pipeline.build_table(rows, vocab, tfidf, svd)
        model = pipeline.train_router(table)
    return model, table


def test_criterion_1_fixture_identities():
    pairs = [(0.7917, 2.21), (0.7041, 2.02), (0.7004, 2.01),
             (1.2692, 3.56), (0.6289, 1.88)]
    for loss, ppl in pairs:
        assert round(specialist.perplexity_from_loss(loss), 2) == ppl
    assert abs(metrics.compute_savings(1.565) - 0.687) <= 0.005
    announce(1, "exp(loss) reproduces all five loss/perplexity pairs to 2 dp; "
                "compute_savings(1.565) = 0.687 within 0.5 points")


def test_criterion_2_prefix_row_identity():
    counts = {"Cardiac": 1132, "Pulmonary": 3147, "Gastro": 4500,
              "Musculoskeletal": 525, "Psychogenic": 4497}
    assert sum(counts.values()) == 13_801
    eps = build_cohort(counts=counts, seed=1)
    eps, _ = pipeline.tokenize_cohort(eps)
    lengths = [len(ep.content_tokens) for ep in eps]
    assert min(lengths) >= 5
    rows = features.expand_cohort(eps, k=5)
    assert len(rows) == 69_005
    announce(2, "13,801 episodes with L >= 5 at K=5 expand to exactly 69,005 prefix rows")


def oracle_route(probs, tau_hi, tau_lo, danger):
    """Brute-force restatement of the routing rules, written from the prose."""
    p = list(probs)
    life = [0, 1]
    if danger or max(p) < 0.25:
        return frozenset(range(5))
    if max(p[i] for i in life) >= tau_hi:
        best = None
        for i in life:
            if best is None or p[i] > p[best]:
                best = i
        return frozenset([best])
    if max(p) >= tau_lo:
        ranked = sorted(range(5), key=lambda i: (-p[i], i))
        return frozenset(ranked[:2])
    return frozenset(range(5))


def test_criterion_3_policy_oracle_equivalence():
    rng = np.random.default_rng(3)
    mismatches = 0
    for tau_hi, tau_lo in [(0.70, 0.30), (0.90, 0.10), (0.55, 0.50)]:
        thr = policy.Thresholds(tau_hi, tau_lo)
        for _ in range(10_000):
            p = rng.uniform(0.0, 1.0, size=5)
            danger = bool(rng.random() < 0.05)
            got = frozenset(DOMAINS.index(d) for d in
                            policy.route(p, thr, danger_flag=danger).route)
            if got != oracle_route(p, tau_hi, tau_lo, danger):
                mismatches += 1
    assert mismatches == 0
    announce(3, "route() matches the brute-force oracle on 10,000 vectors x 3 "
                "threshold pairs including (0.70, 0.30): 0 mismatches")


def oracle_tune(prob_rows, grid, constraint):
    """Exhaustive reference search, selection rules restated independently."""
    table = []
    for hi, lo in grid:
        if lo > hi:
            continue
        n_any = n_all = n_life = n_life_tot = 0
        sizes = []
        for probs, truth, danger in prob_rows:
            routed = oracle_route(probs, hi, lo, danger)
            truth_idx = {DOMAINS.index(d) for d in truth}
            sizes.append(len(routed))
            n_any += bool(routed & truth_idx)
            n_all += truth_idx <= routed
            if truth_idx & {0, 1}:
                n_life_tot += 1
                n_life += bool(routed & {0, 1})
        n = len(prob_rows)
        table.append({
            "tau_hi": hi, "tau_lo": lo,
            "life_recall": n_life / n_life_tot if n_life_tot else float("nan"),
            "expected_experts": float(np.mean(sizes)),
            "recall_any": n_any / n, "recall_all": n_all / n,
        })
    feasible = [r for r in table if r["life_recall"] >= constraint]
    if feasible:
        best = min(feasible, key=lambda r: (r["expected_experts"], -r["life_recall"],
                                            r["tau_hi"], r["tau_lo"]))
    else:
        best = min(table, key=lambda r: (-r["life_recall"], r["expected_experts"],
                                         r["tau_hi"], r["tau_lo"]))
    return best, table


def test_criterion_4_tuner_optimality():
    rng = np.random.default_rng(4)
    for seed in range(3):
        rows = []
        for _ in range(500):
            truth_domain = DOMAINS[int(rng.integers(0, 5))]
            p = rng.dirichlet(np.ones(5) * 1.5)
            p[DOMAINS.index(truth_domain)] += rng.uniform(0, 0.5)
            rows.append((np.clip(p, 0, 1), (truth_domain,), bool(rng.random() < 0.05)))
        grid = [(round(hi, 2), round(lo, 2))
                for hi in np.arange(0.5, 1.0, 0.05) for lo in np.arange(0.1, 0.55, 0.05)]
        assert len(grid) <= 100
        probs = np.array([p for p, _, _ in rows])
        truth = metrics.domain_mask(t for _, t, _ in rows)
        danger = np.array([d for _, _, d in rows])
        result = policy.tune_thresholds(probs, truth, danger, grid=grid, constraint=0.98)
        best, table = oracle_tune(rows, grid, 0.98)
        assert (result.tau_hi, result.tau_lo) == (best["tau_hi"], best["tau_lo"])
        assert len(result.table) == len(table)
        for got, want in zip(result.table, table):
            for key in want:
                assert got[key] == pytest.approx(want[key], abs=1e-12)
    announce(4, "tune_thresholds equals exhaustive search (same point, same "
                "frontier) on 500-row dev sets over a 90-point grid")


def test_criterion_5_paper_shaped_end_to_end():
    t0 = time.time()
    eps = build_cohort(total=2000, seed=0, mixture=(0.082, 0.228, 0.326, 0.038, 0.326))
    model, table = run_router_pipeline(eps, seed=0)
    result = policy.tune_thresholds(*pipeline.prob_rows_for(model, table, "dev"),
                                    constraint=0.98)
    thresholds = policy.Thresholds(result.tau_hi, result.tau_lo)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = pipeline.evaluate(model, table, thresholds)
    elapsed = time.time() - t0
    assert result.life_recall >= 0.95
    assert report["policy"]["recall_any"] >= 0.99
    assert report["policy"]["expected_experts"] <= 2.5
    assert elapsed < 600
    announce(5, f"paper-shaped run: dev life recall {result.life_recall:.3f} >= 0.95, "
                f"test Recall_any {report['policy']['recall_any']:.3f} >= 0.99, "
                f"E[|R|] {report['policy']['expected_experts']:.3f} <= 2.5 "
                f"in {elapsed:.0f}s")


def test_criterion_6_router_sanity():
    counts = {d.value: 400 for d in DOMAINS}

    noise_eps = build_cohort(counts=counts, seed=6, signal=0.0)
    model, table = run_router_pipeline(noise_eps, seed=6)
    probs = model.predict_proba(table["x_test"])
    for d in range(5):
        auc = metrics.roc_auc(probs[:, d], table["y_test"][:, d])
        assert 0.45 <= auc <= 0.55, f"domain {d}: AUC {auc}"

    clean_eps = build_cohort(counts=counts, seed=6, signal=1.0)
    model, table = run_router_pipeline(clean_eps, seed=6)
    probs = model.predict_proba(table["x_test"])
    aucs = [metrics.roc_auc(probs[:, d], table["y_test"][:, d]) for d in range(5)]
    assert float(np.mean(aucs)) >= 0.99
    announce(6, f"signal-free per-domain AUC within [0.45, 0.55]; separable "
                f"macro AUC {np.mean(aucs):.4f} >= 0.99")


def test_criterion_7_calibration_improvement():
    from panelroute.router import _sigmoid, platt_fit, temperature_fit

    for seed in range(5):
        eps = build_cohort(total=400, seed=seed)
        model, table = run_router_pipeline(eps, seed=seed)
        raw = model.predict_raw(table["x_dev"])
        for d in range(5):
            y = table["y_dev"][:, d]
            if len(np.unique(y)) < 2:
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                cal = platt_fit(raw[:, d], y)
            before = float(np.mean((_sigmoid(raw[:, d]) - y) ** 2))
            after = float(np.mean((cal(raw[:, d]) - y) ** 2))
            assert after <= before + 1e-6

    rng = np.random.default_rng(7)
    p = rng.uniform(0.02, 0.98, size=20_000)
    y = (rng.random(20_000) < p).astype(float)
    t = temperature_fit(4.0 * np.log(p / (1 - p)), y)
    assert abs(t - 4.0) <= 0.5
    announce(7, f"Platt never worsens dev Brier beyond 1e-6 over 5 seeded "
                f"cohorts; temperature recovers x4 scaling as T = {t:.2f}")


def finite_difference_check(model, ids, targets, eps=1e-5):
    """Central finite differences against analytic gradients, all tensors."""
    _, grads, _ = model.loss_and_grads(ids, targets)
    worst = 0.0
    for key, g in grads.items():
        p = model.params[key]
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + eps
            up, _ = specialist.cross_entropy(model.forward(ids)[0], targets)
            p[idx] = orig - eps
            down, _ = specialist.cross_entropy(model.forward(ids)[0], targets)
            p[idx] = orig
            numeric = (up - down) / (2 * eps)
            denom = max(abs(numeric), abs(g[idx]), 1e-8)
            worst = max(worst, abs(numeric - g[idx]) / denom)
    return worst


def test_criterion_8_specialist_numerics():
    t0 = time.time()
    cfg = specialist.SpecialistConfig(vocab_size=12, layers=1, d_model=8, heads=2,
                                      dropout=0.0, max_positions=8)
    model = specialist.SpecialistModel(cfg, seed=8)
    ids = np.array([[2, 4, 5, 6], [2, 7, 8, 0]])
    targets = np.array([[4, 5, 6, 3], [7, 8, 3, 0]])
    worst = finite_difference_check(model, ids, targets)
    assert worst <= 1e-3

    base = np.array([[2, 4, 5, 6, 7]])
    logits, _ = model.forward(base)
    for t in range(1, 5):
        perturbed = base.copy()
        perturbed[0, t] = (perturbed[0, t] + 3) % 12
        assert np.array_equal(logits[0, :t], model.forward(perturbed)[0][0, :t])

    before, _ = model.forward(base)
    model.attach_lora(rank=2, alpha=8.0)
    assert np.array_equal(before, model.forward(base)[0])
    rng = np.random.default_rng(0)
    for key, (a, b) in model.adapters.items():
        model.adapters[key] = (a, rng.normal(0, 0.05, size=b.shape))
    adapted, _ = model.forward(base)
    model.merge_lora()
    assert np.allclose(adapted, model.forward(base)[0], atol=1e-6)

    counts = {d.value: 300 for d in DOMAINS}
    eps = build_cohort(counts=counts, seed=8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        eps, vocab = pipeline.tokenize_cohort(eps)
        for domain in DOMAINS:
            pool = [e for e in eps if domain in e.labels]
            from panelroute.router import SplitSpec, split
            train_eps, dev_eps, _ = split(pool, SplitSpec(seed=8))
            desk = specialist.SpecialistModel(
                specialist.SpecialistConfig(vocab_size=len(vocab)), seed=8,
                domain=domain.value)
            curve = specialist.train(
                desk, [e.tokens for e in train_eps], [e.tokens for e in dev_eps],
                specialist.TrainConfig(epochs=5, seed=8))
            baseline = specialist.unigram_entropy([e.tokens for e in train_eps])
            assert curve[4]["dev_loss"] < curve[0]["dev_loss"], domain.value
            assert curve[4]["dev_loss"] < baseline, domain.value
    elapsed = time.time() - t0
    assert elapsed < 900
    announce(8, f"gradient check worst rel err {worst:.2e} <= 1e-3; causality "
                f"exact; LoRA attach/merge verified; all 5 desk trainings beat "
                f"the unigram baseline with falling dev loss in {elapsed:.0f}s")


def test_criterion_9_metric_oracles():
    # ROC-AUC, Mann-Whitney by hand: ranks of positives 2.5 + 5 + 6
    auc = metrics.roc_auc([0.1, 0.4, 0.4, 0.6, 0.8, 0.9], [0, 0, 1, 0, 1, 1])
    assert abs(auc - (13.5 - 6.0) / 9.0) <= 1e-9

    probs = [0.1, 0.9, 0.4, 0.7]
    labels = [0, 1, 1, 0]
    brier, _ = metrics.calibration_metrics(probs, labels)
    assert abs(brier - np.mean([(p - y) ** 2 for p, y in zip(probs, labels)])) <= 1e-9

    ndcg = metrics.ndcg_at_k(["x", "y", "a"], {"a"}, 3)
    assert abs(ndcg - 1.0 / math.log2(4)) <= 1e-9

    C, P, G, M, S = DOMAINS
    routes = [{C}, {P}, {G}, {M}, {C, G}]
    truths = [{C}, {P}, {G}, {M}, {C, P}]
    r_any, r_all, r_life = metrics.routing_recalls(routes, truths)
    assert abs(r_any - 1.0) <= 1e-9 and abs(r_all - 0.8) <= 1e-9

    lm = metrics.LatencyModel(l_router=10.0, l_expert=50.0)
    _, mean = metrics.latency([{C}, set(DOMAINS)], lm)
    assert abs(mean - (60.0 + 260.0) / 2) <= 1e-9

    rng = np.random.default_rng(9)
    for _ in range(10_000):
        route_set = {d for d in DOMAINS if rng.random() < 0.4}
        truth_set = {d for d in DOMAINS if rng.random() < 0.4} or {G}
        r_any, r_all, _ = metrics.routing_recalls([route_set], [truth_set])
        assert r_all <= r_any + 1e-12
    announce(9, "ROC-AUC, Brier, NDCG@3, recalls, and latency match hand "
                "fixtures to 1e-9; Recall_all <= Recall_any over 10,000 draws")


def test_criterion_10_reproducibility(tmp_path):
    from panelroute.cli import EXIT_OK, run

    cfg = {
        "seed": 7,
        "cohort": {"counts": {"Cardiac": 40, "Pulmonary": 30, "Gastro": 30,
                              "Musculoskeletal": 20, "Psychogenic": 30}},
        "svd_rank": 64,
        "specialist": {"epochs": 2},
    }
    compare = ("manifest.json", "router.bin", "feature_models.bin", "features.bin",
               "specialist_Musculoskeletal.bin", "report.json", "thresholds.json")
    payloads = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        out.mkdir()
        cfg_path = out / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for stage in ("synth", "tokenize", "featurize", "train-router", "tune"):
                assert run([stage, "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
            assert run(["train-specialist", "--config", str(cfg_path), "--out", str(out),
                        "--domain", "Musculoskeletal"]) == EXIT_OK
            assert run(["eval", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        payloads.append({name: (out / name).read_bytes() for name in compare})
    for name in compare:
        assert payloads[0][name] == payloads[1][name], name
    announce(10, "two identical-config pipeline runs produced byte-identical "
                 "manifests, checkpoints, and reports")
