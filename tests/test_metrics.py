import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from panelroute.events import DOMAINS
from panelroute.metrics import (
    LatencyModel,
    MetricError,
    anytime,
    bootstrap_ci,
    calibration_metrics,
    compute_savings,
    latency,
    ndcg_at_k,
    policy_metrics,
    pr_auc,
    roc_auc,
    routing_recalls,
)

C, P, G, M, S = DOMAINS


def step_loop_pr_auc(scores, labels):
    """The original per-row step integration, kept as the oracle for pr_auc."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    n_pos = int(labels.sum())
    order = np.argsort(-scores, kind="stable")
    scores, labels = scores[order], labels[order]
    area = 0.0
    tp = fp = 0
    prev_recall = 0.0
    i = 0
    n = len(scores)
    while i < n:
        j = i
        while j < n and scores[j] == scores[i]:
            tp += int(labels[j])
            fp += int(not labels[j])
            j += 1
        recall = tp / n_pos
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
        i = j
    return float(area)


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        scores = rng.random(10_000)
        labels = np.arange(10_000) % 2
        assert roc_auc(scores, labels) == pytest.approx(0.5, abs=0.02)

    def test_six_point_tie_matches_rank_sum(self):
        scores = [0.1, 0.4, 0.4, 0.6, 0.8, 0.9]
        labels = [0, 0, 1, 0, 1, 1]
        # ranks: 1, 2.5, 2.5, 4, 5, 6; positives 2.5+5+6=13.5
        expected = (13.5 - 3 * 4 / 2) / (3 * 3)
        assert roc_auc(scores, labels) == pytest.approx(expected, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(MetricError):
            roc_auc([0.1, 0.2], [1, 1])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                        st.floats(-1e6, 1e6)),
                              st.booleans()),
                    min_size=2, max_size=60))
    @example([(0.5, True), (0.5, False), (0.5, True), (0.5, False)])  # all equal
    @example([(0.2, True), (0.7, False)])  # n = 2
    @example([(0.7, True), (0.7, False)])  # n = 2, tied
    def test_mid_ranks_match_scipy_rankdata(self, pairs):
        from scipy.stats import rankdata

        scores = np.array([s for s, _ in pairs])
        labels = np.array([lab for _, lab in pairs])
        labels[:2] = [True, False]  # both classes present
        n_pos, n_neg = int(labels.sum()), int((~labels).sum())
        ranks = rankdata(scores)
        expected = float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))
        assert roc_auc(scores, labels) == expected

    def test_nan_score_gives_nan(self):
        assert np.isnan(roc_auc([0.1, np.nan, 0.3, 0.2], [0, 1, 1, 0]))

    def test_pr_auc_perfect(self):
        assert pr_auc([0.1, 0.9], [0, 1]) == 1.0

    def test_pr_auc_hand_case(self):
        # descending: (0.9,1) P=1 R=1/2; (0.7,0) ; (0.5,1) P=2/3 R=1
        scores = [0.5, 0.9, 0.7]
        labels = [1, 1, 0]
        assert pr_auc(scores, labels) == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3), abs=1e-12)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                        st.floats(0.0, 1.0)),
                              st.booleans()),
                    min_size=2, max_size=80))
    @example([(0.5, True), (0.5, False), (0.5, True), (0.5, False)])  # all tied
    @example([(0.2, True), (0.7, False)])  # n = 2
    @example([(0.7, True), (0.7, False)])  # n = 2, tied
    def test_pr_auc_equals_step_loop_bitwise(self, pairs):
        scores = np.array([s for s, _ in pairs])
        labels = np.array([lab for _, lab in pairs])
        labels[:2] = [True, False]  # both classes present
        assert pr_auc(scores, labels) == step_loop_pr_auc(scores, labels)


class TestRoutingRecalls:
    def test_fail_open_everything(self):
        routes = [set(DOMAINS)] * 3
        truths = [{C}, {G, M}, {S}]
        assert routing_recalls(routes, truths)[:2] == (1.0, 1.0)

    def test_exact_match_routes(self):
        truths = [{C}, {P}, {G}]
        assert routing_recalls([set(t) for t in truths], truths) == (1.0, 1.0, 1.0)

    def test_hand_built_multi_label_case(self):
        routes = [{C}, {P}, {G}, {M}, {C, G}]
        truths = [{C}, {P}, {G}, {M}, {C, P}]
        r_any, r_all, r_life = routing_recalls(routes, truths)
        assert r_any == 1.0
        assert r_all == pytest.approx(0.8)
        assert r_life == 1.0

    def test_life_recall_restricted_to_life_truths(self):
        routes = [{G}, {C}]
        truths = [{G}, {C}]
        assert routing_recalls(routes, truths)[2] == 1.0

    def test_recall_all_le_recall_any_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(1, 20))
            routes, truths = [], []
            for _ in range(n):
                routes.append({d for d in DOMAINS if rng.random() < 0.4})
                truths.append({d for d in DOMAINS if rng.random() < 0.4} or {G})
            r_any, r_all, _ = routing_recalls(routes, truths)
            assert r_all <= r_any + 1e-12

    def test_adding_domain_never_hurts(self):
        rng = np.random.default_rng(2)
        routes = [{d for d in DOMAINS if rng.random() < 0.3} for _ in range(100)]
        truths = [{d for d in DOMAINS if rng.random() < 0.3} or {S} for _ in range(100)]
        base = routing_recalls(routes, truths)
        grown = routing_recalls([r | {C} for r in routes], truths)
        assert all(g >= b - 1e-12 for g, b in zip(grown[:2], base[:2]))
        assert np.mean([len(r | {C}) for r in routes]) >= np.mean([len(r) for r in routes])


class TestLatency:
    def test_top1(self):
        lm = LatencyModel(l_router=5.0, l_expert=50.0)
        per, mean = latency([{C}], lm)
        assert per == [55.0] and mean == 55.0

    def test_fail_open(self):
        lm = LatencyModel(l_router=5.0, l_expert=50.0)
        assert latency([set(DOMAINS)], lm)[1] == 255.0

    def test_paper_scale_mean(self):
        # E[|R|] = 1.565 with defaults 10 + 50 ms reproduces the ~88 ms scale
        lm = LatencyModel()
        assert 10.0 + 50.0 * 1.565 == pytest.approx(88.25)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 100.0), st.floats(0.0, 500.0), st.integers(1, 40),
           st.integers(0, 2**32 - 1))
    def test_mask_latency_equals_domains_order_sum(self, l_router, l_expert, n, seed):
        lm = LatencyModel(l_router=l_router, l_expert=l_expert)
        routed = np.random.default_rng(seed).random((n, 5)) < 0.5
        expected = [l_router + sum(l_expert for m in row if m) for row in routed]
        assert lm.per_row(routed).tolist() == expected
        assert latency([[d for d, m in zip(DOMAINS, row) if m] for row in routed], lm) == (
            expected, float(np.mean(expected)))


class TestPolicyMetrics:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_equals_routing_recalls_and_mean_route_size(self, n, seed):
        rng = np.random.default_rng(seed)
        routed = rng.random((n, 5)) < 0.4
        truth = rng.random((n, 5)) < 0.3
        truth[:, 0] |= ~truth.any(axis=1)  # no empty truth rows
        routes = [{d for d, m in zip(DOMAINS, row) if m} for row in routed]
        truths = [{d for d, m in zip(DOMAINS, row) if m} for row in truth]
        r_any, r_all, r_life = routing_recalls(routes, truths)
        got = policy_metrics(routed, truth)
        assert list(got) == ["life_recall", "expected_experts", "recall_any", "recall_all"]
        np.testing.assert_array_equal(
            [got["recall_any"], got["recall_all"], got["life_recall"], got["expected_experts"]],
            [r_any, r_all, r_life, float(np.mean([len(r) for r in routes]))])


class TestComputeSavings:
    def test_paper_fixture(self):
        assert compute_savings(1.565) == pytest.approx(0.687, abs=1e-9)

    def test_consult_all(self):
        assert compute_savings(5.0) == 0.0

    def test_single_expert(self):
        assert compute_savings(1.0) == pytest.approx(0.8)

    def test_out_of_range_rejected(self):
        with pytest.raises(MetricError):
            compute_savings(0.5)


class TestCalibration:
    def test_constant_half_predictor_brier(self):
        brier, _ = calibration_metrics([0.5] * 10, [0, 1] * 5)
        assert brier == pytest.approx(0.25, abs=1e-12)

    def test_perfect_predictions(self):
        brier, ece = calibration_metrics([0.0, 1.0, 1.0], [0, 1, 1])
        assert brier == 0.0 and ece == 0.0

    def test_eight_sample_hand_case(self):
        probs = [0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9]
        labels = [0, 0, 1, 0, 1, 0, 1, 1]
        expected = np.mean([(p - y) ** 2 for p, y in zip(probs, labels)])
        brier, ece = calibration_metrics(probs, labels)
        assert brier == pytest.approx(expected, abs=1e-12)
        # 0.3 lies below the third bin edge, 3 * 0.1 = 0.30000000000000004, so
        # it shares [0.2, 0.3) with 0.2 (mean prob 0.25, rate 0.5); every other
        # probability has a bin of its own and contributes |p - y| / 8.
        hand = (0.1 + 2 * 0.25 + 0.4 + 0.4 + 0.7 + 0.2 + 0.1) / 8
        assert ece == pytest.approx(hand, abs=1e-12)

    def test_top_bin_includes_one(self):
        # a miss at 1.0 counts fully only if the top bin holds 1.0
        assert calibration_metrics([1.0], [0]) == (1.0, 1.0)


class TestRanking:
    def test_ndcg_target_first(self):
        assert ndcg_at_k(["a", "b", "c"], {"a"}, 3) == 1.0

    def test_ndcg_target_third(self):
        assert ndcg_at_k(["x", "y", "a"], {"a"}, 3) == pytest.approx(1 / np.log2(4))

    def test_ndcg_two_relevant_hand_case(self):
        got = ndcg_at_k(["a", "x", "b"], {"a", "b"}, 3)
        expected = (1.0 + 1 / np.log2(4)) / (1.0 + 1 / np.log2(3))
        assert got == pytest.approx(expected, abs=1e-12)


class TestAnytime:
    def test_five_strata(self):
        ell = np.tile(np.arange(1, 6), 2)
        values = np.repeat([0.0, 1.0], 5)
        seen = []
        curve = anytime(lambda idx: seen.append(idx.tolist()) or float(values[idx].mean()),
                        ell, 5)
        assert sorted(curve) == [1, 2, 3, 4, 5]
        assert all(v == 0.5 for v in curve.values())
        assert seen == [[e - 1, e + 4] for e in range(1, 6)]

    def test_undefined_stratum_is_none(self):
        ell = np.array([1, 1, 2])  # ell=2 single-class, ell=3 empty
        scores, labels = np.array([0.2, 0.8, 0.5]), np.array([1, 0, 1])
        curve = anytime(lambda idx: roc_auc(scores[idx], labels[idx]), ell, 3)
        assert curve[1] is not None
        assert curve[2] is None and curve[3] is None


class TestBootstrap:
    def test_constant_metric_zero_width(self):
        lo, hi = bootstrap_ci(lambda eps: 0.7, list(range(50)), b=100)
        assert lo == hi == 0.7

    def test_same_seed_identical_interval(self):
        data = list(np.random.default_rng(0).random(40))
        a = bootstrap_ci(np.mean, data, b=200, seed=3)
        b = bootstrap_ci(np.mean, data, b=200, seed=3)
        assert a == b

    def test_coverage_of_bernoulli_mean(self):
        rng = np.random.default_rng(7)
        covered = 0
        for trial in range(100):
            data = (rng.random(200) < 0.9).astype(float).tolist()
            lo, hi = bootstrap_ci(np.mean, data, b=400, seed=trial)
            if lo <= 0.9 <= hi:
                covered += 1
        assert covered >= 93

    def test_too_few_episodes_rejected(self):
        with pytest.raises(MetricError):
            bootstrap_ci(np.mean, [1.0] * 5)
