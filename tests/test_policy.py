import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelroute.events import DOMAINS, LIFE_THREAT_DOMAINS, DomainLabel
from panelroute.metrics import MetricError, domain_mask, mask_recalls, policy_metrics, routing_recalls
from panelroute.policy import (
    BRANCHES,
    FAIL_OPEN,
    FAIL_OPEN_FLOOR,
    TOP1_LIFE,
    TOP2,
    AuditLog,
    PolicyError,
    Thresholds,
    arbitrate,
    default_grid,
    route,
    route_batch,
    tune_thresholds,
    write_frontier_csv,
)

C, P, G, M, S = DOMAINS
THR = Thresholds(0.70, 0.30)


class TestRoute:
    def test_high_cardiac_goes_top1_life(self):
        dec = route([0.80, 0.10, 0.05, 0.03, 0.02], THR)
        assert dec.branch == TOP1_LIFE and dec.route == (C,)

    def test_uniformly_low_fails_open(self):
        dec = route([0.10] * 5, THR)
        assert dec.branch == FAIL_OPEN and dec.route == DOMAINS

    def test_moderate_confidence_goes_top2(self):
        dec = route([0.10, 0.20, 0.50, 0.40, 0.05], THR)
        assert dec.branch == TOP2 and dec.route == (G, M)

    def test_life_tie_below_tau_hi_goes_top2_by_priority(self):
        dec = route([0.60, 0.60, 0.10, 0.10, 0.10], THR)
        assert dec.branch == TOP2 and dec.route == (C, P)

    def test_danger_flag_forces_fail_open(self):
        dec = route([0.99, 0.0, 0.0, 0.0, 0.0], THR, danger_flag=True)
        assert dec.branch == FAIL_OPEN and dec.route == DOMAINS

    def test_non_life_peak_cannot_trigger_top1(self):
        dec = route([0.10, 0.10, 0.95, 0.05, 0.05], THR)
        assert dec.branch == TOP2

    def test_life_guard_adds_life_domains_to_top2(self):
        dec = route([0.35, 0.10, 0.50, 0.40, 0.05], dataclasses.replace(THR, life_guard_tau=0.30))
        assert dec.branch == TOP2
        assert set(dec.route) == {C, P, G, M}

    def test_invalid_probs_rejected(self):
        for bad in ([0.5] * 4, [1.5, 0, 0, 0, 0], [np.nan, 0, 0, 0, 0]):
            with pytest.raises(PolicyError):
                route(bad, THR)

    def test_invalid_thresholds_rejected(self):
        with pytest.raises(PolicyError):
            Thresholds(0.30, 0.70)

    @pytest.mark.parametrize("guard", [-0.1, 1.1])
    def test_life_guard_outside_unit_interval_rejected(self, guard):
        with pytest.raises(PolicyError, match="life_guard_tau"):
            Thresholds(0.70, 0.30, life_guard_tau=guard)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5))
    def test_branch_invariants_over_random_vectors(self, probs):
        dec = route(probs, THR)
        if dec.branch == TOP1_LIFE:
            assert len(dec.route) == 1 and dec.route[0] in LIFE_THREAT_DOMAINS
        elif dec.branch == TOP2:
            assert len(dec.route) == 2
        else:
            assert dec.route == DOMAINS

    def test_safety_monotone_in_tau_hi(self):
        rng = np.random.default_rng(0)
        rows = [(rng.dirichlet(np.ones(5) * 2), (C,), False) for _ in range(200)]
        def life_recall(hi):
            thr = Thresholds(hi, 0.10)
            hits = [1.0 if set(route(p, thr, danger_flag=d).route) & set(LIFE_THREAT_DOMAINS)
                    else 0.0 for p, _, d in rows]
            return np.mean(hits)
        recalls = [life_recall(hi) for hi in (0.9, 0.7, 0.5, 0.3)]
        assert all(b >= a - 1e-12 for a, b in zip(recalls, recalls[1:]))

    def test_expected_experts_monotone_in_tau_lo(self):
        rng = np.random.default_rng(1)
        probs = rng.uniform(0, 1, size=(300, 5))
        def mean_experts(lo):
            thr = Thresholds(0.99, lo)
            return np.mean([len(route(p, thr).route) for p in probs])
        sizes = [mean_experts(lo) for lo in (0.1, 0.3, 0.5, 0.8)]
        assert all(b >= a - 1e-12 for a, b in zip(sizes, sizes[1:]))


def oracle_route(p, tau_hi, tau_lo, danger, life_guard_tau):
    """The routing rules restated from the prose, the life guard included."""
    if danger or max(p) < FAIL_OPEN_FLOOR:
        return frozenset(range(5)), FAIL_OPEN
    life_max = max(p[0], p[1])
    if life_max >= tau_hi:
        best = None
        for i in (0, 1):
            if best is None or p[i] > p[best]:
                best = i
        return frozenset([best]), TOP1_LIFE
    if max(p) >= tau_lo:
        picked = set(sorted(range(5), key=lambda i: (-p[i], i))[:2])
        if life_guard_tau is not None and life_max >= life_guard_tau:
            picked |= {0, 1}
        return frozenset(picked), TOP2
    return frozenset(range(5)), FAIL_OPEN


@st.composite
def routing_cases(draw):
    """Random (N <= 50, 5) matrices whose entries often sit exactly on a
    threshold or repeat one another, with any tau_lo <= tau_hi."""
    a, b = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    guard = draw(st.one_of(st.none(), st.floats(0.0, 1.0)))
    special = [0.0, 1.0, FAIL_OPEN_FLOOR, a, b] + ([] if guard is None else [guard])
    value = st.one_of(st.floats(0.0, 1.0), st.sampled_from(special))
    n = draw(st.integers(0, 50))
    probs = draw(st.lists(st.lists(value, min_size=5, max_size=5), min_size=n, max_size=n))
    danger = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return (np.array(probs, dtype=np.float64).reshape(n, 5), Thresholds(max(a, b), min(a, b)),
            np.array(danger, dtype=bool), guard)


class TestRouteBatch:
    @settings(max_examples=300, deadline=None)
    @given(routing_cases())
    def test_rows_match_route_and_oracle(self, case):
        probs, thr, danger, guard = case
        thr = dataclasses.replace(thr, life_guard_tau=guard)
        mask, branch = route_batch(probs, thr, danger)
        assert mask.shape == probs.shape and mask.dtype == bool
        assert branch.shape == (len(probs),)
        for i, p in enumerate(probs):
            got = (frozenset(np.flatnonzero(mask[i]).tolist()), BRANCHES[branch[i]])
            dec = route(p, thr, danger_flag=bool(danger[i]))
            assert got == (frozenset(DOMAINS.index(d) for d in dec.route), dec.branch)
            assert got == oracle_route(p.tolist(), thr.tau_hi, thr.tau_lo, danger[i], guard)

    def test_rejects_bad_shapes(self):
        with pytest.raises(PolicyError):
            route_batch(np.full((3, 4), 0.5), THR, np.zeros(3, dtype=bool))
        with pytest.raises(PolicyError):
            route_batch(np.full((3, 5), 0.5), THR, np.zeros(2, dtype=bool))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1))
    def test_mask_recalls_match_set_recalls(self, n, seed):
        rng = np.random.default_rng(seed)
        routed = rng.random((n, 5)) < 0.4
        truth = rng.random((n, 5)) < 0.3
        truth[0] = False  # always one empty truth row, excluded with a warning
        routes = [{d for d, m in zip(DOMAINS, row) if m} for row in routed]
        truths = [{d for d, m in zip(DOMAINS, row) if m} for row in truth]
        assert np.array_equal(domain_mask(truths), truth)
        if not truth.any():
            with pytest.warns(UserWarning), pytest.raises(MetricError):
                mask_recalls(routed, truth)
            return
        with pytest.warns(UserWarning, match="empty truth"):
            got = mask_recalls(routed, truth)
        with pytest.warns(UserWarning, match="empty truth"):
            np.testing.assert_array_equal(routing_recalls(routes, truths), got)
        life = set(LIFE_THREAT_DOMAINS)
        kept = [(r, t) for r, t in zip(routes, truths) if t]
        life_rows = [r for r, t in kept if t & life]
        assert got[:2] == (np.mean([bool(r & t) for r, t in kept]),
                           np.mean([t <= r for r, t in kept]))
        if life_rows:
            assert got[2] == np.mean([bool(r & life) for r in life_rows])
        else:
            assert np.isnan(got[2])


def expected_experts(decisions) -> float:
    """E[|R|] of route decisions by the one rule, `metrics.policy_metrics`."""
    routed = domain_mask([d.route for d in decisions])
    return policy_metrics(routed, np.ones_like(routed))["expected_experts"]


class TestExpectedExperts:
    def test_all_top1(self):
        decs = [route([0.9, 0.0, 0.0, 0.0, 0.0], THR)] * 4
        assert expected_experts(decs) == 1.0

    def test_all_fail_open(self):
        decs = [route([0.0] * 5, THR)] * 3
        assert expected_experts(decs) == 5.0

    def test_hand_mean(self):
        decs = [
            route([0.9, 0, 0, 0, 0], THR),          # 1
            route([0.1, 0.2, 0.5, 0.4, 0.05], THR),  # 2
            route([0.6, 0.6, 0.1, 0.1, 0.1], THR),   # 2
            route([0.0] * 5, THR),                    # 5
        ]
        assert expected_experts(decs) == 2.5


def brute_force_tune(prob_rows, grid, constraint):
    """Independent exhaustive reference for the tuner (test oracle)."""
    from panelroute.metrics import routing_recalls

    table = []
    for hi, lo in grid:
        if lo > hi:
            continue
        routes, truths = [], []
        for probs, truth, danger in prob_rows:
            dec = route(probs, Thresholds(hi, lo), danger_flag=danger)
            routes.append(set(dec.route))
            truths.append(set(truth))
        r_any, r_all, r_life = routing_recalls(routes, truths)
        table.append({"tau_hi": hi, "tau_lo": lo, "life_recall": r_life,
                      "expected_experts": float(np.mean([len(r) for r in routes])),
                      "recall_any": r_any, "recall_all": r_all})
    feasible = [r for r in table if r["life_recall"] >= constraint]
    pool = feasible or table
    if feasible:
        key = lambda r: (r["expected_experts"], -r["life_recall"], r["tau_hi"], r["tau_lo"])
    else:
        key = lambda r: (-r["life_recall"], r["expected_experts"], r["tau_hi"], r["tau_lo"])
    return min(pool, key=key), table, bool(feasible)


def as_arrays(prob_rows):
    """The tuner's (probs, truth mask, danger) arrays of (probs, truth domains, danger) rows."""
    return (np.array([p for p, _, _ in prob_rows], dtype=np.float64).reshape(-1, len(DOMAINS)),
            domain_mask(t for _, t, _ in prob_rows),
            np.array([d for _, _, d in prob_rows], dtype=bool))


def seeded_prob_rows(n, seed, life_frac=0.4):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        truth = (C,) if rng.random() < life_frac else (G,)
        base = rng.dirichlet(np.ones(5))
        boost = np.zeros(5)
        boost[DOMAINS.index(truth[0])] = rng.uniform(0, 0.7)
        p = np.clip(base + boost, 0, 1)
        rows.append((p, truth, bool(rng.random() < 0.05)))
    return rows


class TestTuner:
    def test_three_episode_hand_set_matches_brute_force(self):
        rows = [
            ((0.80, 0.05, 0.05, 0.05, 0.05), (C,), False),
            ((0.10, 0.15, 0.60, 0.30, 0.05), (G,), False),
            ((0.40, 0.35, 0.10, 0.05, 0.05), (P,), False),
        ]
        grid = [(hi, lo) for hi in (0.5, 0.7, 0.9) for lo in (0.1, 0.3)]
        result = tune_thresholds(*as_arrays(rows), grid=grid, constraint=0.98)
        oracle_best, oracle_table, met = brute_force_tune(rows, grid, 0.98)
        assert (result.tau_hi, result.tau_lo) == (oracle_best["tau_hi"], oracle_best["tau_lo"])
        assert result.table == oracle_table
        assert result.constraint_met == met

    def test_paper_point_is_on_default_grid(self):
        assert (0.70, 0.30) in default_grid()

    def test_tau_lo_zero_never_fails_open_via_rule_d(self):
        rng = np.random.default_rng(0)
        thr = Thresholds(0.99, 0.0)
        for _ in range(200):
            p = rng.uniform(FAIL_OPEN_FLOOR, 1.0, size=5)
            dec = route(p, thr)
            assert dec.branch != FAIL_OPEN
            assert len(dec.route) <= 2

    def test_feasible_selection_meets_constraint_and_minimizes_experts(self):
        rows = seeded_prob_rows(300, seed=4)
        result = tune_thresholds(*as_arrays(rows), constraint=0.90)
        if result.constraint_met:
            assert result.life_recall >= 0.90
            feas = [r for r in result.table if r["life_recall"] >= 0.90]
            assert result.expected_experts == min(r["expected_experts"] for r in feas)

    def test_infeasible_falls_back_to_max_life_recall(self):
        # Gastro-looking probabilities on life-threat truths: TOP2 misses life
        rows = [((0.05, 0.05, 0.90, 0.60, 0.05), (C,), False)] * 20
        result = tune_thresholds(*as_arrays(rows), grid=[(0.9, 0.5)], constraint=0.98)
        assert not result.constraint_met
        assert result.life_recall == max(r["life_recall"] for r in result.table)

    def test_no_life_truth_rejected(self):
        rows = [((0.1, 0.1, 0.8, 0.1, 0.1), (G,), False)]
        with pytest.raises(PolicyError):
            tune_thresholds(*as_arrays(rows))

    def test_frontier_csv_round_trips(self, tmp_path):
        rows = seeded_prob_rows(50, seed=5)
        result = tune_thresholds(*as_arrays(rows), grid=[(0.7, 0.3), (0.9, 0.1)])
        write_frontier_csv(tmp_path / "f.csv", result.table)
        lines = (tmp_path / "f.csv").read_text().strip().split("\n")
        assert lines[0] == "tau_hi,tau_lo,life_recall,expected_experts,recall_any,recall_all"
        assert len(lines) == 1 + len(result.table)


class TestArbitrate:
    def test_merge_with_dedup_and_attribution(self):
        merged = arbitrate({C: ["A", "B"], P: ["B", "C"]})
        assert merged == [("A", C), ("B", C), ("C", P)]

    def test_single_expert_identity(self):
        assert arbitrate({G: ["X", "Y"]}) == [("X", G), ("Y", G)]

    def test_equal_lists_collapse_to_first_expert(self):
        merged = arbitrate({d: ["A", "B"] for d in DOMAINS})
        assert merged == [("A", C), ("B", C)]

    def test_priority_order_dominates_rank(self):
        merged = arbitrate({S: ["Z"], C: ["A"]})
        assert merged == [("A", C), ("Z", S)]


class TestAuditLog:
    def test_one_record_per_routed_prefix(self, tmp_path):
        log = AuditLog(tmp_path / "audit.jsonl")
        for i in range(7):
            dec = route([0.8, 0.05, 0.05, 0.05, 0.05], THR)
            log.append({**dataclasses.asdict(dec), "episode_id": f"e{i}", "ell": 1,
                        "raw_scores": [0.0] * 5})
        lines = (tmp_path / "audit.jsonl").read_text().strip().split("\n")
        assert len(lines) == 7
        rec = json.loads(lines[0])
        assert rec["branch"] == TOP1_LIFE and rec["route"] == ["Cardiac"]
