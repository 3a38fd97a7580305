import gc
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelroute.cohort import (
    DEFAULT_MIXTURE,
    CohortConfig,
    CohortConfigError,
    default_grammars,
    generate_cohort,
    ingest,
    largest_remainder_quotas,
    merge_records,
    proportional_sample,
    save_grammars,
    load_grammars,
)
from panelroute.events import (
    DOMAINS,
    DomainLabel,
    Episode,
    EventKind,
    render_token,
    write_episodes_jsonl,
)

C = DomainLabel.CARDIAC
P = DomainLabel.PULMONARY


def small_counts(n=10):
    return {d.value: n for d in DOMAINS}


class TestGenerateCohort:
    def test_explicit_counts_are_exact(self):
        eps = generate_cohort(CohortConfig(seed=42, counts=small_counts(10)))
        assert len(eps) == 50
        census = {d: 0 for d in DOMAINS}
        for ep in eps:
            census[ep.labels[0]] += 1
        assert all(v == 10 for v in census.values())

    def test_same_seed_byte_identical_jsonl(self, tmp_path):
        for name in ("a.jsonl", "b.jsonl"):
            eps = generate_cohort(CohortConfig(seed=7, counts=small_counts(6)))
            write_episodes_jsonl(tmp_path / name, eps)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_full_signal_tokens_are_domain_unique(self):
        grammars = default_grammars()
        for g in grammars.values():
            g.signal_strength = 1.0
        eps = generate_cohort(CohortConfig(seed=3, counts=small_counts(8)), grammars)
        token_domain: dict[str, DomainLabel] = {}
        for ep in eps:
            domain = ep.labels[0]
            for ev in ep.events:
                tok = render_token(ev)
                if tok.startswith("[GAP]"):
                    continue
                assert token_domain.setdefault(tok, domain) == domain

    def test_episodes_satisfy_schema_and_support_k_prefixes(self):
        cfg = CohortConfig(seed=1, counts=small_counts(5), k=5)
        for ep in generate_cohort(cfg):
            for ev in ep.events:
                ev.validate()
            assert len(ep.events) >= cfg.k
            assert ep.labels
            assert ep.gold_diag_code
            # gold diagnosis is the final event
            assert ep.events[-1].code == ep.gold_diag_code
            ts = [e.timestamp for e in ep.events]
            assert all(b >= a for a, b in zip(ts, ts[1:]))

    def test_multi_label_rate_produces_second_labels(self):
        cfg = CohortConfig(seed=5, counts=small_counts(40), multi_label_rate=0.5)
        eps = generate_cohort(cfg)
        n_multi = sum(1 for ep in eps if len(ep.labels) > 1)
        assert 40 < n_multi < 160

    def test_min_length_below_k_rejected(self):
        grammars = default_grammars()
        grammars[C].length_range = (3, 10)
        with pytest.raises(CohortConfigError):
            generate_cohort(CohortConfig(seed=0, counts=small_counts(2), k=5), grammars)

    def test_grammar_json_round_trip(self, tmp_path):
        grammars = default_grammars()
        save_grammars(tmp_path / "g.json", grammars)
        loaded = load_grammars(tmp_path / "g.json")
        assert set(loaded) == set(grammars)
        assert loaded[C].to_dict() == grammars[C].to_dict()

    def test_grammar_file_is_sorted_json_and_closed_after_load(self, tmp_path):
        grammars = default_grammars()
        save_grammars(tmp_path / "g.json", grammars)
        data = {"grammars": [grammars[d].to_dict() for d in DOMAINS]}
        assert (tmp_path / "g.json").read_text() == json.dumps(data, indent=2, sort_keys=True) + "\n"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            load_grammars(tmp_path / "g.json")
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestLargestRemainderQuotas:
    def test_symmetric(self):
        assert largest_remainder_quotas([0.5, 0.5], 10) == [5, 5]

    def test_paper_shaped_mixture(self):
        assert largest_remainder_quotas(DEFAULT_MIXTURE, 1000) == [82, 228, 326, 38, 326]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6), st.integers(0, 500))
    def test_sums_to_total(self, weights, total):
        prev = [w / sum(weights) for w in weights]
        quotas = largest_remainder_quotas(prev, total)
        assert sum(quotas) == total
        assert all(q >= 0 for q in quotas)


def mini_episode(eid, labels, n_events=3, gold="999", tokens=()):
    from panelroute.events import ClinicalEvent

    events = [ClinicalEvent(EventKind.ORDER, f"E{i}", timestamp=i) for i in range(n_events)]
    return Episode(episode_id=eid, events=events, tokens=list(tokens),
                   labels=tuple(labels), gold_diag_code=gold)


class TestMergeRecords:
    def test_longest_event_list_wins(self):
        a = mini_episode("x", [C], n_events=5)
        b = mini_episode("x", [C], n_events=9)
        assert merge_records([a, b]).events == b.events

    def test_single_record_identity(self):
        a = mini_episode("x", [C], n_events=4)
        merged = merge_records([a])
        assert merged.events == a.events and merged.labels == a.labels

    def test_cross_domain_duplicate_unions_labels(self):
        a = mini_episode("x", [C])
        b = mini_episode("x", [P])
        merged = merge_records([a, b])
        assert merged.labels == (C, P)
        assert merged.label_bits() == (1, 1, 0, 0, 0)

    def test_danger_flag_is_or(self):
        a = mini_episode("x", [C])
        b = mini_episode("x", [C])
        b.danger = True
        assert merge_records([a, b]).danger

    def test_ingest_groups_by_id(self):
        eps = [mini_episode("x", [C]), mini_episode("y", [P]), mini_episode("x", [P])]
        merged = ingest(eps)
        assert [e.episode_id for e in merged] == ["x", "y"]
        assert merged[0].labels == (C, P)


class TestProportionalSample:
    def test_zero_target_disables(self):
        eps = generate_cohort(CohortConfig(seed=0, counts=small_counts(4)))
        assert proportional_sample(eps, 0) is not None
        assert len(proportional_sample(eps, 0)) == len(eps)

    def test_skewed_mixture_census_within_one(self):
        cfg = CohortConfig(seed=11, total=2000, mixture=DEFAULT_MIXTURE)
        eps = generate_cohort(cfg)
        sampled = proportional_sample(eps, 1000, seed=11)
        assert len(sampled) == 1000
        census = {d: 0 for d in DOMAINS}
        for ep in sampled:
            for d in ep.labels:
                census[d] += 1
        expected = dict(zip(DOMAINS, largest_remainder_quotas(DEFAULT_MIXTURE, 1000)))
        for d in DOMAINS:
            assert abs(census[d] - expected[d]) <= 1

    def test_no_duplicate_ids(self):
        eps = generate_cohort(CohortConfig(seed=2, counts=small_counts(30)))
        sampled = proportional_sample(eps, 60, seed=2)
        ids = [ep.episode_id for ep in sampled]
        assert len(ids) == len(set(ids)) == 60

    def test_deterministic(self):
        eps = generate_cohort(CohortConfig(seed=2, counts=small_counts(20)))
        a = proportional_sample(eps, 40, seed=9)
        b = proportional_sample(eps, 40, seed=9)
        assert [e.episode_id for e in a] == [e.episode_id for e in b]
