import gc
import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelroute.cohort import (
    DEFAULT_MIXTURE,
    CohortConfig,
    _bin_table,
    _draw_table,
    _weighted_choice,
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

    @pytest.mark.parametrize("field, value, named", [
        ("length_range", [6.0, 24], "length_range"),
        ("length_range", [6, 12, 24], "length_range"),
        ("signal_strength", 1.5, "signal_strength"),
    ])
    def test_bad_grammar_field_is_named_with_file_and_domain(self, tmp_path, field, value,
                                                             named):
        save_grammars(tmp_path / "g.json", default_grammars())
        data = json.loads((tmp_path / "g.json").read_text())
        data["grammars"][0][field] = value
        (tmp_path / "g.json").write_text(json.dumps(data))
        with pytest.raises(CohortConfigError) as err:
            load_grammars(tmp_path / "g.json")
        assert str(tmp_path / "g.json") in str(err.value)
        assert "Cardiac" in str(err.value) and named in str(err.value)


def cohort_digest(tmp_path, cfg, grammars):
    write_episodes_jsonl(tmp_path / "cohort.jsonl", generate_cohort(cfg, grammars))
    return hashlib.sha256((tmp_path / "cohort.jsonl").read_bytes()).hexdigest()


class TestRandomStream:
    """The cached draw tables consume the stream `Generator.choice` does."""

    weights = st.lists(st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=8)

    @given(weights=weights, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_weighted_choice_is_generator_choice(self, weights, seed):
        items = [f"x{i}" for i in range(len(weights))]
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        w = np.asarray(weights)
        expected = items[int(b.choice(len(w), p=w / w.sum()))]
        assert _weighted_choice(a, _draw_table(list(zip(items, weights)))) == expected
        assert a.random() == b.random()

    @given(weights=weights, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_weighted_bin_is_generator_choice(self, weights, seed):
        bins = dict(zip(["NORMAL", "HIGH", "LOW", "POS", "NEG", "CRITICAL", "B7", "B8"],
                        weights))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        names = sorted(bins)
        w = np.asarray([bins[n] for n in names])
        expected = names[int(b.choice(len(w), p=w / w.sum()))]
        assert _weighted_choice(a, _bin_table(bins)) == expected
        assert a.random() == b.random()

    def test_pinned_cohort_digest_with_second_labels_and_danger(self, tmp_path):
        cfg = CohortConfig(seed=7, total=300, multi_label_rate=0.3, danger_rate=0.3)
        assert cohort_digest(tmp_path, cfg, default_grammars()) == (
            "02be35e327880de222ad8579c15323c110622f7f7c5df1bf591f742f28510ff5")

    def test_pinned_cohort_digest_of_long_episodes(self, tmp_path):
        grammars = default_grammars()
        for g in grammars.values():
            g.length_range = (100, 160)
        cfg = CohortConfig(seed=3, total=40, mixture=(0.2,) * 5)
        assert cohort_digest(tmp_path, cfg, grammars) == (
            "6f5546b4dce4e24280e07d21fd465df3ce2c55a604a0506e5e80dbb0d547b62c")

    @pytest.mark.parametrize("pool", ["initial_codes", "order_pool", "gold_codes", "lab_pool"])
    @pytest.mark.parametrize("weight", [0.0, -1.0, math.nan, math.inf])
    def test_weight_that_is_not_positive_and_finite_is_refused(self, pool, weight):
        grammars = default_grammars()
        g = grammars[P]
        if pool == "lab_pool":
            test, bins = g.lab_pool[1]
            g.lab_pool[1] = (test, {**bins, "LOW": weight})
        else:
            getattr(g, pool)[0] = (getattr(g, pool)[0][0], weight)
        with pytest.raises(CohortConfigError, match=f"Pulmonary: {pool}"):
            generate_cohort(CohortConfig(seed=0, counts=small_counts(2)), grammars)

    def test_empty_bin_dict_is_refused(self):
        grammars = default_grammars()
        grammars[P].lab_pool[0] = ("DDIMER", {})
        with pytest.raises(CohortConfigError, match="Pulmonary: lab_pool DDIMER"):
            generate_cohort(CohortConfig(seed=0, counts=small_counts(2)), grammars)


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
