import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelroute.events import (
    BOS_ID,
    DEFAULT_GAP_THRESHOLDS,
    DOMAINS,
    EOS_ID,
    UNK_ID,
    ClinicalEvent,
    EventKind,
    SchemaError,
    Vocabulary,
    build_sequence,
    build_vocabulary,
    episode_from_dict,
    episode_to_dict,
    _gap_marker,
    _order_key,
    from_multi_hot,
    multi_hot,
    render_episode_tokens,
    render_token,
)

D, L, O = EventKind.DIAG, EventKind.LAB, EventKind.ORDER


# Oracles of `render_episode_tokens`, which fuses ordering, gap markers and
# rendering into one pass: each step on event objects, as first written.
def order_events(events):
    """Chronological sort, then DIAG > LAB > ORDER, then alphabetical token
    text within a kind. Stable: fully identical keys keep input order."""
    return sorted(events, key=_order_key)


def insert_gap_markers(events, thresholds=DEFAULT_GAP_THRESHOLDS):
    """Insert [GAP]_H<k> between consecutive events whose gap reaches the
    largest qualifying threshold (hours). Events must already be ordered."""
    out = []
    for i, ev in enumerate(events):
        if i > 0:
            marker = _gap_marker(ev.timestamp - events[i - 1].timestamp, thresholds)
            if marker is not None:
                out.append(
                    ClinicalEvent(EventKind.GAP, str(marker), timestamp=events[i - 1].timestamp)
                )
        out.append(ev)
    return out


def ev(kind, code, t=0, bin=None):
    return ClinicalEvent(kind, code, bin, t)


class TestRenderToken:
    def test_diag(self):
        assert render_token(ev(D, "786.50")) == "[DIAG]_ICD9_786.50"

    def test_lab(self):
        assert render_token(ev(L, "TROP", bin="HIGH")) == "[OBS]_LAB_TROP:HIGH"

    def test_order(self):
        assert render_token(ev(O, "ECG")) == "[ACTION]_ORD_ECG"

    def test_gap(self):
        assert render_token(ev(EventKind.GAP, "1")) == "[GAP]_H1"

    def test_lab_without_bin_rejected(self):
        with pytest.raises(SchemaError):
            render_token(ClinicalEvent(L, "TROP"))

    def test_bin_on_non_lab_rejected(self):
        with pytest.raises(SchemaError):
            render_token(ClinicalEvent(D, "786.50", "HIGH"))

    def test_empty_code_rejected(self):
        with pytest.raises(SchemaError):
            render_token(ClinicalEvent(D, ""))

    def test_negative_timestamp_rejected(self):
        with pytest.raises(SchemaError):
            render_token(ClinicalEvent(D, "786.50", None, -1))


class TestOrderEvents:
    def test_diag_before_lab_same_time(self):
        events = [ev(L, "TROP", 10, "HIGH"), ev(D, "786.50", 10)]
        assert [e.kind for e in order_events(events)] == [D, L]

    def test_alphabetical_within_kind(self):
        events = [ev(O, "XRAY", 5), ev(O, "ECG", 5)]
        assert [e.code for e in order_events(events)] == ["ECG", "XRAY"]

    def test_chronology_dominates(self):
        events = [ev(D, "999", 20), ev(O, "ECG", 5)]
        assert [e.code for e in order_events(events)] == ["ECG", "999"]

    def test_all_permutations_agree(self):
        base = [
            ev(D, "786.50", 0),
            ev(O, "ECG", 0),
            ev(L, "TROP", 0, "HIGH"),
            ev(O, "CXR", 10),
            ev(D, "410.71", 10),
            ev(L, "DDIMER", 5, "POS"),
        ]
        expected = order_events(base)
        for perm in itertools.permutations(base):
            assert order_events(list(perm)) == expected

    def test_idempotent(self):
        events = [ev(O, "B", 3), ev(D, "A", 3), ev(L, "C", 1, "LOW")]
        once = order_events(events)
        assert order_events(once) == once


class TestGapMarkers:
    def test_90_minutes_gets_h1(self):
        events = [ev(D, "1", 0), ev(O, "ECG", 90)]
        out = insert_gap_markers(events)
        assert [render_token(e) for e in out] == [
            "[DIAG]_ICD9_1", "[GAP]_H1", "[ACTION]_ORD_ECG",
        ]

    def test_short_gap_no_marker(self):
        events = [ev(D, "1", 0), ev(O, "ECG", 30)]
        assert len(insert_gap_markers(events)) == 2

    def test_400_minutes_gets_h6(self):
        events = [ev(D, "1", 0), ev(O, "ECG", 400)]
        out = insert_gap_markers(events)
        assert render_token(out[1]) == "[GAP]_H6"

    def test_marker_carries_earlier_timestamp(self):
        events = [ev(D, "1", 7), ev(O, "ECG", 500)]
        out = insert_gap_markers(events)
        assert out[1].timestamp == 7

    def test_non_gap_order_preserved(self):
        events = [ev(D, "1", 0), ev(O, "A", 120), ev(L, "B", 600, "LOW")]
        out = insert_gap_markers(events)
        assert [e for e in out if e.kind != EventKind.GAP] == events


def toy_vocab(events, gold=None):
    from panelroute.events import render_episode_tokens

    return build_vocabulary([render_episode_tokens(events, gold)])


class TestBuildVocabulary:
    def test_rare_token_maps_to_unk(self):
        lists = [["[ACTION]_ORD_ECG", "[ACTION]_ORD_ECG"], ["[ACTION]_ORD_XRAY"]]
        vocab = build_vocabulary(lists, min_count=2)
        assert vocab.encode("[ACTION]_ORD_XRAY") == UNK_ID
        assert vocab.encode("[ACTION]_ORD_ECG") == 4

    def test_hand_counted_corpus(self):
        lists = [
            ["[DIAG]_ICD9_1", "[ACTION]_ORD_ECG", "[OBS]_LAB_T:HIGH"],
            ["[ACTION]_ORD_ECG", "[OBS]_LAB_T:HIGH"],
            ["[ACTION]_ORD_ECG"],
        ]
        vocab = build_vocabulary(lists)
        # sentinels 0-3, then by descending count, alphabetical ties
        assert vocab.decode(4) == "[ACTION]_ORD_ECG"  # count 3
        assert vocab.decode(5) == "[OBS]_LAB_T:HIGH"  # count 2
        assert vocab.decode(6) == "[DIAG]_ICD9_1"  # count 1
        assert vocab.counts["[ACTION]_ORD_ECG"] == 3

    def test_round_trip(self):
        lists = [["[DIAG]_ICD9_1", "[ACTION]_ORD_ECG"]]
        vocab = build_vocabulary(lists)
        for tok in list(vocab.token_to_id):
            assert vocab.decode(vocab.encode(tok)) == tok

    def test_save_load(self, tmp_path):
        vocab = build_vocabulary([["[DIAG]_ICD9_1", "[ACTION]_ORD_ECG"]])
        vocab.save(tmp_path / "v.tsv")
        loaded = type(vocab).load(tmp_path / "v.tsv")
        assert loaded.token_to_id == vocab.token_to_id


class TestBuildSequence:
    def test_gold_token_excluded(self):
        events = [ev(D, "786.50", 0), ev(D, "410.71", 50)]
        vocab = toy_vocab(events)
        ids = build_sequence(events, vocab, gold_diag_code="410.71")
        assert vocab.encode("[DIAG]_ICD9_410.71") not in ids

    def test_empty_events(self):
        vocab = build_vocabulary([["[DIAG]_ICD9_1"]])
        assert build_sequence([], vocab) == [BOS_ID, EOS_ID]

    def test_truncation_keeps_suffix(self):
        events = [ev(O, f"X{i:03d}", t=i) for i in range(600)]
        vocab = build_vocabulary([[render_token(e) for e in events]])
        ids = build_sequence(events, vocab)
        assert len(ids) == 512
        assert ids[0] == BOS_ID and ids[-1] == EOS_ID
        # suffix window: the last content token is the latest event
        assert vocab.decode(ids[-2]) == "[ACTION]_ORD_X599"
        assert vocab.decode(ids[1]) == "[ACTION]_ORD_X090"


@st.composite
def random_episode(draw):
    n = draw(st.integers(1, 12))
    events = []
    for i in range(n):
        kind = draw(st.sampled_from([D, L, O]))
        code = draw(st.sampled_from(["A", "B", "C", "786.50", "410.71"]))
        t = draw(st.integers(0, 1000))
        bin = draw(st.sampled_from(["LOW", "HIGH"])) if kind == L else None
        events.append(ClinicalEvent(kind, code, bin, t))
    gold = draw(st.sampled_from(["A", "410.71", "ZZZ"]))
    return events, gold


class TestSequenceProperties:
    @settings(max_examples=60, deadline=None)
    @given(random_episode())
    def test_gold_never_leaks_and_shape_holds(self, ep):
        events, gold = ep
        from panelroute.events import render_episode_tokens

        vocab = build_vocabulary([render_episode_tokens(events)])
        ids = build_sequence(events, vocab, gold_diag_code=gold)
        assert len(ids) <= 512
        assert ids[0] == BOS_ID and ids[-1] == EOS_ID
        gold_id = vocab.token_to_id.get(f"[DIAG]_ICD9_{gold}")
        if gold_id is not None:
            assert gold_id not in ids


@st.composite
def timed_episode(draw):
    """Events on timestamps whose gaps include equal times and exactly 60 and
    360 minutes, with the gold diagnosis present, absent or missing."""
    n = draw(st.integers(0, 12))
    events = []
    for _ in range(n):
        kind = draw(st.sampled_from([D, L, O]))
        code = draw(st.sampled_from(["A", "B", "410.71"]))
        t = draw(st.sampled_from([0, 1, 59, 60, 61, 360, 361, 420, 780]))
        bin = draw(st.sampled_from(["LOW", "HIGH"])) if kind == L else None
        events.append(ClinicalEvent(kind, code, bin, t))
    gold = draw(st.sampled_from([None, "", "A", "410.71", "ZZZ"]))
    return events, gold


class TestRenderEpisodeTokens:
    @settings(max_examples=200, deadline=None)
    @given(timed_episode())
    def test_equals_order_gap_render_reference(self, ep):
        events, gold = ep
        gold_text = render_token(ev(D, gold)) if gold else None
        expected = [render_token(e) for e in insert_gap_markers(order_events(events))]
        expected = [t for t in expected if t != gold_text]
        assert render_episode_tokens(events, gold) == expected

    @pytest.mark.parametrize("bad", [ev(L, "TROP"), ev(O, "ECG", t=-5), ev(D, "")])
    def test_invalid_event_raises_schema_error(self, bad):
        with pytest.raises(SchemaError):
            render_episode_tokens([ev(O, "ECG", 0), bad, ev(D, "A", 90)])


class TestEpisodeFromDict:
    def test_unknown_kind_raises_the_enum_error(self):
        d = {"episode_id": "x", "events": [{"kind": "VITAL", "code": "HR", "t_min": 0}]}
        with pytest.raises(ValueError, match="'VITAL' is not a valid EventKind"):
            episode_from_dict(d)

    def test_kinds_map_to_members(self):
        d = {"episode_id": "x", "events": [{"kind": "LAB", "code": "T", "bin": "LOW", "t_min": 3},
                                           {"kind": "ORDER", "code": "ECG", "t_min": 4}]}
        assert [e.kind for e in episode_from_dict(d).events] == [L, O]

    def test_time_feats_key_is_read_and_ignored(self):
        d = {"episode_id": "x", "events": [{"kind": "ORDER", "code": "ECG", "t_min": 4}],
             "time_feats": [4.0, 0.0], "labels": ["Gastro"], "gold": ""}
        assert episode_to_dict(episode_from_dict(d)) == {
            k: v for k, v in d.items() if k != "time_feats"}


@given(st.lists(st.sampled_from(DOMAINS), unique=True))
def test_from_multi_hot_inverts_multi_hot(labels):
    assert from_multi_hot(multi_hot(labels)) == tuple(d for d in DOMAINS if d in labels)


class TestVocabularyLoad:
    @pytest.mark.parametrize("line", ["garbage", "4\t[DIAG]_ICD9_1", "x\t[DIAG]_ICD9_1\t3",
                                      "4\t[DIAG]_ICD9_1\t3\textra"])
    def test_malformed_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "vocab.tsv"
        build_vocabulary([["[DIAG]_ICD9_1"]]).save(path)
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(SchemaError, match=r"vocab\.tsv, line 6"):
            Vocabulary.load(path)
