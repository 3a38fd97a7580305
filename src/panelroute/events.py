"""Clinical event model, token template, ordering, gap markers, vocabulary,
and episode sequence assembly.

Tokens follow a fixed type-prefixed template:
    [DIAG]_ICD9_<code>   [OBS]_LAB_<test>:<bin>   [ACTION]_ORD_<order>
    [GAP]_H<k>           [BOS] [EOS] [PAD] [UNK]
"""

import json
from dataclasses import dataclass, field
from enum import Enum

from .serial import write_lines

MAX_SEQ_LEN = 512
DEFAULT_GAP_THRESHOLDS = (1, 6)  # hours

LAB_BINS = ("LOW", "NORMAL", "HIGH", "CRITICAL", "POS", "NEG")

PAD, UNK, BOS, EOS = "[PAD]", "[UNK]", "[BOS]", "[EOS]"
SENTINELS = (PAD, UNK, BOS, EOS)
PAD_ID, UNK_ID, BOS_ID, EOS_ID = 0, 1, 2, 3


class SchemaError(Exception):
    pass


def _text_lines(path):
    """(line number, line) of a UTF-8 text file; bytes that are not UTF-8
    raise SchemaError naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from enumerate(fh, 1)
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path}: not UTF-8 text ({e.reason})") from None


class EventKind(str, Enum):
    """The kinds of clinical event. The sentinels are tokens, not events."""
    DIAG = "DIAG"
    LAB = "LAB"
    ORDER = "ORDER"
    GAP = "GAP"


# Sort precedence within a timestamp; DIAG first.
_PRECEDENCE = {EventKind.DIAG: 0, EventKind.LAB: 1, EventKind.ORDER: 2}


class DomainLabel(str, Enum):
    CARDIAC = "Cardiac"
    PULMONARY = "Pulmonary"
    GASTRO = "Gastro"
    MUSCULOSKELETAL = "Musculoskeletal"
    PSYCHOGENIC = "Psychogenic"


DOMAINS = (
    DomainLabel.CARDIAC,
    DomainLabel.PULMONARY,
    DomainLabel.GASTRO,
    DomainLabel.MUSCULOSKELETAL,
    DomainLabel.PSYCHOGENIC,
)
LIFE_THREAT_DOMAINS = (DomainLabel.CARDIAC, DomainLabel.PULMONARY)


def multi_hot(labels) -> tuple:
    labs = {DomainLabel(l) for l in labels}
    return tuple(1 if d in labs else 0 for d in DOMAINS)


def from_multi_hot(bits) -> tuple:
    """The DomainLabel tuple whose bits are set; the inverse of `multi_hot`."""
    return tuple(d for d, b in zip(DOMAINS, bits) if b)


@dataclass(frozen=True)
class ClinicalEvent:
    kind: EventKind
    code: str
    value_bin: str | None = None
    timestamp: int = 0  # minutes since episode start

    def validate(self) -> None:
        if self.timestamp < 0:
            raise SchemaError(f"negative timestamp {self.timestamp}")
        if self.kind == EventKind.LAB:
            if self.value_bin not in LAB_BINS:
                raise SchemaError(f"LAB event requires a value bin, got {self.value_bin!r}")
        elif self.value_bin is not None:
            raise SchemaError(f"{self.kind.value} event must not carry a value bin")
        if not self.code:
            raise SchemaError(f"empty code for {self.kind.value} event")


def render_token(event: ClinicalEvent) -> str:
    """Render one event to its unique template token text."""
    event.validate()
    k = event.kind
    if k == EventKind.DIAG:
        return f"[DIAG]_ICD9_{event.code}"
    if k == EventKind.LAB:
        return f"[OBS]_LAB_{event.code}:{event.value_bin}"
    if k == EventKind.ORDER:
        return f"[ACTION]_ORD_{event.code}"
    return f"[GAP]_H{event.code}"


def _order_key(event: ClinicalEvent) -> tuple:
    """Events sort chronologically, then DIAG > LAB > ORDER, then by token text
    within a kind."""
    return event.timestamp, _PRECEDENCE.get(event.kind, 99), render_token(event)


def _gap_marker(gap, thresholds):
    """The last threshold k (hours) in `thresholds` with k * 60 <= gap
    (minutes), or None."""
    marker = None
    for k in thresholds:
        if k * 60 <= gap:
            marker = k
    return marker


class Vocabulary:
    """Dense token<->id maps with fixed sentinel ids 0-3."""

    def __init__(self, tokens_with_counts):
        self.token_to_id = {t: i for i, t in enumerate(SENTINELS)}
        self.counts = {t: 0 for t in SENTINELS}
        for tok, cnt in tokens_with_counts:
            if tok in self.token_to_id:
                raise SchemaError(f"duplicate token {tok!r}")
            self.token_to_id[tok] = len(self.token_to_id)
            self.counts[tok] = cnt
        self.id_to_token = {i: t for t, i in self.token_to_id.items()}

    def __len__(self) -> int:
        return len(self.token_to_id)

    def encode(self, text: str) -> int:
        return self.token_to_id.get(text, UNK_ID)

    def decode(self, token_id: int) -> str:
        return self.id_to_token[token_id]

    def save(self, path) -> None:
        write_lines(path, (f"{i}\t{tok}\t{self.counts[tok]}\n"
                           for i, tok in self.id_to_token.items()))

    @classmethod
    def load(cls, path) -> "Vocabulary":
        rows = []
        for lineno, line in _text_lines(path):
            try:
                sid, tok, cnt = line.rstrip("\n").split("\t")
                rows.append((int(sid), tok, int(cnt)))
            except ValueError:
                raise SchemaError(f"{path}, line {lineno}: expected id, token and count "
                                  f"separated by tabs, got {line.rstrip()!r}") from None
        rows.sort()
        try:
            return cls([(tok, cnt) for sid, tok, cnt in rows if tok not in SENTINELS])
        except SchemaError as e:  # a repeated token
            raise SchemaError(f"{path}: {e}") from None


def build_vocabulary(token_lists, min_count: int = 1) -> Vocabulary:
    """Count tokens across rendered sequences; keep those at or above
    min_count. Order: descending count, ties alphabetical (byte-wise)."""
    counts: dict[str, int] = {}
    for toks in token_lists:
        for tok in toks:
            if tok in SENTINELS:
                continue
            counts[tok] = counts.get(tok, 0) + 1
    kept = [(tok, cnt) for tok, cnt in counts.items() if cnt >= min_count]
    kept.sort(key=lambda tc: (-tc[1], tc[0]))
    return Vocabulary(kept)


def render_episode_tokens(events, gold_diag_code=None):
    """Order events by `_order_key`, insert a [GAP]_H<k> marker between
    consecutive events whose gap reaches threshold k (hours; the largest such
    k), render, and drop the gold-label diagnosis rendering (label-leak
    prevention). Returns token texts, with each event rendered and validated
    once: its sort key holds the text emitted."""
    keyed = sorted(map(_order_key, events))
    gold_text = (
        render_token(ClinicalEvent(EventKind.DIAG, gold_diag_code)) if gold_diag_code else None
    )
    out = []
    prev_ts = None
    for ts, _, text in keyed:
        if prev_ts is not None:
            marker = _gap_marker(ts - prev_ts, DEFAULT_GAP_THRESHOLDS)
            if marker is not None:
                out.append(f"[GAP]_H{marker}")
        if text != gold_text:
            out.append(text)
        prev_ts = ts
    return out


def build_sequence(events, vocab: Vocabulary, gold_diag_code=None):
    """The encoded sequence (see `encode_tokens`) of the rendered events."""
    return encode_tokens(render_episode_tokens(events, gold_diag_code), vocab)


def encode_tokens(texts, vocab: Vocabulary) -> list:
    """[BOS] + encoded token texts + [EOS]; truncation keeps the most recent
    (MAX_SEQ_LEN - 2) tokens."""
    return [BOS_ID, *map(vocab.encode, texts[-(MAX_SEQ_LEN - 2):]), EOS_ID]


@dataclass
class Episode:
    episode_id: str
    events: list = field(default_factory=list)
    tokens: list = field(default_factory=list)  # token ids incl BOS/EOS
    labels: tuple = ()  # DomainLabel tuple
    gold_diag_code: str | None = None
    danger: bool = False

    @property
    def content_tokens(self) -> list:
        return [t for t in self.tokens if t not in (BOS_ID, EOS_ID)]

    def label_bits(self) -> tuple:
        return multi_hot(self.labels)


def tokenize_episode(ep: Episode, vocab: Vocabulary) -> Episode:
    ep.tokens = build_sequence(ep.events, vocab, ep.gold_diag_code)
    return ep


# --- JSONL episode files ---------------------------------------------------

def episode_to_dict(ep: Episode) -> dict:
    evs = []
    for e in ep.events:
        d = {"kind": e.kind.value, "code": e.code, "t_min": e.timestamp}
        if e.value_bin is not None:
            d["bin"] = e.value_bin
        evs.append(d)
    out = {
        "episode_id": ep.episode_id,
        "events": evs,
        "labels": [d.value for d in ep.labels],
        "gold": ep.gold_diag_code or "",
    }
    if ep.danger:
        out["danger"] = True
    return out


_KINDS = {k.value: k for k in EventKind}


def _event_kind(value) -> EventKind:
    try:
        return _KINDS[value]
    except (KeyError, TypeError):
        return EventKind(value)  # raises the enum's own ValueError


def episode_from_dict(d: dict) -> Episode:
    events = [
        ClinicalEvent(_event_kind(e["kind"]), e["code"], e.get("bin"), int(e["t_min"]))
        for e in d["events"]
    ]
    return Episode(
        episode_id=d["episode_id"],
        events=events,
        labels=tuple(DomainLabel(x) for x in d.get("labels", [])),
        gold_diag_code=d.get("gold") or None,
        danger=bool(d.get("danger", False)),
    )


def write_episodes_jsonl(path, episodes) -> None:
    write_lines(path, (json.dumps(episode_to_dict(ep), sort_keys=True) + "\n" for ep in episodes))


def read_episodes_jsonl(path) -> list:
    """Episodes of a JSONL file; a malformed line, or one repeating an earlier
    line's episode_id, raises SchemaError naming it."""
    episodes, first = [], {}
    for lineno, line in _text_lines(path):
        line = line.strip()
        if line:
            try:
                ep = episode_from_dict(json.loads(line))
                seen = first.setdefault(ep.episode_id, lineno)  # an unhashable id is a TypeError
            except (ValueError, KeyError, TypeError, AttributeError, SchemaError) as e:
                raise SchemaError(f"{path}, line {lineno}: not an episode: {e!r}") from None
            if seen != lineno:
                raise SchemaError(f"{path}, line {lineno}: episode_id {ep.episode_id!r} "
                                  f"repeats line {seen}")
            episodes.append(ep)
    return episodes
