"""Output checks made apart from the program.

Nothing here imports panelroute. The routing rules, the bundle reader, the
ROC-AUC and the specialist forward pass are written again from the README's
prose, so that a check failing means the program's output is wrong. Every
check returns a list of problems; an empty list means the output passed.
"""

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np
from scipy.special import erf

DOMAIN_NAMES = ("Cardiac", "Pulmonary", "Gastro", "Musculoskeletal", "Psychogenic")
LIFE = (0, 1)  # Cardiac, Pulmonary
FAIL_OPEN_FLOOR = 0.25
TOL = 1e-12
LOSS_RTOL = 1e-9  # the benchmark's forward pass sums in another order than the program's


# --- routing ---------------------------------------------------------------

def oracle_route(probs, tau_hi, tau_lo, danger):
    """(routed domain names in priority order, branch) by the four rules:
    danger or every p below the floor -> all five (FAIL_OPEN); a life-threat
    p >= tau_hi -> the higher of Cardiac/Pulmonary (TOP1_LIFE); any p >= tau_lo
    -> the two highest, ties to the higher-priority domain (TOP2); else all."""
    p = [float(v) for v in probs]
    if len(p) != len(DOMAIN_NAMES):
        raise ValueError(f"expected {len(DOMAIN_NAMES)} probabilities, got {len(p)}")
    everyone = list(DOMAIN_NAMES)
    if danger or max(p) < FAIL_OPEN_FLOOR:
        return everyone, "FAIL_OPEN"
    if max(p[i] for i in LIFE) >= tau_hi:
        best = LIFE[0] if p[LIFE[0]] >= p[LIFE[1]] else LIFE[1]
        return [DOMAIN_NAMES[best]], "TOP1_LIFE"
    if max(p) >= tau_lo:
        ranked = sorted(range(len(p)), key=lambda i: (-p[i], i))
        return [DOMAIN_NAMES[i] for i in sorted(ranked[:2])], "TOP2"
    return everyone, "FAIL_OPEN"


def check_route_output(stdout: str, danger: bool, thresholds: dict, vocab: set) -> list:
    """The decision `route` printed must follow from its own probabilities and
    the request's danger flag; its suggestions must be distinct vocabulary
    tokens merged in domain-priority order from the routed specialists."""
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as e:
        return [f"route output is not JSON: {e}"]
    problems = []
    if (out.get("tau_hi"), out.get("tau_lo")) != (thresholds["tau_hi"], thresholds["tau_lo"]):
        problems.append("route used thresholds other than thresholds.json")
    want_route, want_branch = oracle_route(out["probs"], thresholds["tau_hi"],
                                           thresholds["tau_lo"], danger)
    if out["route"] != want_route or out["branch"] != want_branch:
        problems.append(f"{out.get('episode_id')}: routed {out['route']} {out['branch']}, "
                        f"rules give {want_route} {want_branch}")
    suggestions = out.get("suggestions", [])
    items = [item for item, _ in suggestions]
    ranks = [DOMAIN_NAMES.index(d) if d in DOMAIN_NAMES else -1 for _, d in suggestions]
    if not suggestions:
        problems.append(f"{out.get('episode_id')}: no suggestions from {out['route']}")
    if len(set(items)) != len(items):
        problems.append(f"{out.get('episode_id')}: repeated suggestion")
    if any(item not in vocab for item in items):
        problems.append(f"{out.get('episode_id')}: suggestion outside the vocabulary")
    if any(d not in out["route"] for _, d in suggestions) or ranks != sorted(ranks):
        problems.append(f"{out.get('episode_id')}: suggestions not merged in priority order "
                        "from routed domains")
    return problems


# --- artifacts -------------------------------------------------------------

def read_bundle(path):
    """(meta, arrays) from the bundle layout: b'PRTB', uint32 version, uint64
    header length, JSON header, then raw array bytes at header offsets."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"PRTB":
        raise ValueError(f"{path}: bad magic")
    (hlen,) = struct.unpack_from("<Q", raw, 8)
    header = json.loads(raw[16:16 + hlen])
    base = 16 + hlen
    arrays = {}
    for spec in header["arrays"]:
        dtype = np.dtype(spec["dtype"])
        count = math.prod(spec["shape"])
        start = base + spec["offset"]
        if start + count * dtype.itemsize > len(raw):
            raise ValueError(f"{path}: array {spec['name']} runs past the end")
        arrays[spec["name"]] = np.frombuffer(raw, dtype, count, start).reshape(spec["shape"])
    return header["meta"], arrays


def check_manifest(out: Path, expected: dict) -> list:
    """Every artifact the stages should have written is in manifest.json, and
    each recorded checksum is the SHA-256 of the file. `expected` maps file
    name to the stage that writes it; problems come back as (stage, text)."""
    manifest = json.loads((out / "manifest.json").read_text())["artifacts"]
    problems = []
    for name, stage in expected.items():
        if name not in manifest:
            problems.append((stage, f"manifest has no entry for {name}"))
        elif hashlib.sha256((out / name).read_bytes()).hexdigest() != manifest[name]:
            problems.append((stage, f"manifest checksum of {name} does not match the file"))
    return problems


def check_thresholds(thresholds: dict, constraint: float) -> list:
    problems = []
    if thresholds.get("constraint_met") is not True:
        problems.append("thresholds.json says the constraint is unmet")
    if not thresholds.get("dev_life_recall", 0.0) >= constraint:
        problems.append(f"dev life recall {thresholds.get('dev_life_recall')} < {constraint}")
    return problems


def pairwise_auc(scores, labels) -> float:
    """Share of (positive, negative) pairs the positive wins, ties half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    pos, neg = scores[labels], scores[~labels]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("AUC needs both classes")
    wins = 0.0
    for start in range(0, len(pos), 256):
        block = pos[start:start + 256, None]
        wins += float((block > neg).sum()) + 0.5 * float((block == neg).sum())
    return wins / (len(pos) * len(neg))


def test_probabilities(out: Path):
    """Calibrated test-row probabilities from router.bin and features.bin, with
    the test labels and danger flags."""
    meta, arrays = read_bundle(out / "router.bin")
    _, feats = read_bundle(out / "features.bin")
    raw = feats["x_test"] @ arrays["head_weights"].T + np.array(meta["biases"])
    probs = np.empty_like(raw)
    for d, (a, b) in enumerate(meta["calibrators"]):
        probs[:, d] = 0.5 * (1.0 + np.tanh(0.5 * (a * raw[:, d] + b)))
    return probs, feats["y_test"].astype(bool), feats["danger_test"].astype(bool)


def check_report(report: dict, thresholds: dict, probs, truth, danger) -> list:
    """ROC-AUC per domain and macro, test life recall and E[|R|] recomputed
    with the routing oracle must equal report.json to 1e-12."""
    problems = []
    aucs = []
    for d, name in enumerate(DOMAIN_NAMES):
        auc = pairwise_auc(probs[:, d], truth[:, d])
        aucs.append(auc)
        got = report["router"]["per_domain"][name]["roc_auc"]
        if got is None or abs(got - auc) > TOL:
            problems.append(f"{name} ROC-AUC {got} != pairwise count {auc}")
    macro = float(np.mean(aucs))
    if abs(report["router"]["macro"]["roc_auc"] - macro) > TOL:
        problems.append(f"macro ROC-AUC {report['router']['macro']['roc_auc']} != {macro}")

    sizes, life_hits = [], []
    for i in range(len(probs)):
        routed, _ = oracle_route(probs[i], thresholds["tau_hi"], thresholds["tau_lo"], danger[i])
        sizes.append(len(routed))
        if truth[i, LIFE[0]] or truth[i, LIFE[1]]:
            life_hits.append(any(DOMAIN_NAMES[j] in routed for j in LIFE))
    life_recall = float(np.mean(life_hits))
    experts = float(np.mean(sizes))
    if abs(report["policy"]["life_recall"] - life_recall) > TOL:
        problems.append(f"life recall {report['policy']['life_recall']} != {life_recall}")
    if abs(report["policy"]["expected_experts"] - experts) > TOL:
        problems.append(f"E[|R|] {report['policy']['expected_experts']} != {experts}")
    return problems


# --- specialists -----------------------------------------------------------

def _layer_norm(x, g, b):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5) * g + b


def specialist_nll(meta: dict, arrays: dict, sequences) -> float:
    """Mean next-token negative log-likelihood of a saved specialist over
    `sequences`: pre-norm causal attention, GELU MLP, tied output embedding,
    LoRA deltas (alpha/rank) * A @ B added to adapted weights."""
    cfg = meta["config"]
    heads, d = cfg["heads"], cfg["d_model"]
    dh = d // heads
    scale = meta.get("lora_alpha", 1.0) / meta["lora_rank"] if meta.get("lora_rank") else 0.0

    def weight(name):
        w = arrays[name]
        if f"lora.{name}.A" in arrays:
            w = w + scale * (arrays[f"lora.{name}.A"] @ arrays[f"lora.{name}.B"])
        return w

    total, count = 0.0, 0
    for seq in sequences:
        ids, targets = np.asarray(seq[:-1]), np.asarray(seq[1:])
        t = len(ids)
        x = arrays["tok_emb"][ids] + arrays["pos_emb"][:t]
        future = np.triu(np.ones((t, t), dtype=bool), k=1)
        for i in range(cfg["layers"]):
            pre = f"l{i}."
            h = _layer_norm(x, arrays[pre + "ln1_g"], arrays[pre + "ln1_b"])
            q = h @ weight(pre + "wq") + arrays[pre + "bq"]
            k = h @ weight(pre + "wk") + arrays[pre + "bk"]
            v = h @ weight(pre + "wv") + arrays[pre + "bv"]
            ctx = np.empty_like(q)
            for head in range(heads):
                cols = slice(head * dh, (head + 1) * dh)
                s = q[:, cols] @ k[:, cols].T / math.sqrt(dh)
                s[future] = -np.inf
                e = np.exp(s - s.max(-1, keepdims=True))
                ctx[:, cols] = (e / e.sum(-1, keepdims=True)) @ v[:, cols]
            x = x + ctx @ weight(pre + "wo") + arrays[pre + "bo"]
            h = _layer_norm(x, arrays[pre + "ln2_g"], arrays[pre + "ln2_b"])
            u = h @ weight(pre + "w1") + arrays[pre + "b1"]
            x = x + (0.5 * u * (1.0 + erf(u / math.sqrt(2.0)))) @ weight(pre + "w2") + arrays[pre + "b2"]
        logits = _layer_norm(x, arrays["lnf_g"], arrays["lnf_b"]) @ arrays["tok_emb"].T
        top = logits.max(-1)
        lse = top + np.log(np.exp(logits - top[:, None]).sum(-1))
        total += float((lse - logits[np.arange(t), targets]).sum())
        count += t
    return total / count


def read_curve_dev_losses(path: Path) -> list:
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index("dev_loss")
    return [float(line.split(",")[col]) for line in lines[1:]]


def check_specialist(meta, arrays, dev_sequences, test_sequences, curve_dev_losses,
                     reported_ppl, vocab_size) -> list:
    """The saved checkpoint is the best one on dev (its dev loss is the
    minimum of the curve), and the reported test perplexity is its own and
    lies in [1, V)."""
    problems = []
    dev = specialist_nll(meta, arrays, dev_sequences)
    best = min(curve_dev_losses)
    if abs(dev - best) > LOSS_RTOL * abs(best):
        problems.append(f"{meta.get('domain')}: saved dev loss {dev!r} != curve minimum {best!r}")
    if not 1.0 <= reported_ppl < vocab_size:
        problems.append(f"{meta.get('domain')}: perplexity {reported_ppl} outside [1, {vocab_size})")
    test_ppl = math.exp(specialist_nll(meta, arrays, test_sequences))
    if abs(test_ppl - reported_ppl) > LOSS_RTOL * test_ppl:
        problems.append(f"{meta.get('domain')}: reported test perplexity {reported_ppl!r} "
                        f"!= recomputed {test_ppl!r}")
    return problems
