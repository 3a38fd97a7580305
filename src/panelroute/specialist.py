"""Compact decoder-only autoregressive next-event model.

Pure numpy implementation with analytic backprop: pre-attention layer norm,
learned absolute positions, tied input/output embeddings, AdamW with linear
warmup then cosine decay to 10% of peak, global-norm gradient clipping, and
optional low-rank adapters on attention and feed-forward weights.

Batches are cut from the sequences in length order, so that a batch pads
little (`length_batches`). Each training epoch shuffles equal lengths, cuts
the batches and visits them in shuffled order; `eval_loss` cuts its batches in
length order with ties in index order, and runs them shortest first.

`forward` and `backward` compute in the dtype of the weights they are given.
`train` keeps float64 master weights, float64 AdamW moments and float64
gradient clipping; each step's forward and backward passes run in float32 on
copies of the weights and adapters, and the gradients are cast back to float64
before they are clipped and applied. Everything else is float64: `eval_loss`
and `perplexity` (the dev curve and reported perplexities), `suggest`, and the
checkpoints, which `save` refuses to write from any other dtype.
"""

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .events import PAD_ID
from .serial import Layout, load_bundle, save_bundle, write_lines

_LN_EPS = 1e-5
WARMUP_FRAC = 0.05  # of all steps, warmed up linearly
LR_FLOOR_FRAC = 0.1  # of the peak rate, reached by cosine decay at the final step
GRAD_CLIP = 1.0  # global gradient norm
WEIGHT_DECAY = 0.01  # AdamW's decoupled decay of the listed weights
EVAL_BATCH_SIZE = 32


class SpecialistError(Exception):
    pass


@dataclass
class SpecialistConfig:
    vocab_size: int
    layers: int = 2
    d_model: int = 64
    heads: int = 2
    mlp_mult: int = 4
    dropout: float = 0.1
    max_positions: int = 512

    def __post_init__(self):
        if self.heads < 1 or self.d_model % self.heads != 0:
            raise SpecialistError("heads must be positive and divide d_model")


@dataclass
class TrainConfig:
    peak_lr: float = 1e-3
    batch_size: int = 16
    epochs: int = 5
    seed: int = 0


def lr_schedule(step: int, total_steps: int, peak_lr: float) -> float:
    """Linear warmup over WARMUP_FRAC of steps, cosine decay to LR_FLOOR_FRAC
    of the peak at the final step."""
    warmup = max(1, round(WARMUP_FRAC * total_steps))
    if step < warmup:
        return peak_lr * (step + 1) / warmup
    last = max(total_steps - 1, warmup)
    u = (step - warmup) / max(last - warmup, 1)
    u = min(u, 1.0)
    return peak_lr * (LR_FLOOR_FRAC + (1.0 - LR_FLOOR_FRAC) * 0.5 * (1.0 + math.cos(math.pi * u)))


# erf after Cephes ndtr.c (S. L. Moshier, Methods and Programs for Mathematical
# Functions, 1989), the algorithm behind scipy.special.erf, with its
# coefficients and Horner order: x T(x^2) / U(x^2) for |x| <= 1, and
# 1 - exp(-x^2) P(|x|) / Q(|x|) above. U and Q carry their implicit leading 1.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
          7.00332514112805075473E3, 5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
          2.26290000613890934246E4, 4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)


def _horner(x, coefs):
    y = coefs[0] * x + coefs[1]
    for c in coefs[2:]:
        y *= x
        y += c
    return y


_ERF_BLOCK = 65536  # elements per pass, so that erf's temporaries stay small


def erf(x) -> np.ndarray:
    """Elementwise erf, within 1 ulp of scipy.special.erf in float64.

    A float32 array is computed in float32, within 2e-7 of the float64 result;
    any other input is computed in float64. |x| is clipped to 6, where
    1 - erfc already rounds to 1; this also keeps both rationals finite for
    huge and infinite x. The erfc rational runs only on the |x| > 1 elements.
    The input is computed `_ERF_BLOCK` elements at a time, each block straight
    into the output."""
    x = np.asarray(x)
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    flat = x.ravel()
    out = np.empty_like(flat)
    for start in range(0, flat.size, _ERF_BLOCK):
        block = slice(start, start + _ERF_BLOCK)
        a = np.minimum(np.abs(flat[block]), 6.0)
        z = a * a
        y = a * _horner(z, _ERF_T)
        y /= _horner(z, _ERF_U)
        big = np.flatnonzero(a > 1.0)
        ab = a[big]
        y[big] = 1.0 - np.exp(-ab * ab) * _horner(ab, _ERFC_P) / _horner(ab, _ERFC_Q)
        np.copysign(y, flat[block], out=out[block])
    return out.reshape(x.shape)


# GELU and its derivative both take e = erf(x / sqrt 2), computed once in the
# forward pass and kept for the backward pass.
def _gelu(x, e):
    return 0.5 * x * (1.0 + e)


def _gelu_grad(x, e):
    return 0.5 * (1.0 + e) + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _dropped(x, keep, scale, out=None):
    """x with the elements outside the boolean `keep` mask zeroed, and the rest
    scaled by `scale` = 1 / (1 - p); written into `out` when given."""
    y = np.multiply(x, keep, out=out)
    y *= scale
    return y


def _layer_norm(x, g, b):
    mu = x.mean(-1, keepdims=True)
    xc = x - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(-1, keepdims=True) + _LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv)


def _layer_norm_backward(dy, g, cache):
    xhat, inv = cache
    dg = (dy * xhat).sum(axis=tuple(range(dy.ndim - 1)))
    db = dy.sum(axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * g
    dx = inv * (
        dxhat
        - dxhat.mean(-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(-1, keepdims=True)
    )
    return dx, dg, db


def _param_shapes(c: SpecialistConfig) -> dict:
    """Each weight's name and shape, in the order `_init_params` draws them."""
    d, h = c.d_model, c.mlp_mult * c.d_model
    shapes = {"tok_emb": (c.vocab_size, d), "pos_emb": (c.max_positions, d),
              "lnf_g": (d,), "lnf_b": (d,)}
    for i in range(c.layers):
        shapes |= {f"l{i}.ln1_g": (d,), f"l{i}.ln1_b": (d,)}
        for nm in ("wq", "wk", "wv", "wo"):
            shapes |= {f"l{i}.{nm}": (d, d), f"l{i}.b{nm[1]}": (d,)}
        shapes |= {f"l{i}.ln2_g": (d,), f"l{i}.ln2_b": (d,), f"l{i}.w1": (d, h),
                   f"l{i}.b1": (h,), f"l{i}.w2": (h, d), f"l{i}.b2": (d,)}
    return shapes


def _add_rows(out, ids, rows) -> None:
    """out[ids[i]] += rows[i] for every i, as np.add.at does, but with one
    stable sort of `ids`, which groups each id's rows, and one np.add.reduceat
    that sums every group, in place of a scatter element by element."""
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
    out[sorted_ids[starts]] += np.add.reduceat(rows[order], starts)


def _init_params(c: SpecialistConfig, seed: int) -> dict:
    """Matrices drawn from N(0, 0.02^2), layer-norm gains one, biases zero."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EC1]))
    return {name: rng.normal(0.0, 0.02, size=shape) if len(shape) == 2
            else np.ones(shape) if name.endswith("_g") else np.zeros(shape)
            for name, shape in _param_shapes(c).items()}


class SpecialistModel:
    """Causal next-event model; logits at position t depend only on ids <= t."""

    ADAPTABLE = ("wq", "wk", "wv", "wo", "w1", "w2")

    def __init__(self, config: SpecialistConfig, seed: int = 0, domain: str = "",
                 params: dict | None = None):
        """Weights are drawn from `seed` unless `params` supplies them."""
        self.config = config
        self.domain = domain
        self.adapters: dict[str, tuple] = {}
        self.lora_alpha = 1.0
        self.lora_rank = 0
        self.params = _init_params(config, seed) if params is None else params
        self.config_hash = ""  # the stamp `load` read from the checkpoint, if any

    # --- LoRA -------------------------------------------------------------

    def _adapted(self, name):
        w = self.params[name]
        if name in self.adapters:
            a, b = self.adapters[name]
            return w + (self.lora_alpha / self.lora_rank) * (a @ b)
        return w

    def attach_lora(self, rank: int, alpha: float = 1.0, seed: int = 0) -> None:
        """Zero-initialized adapters on attention and feed-forward weights;
        outputs are unchanged at attach time (B starts at zero)."""
        if not 1 <= rank <= self.config.d_model:
            raise SpecialistError(f"LoRA rank {rank} is outside 1..d_model ({self.config.d_model})")
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x10AA]))
        self.lora_rank = rank
        self.lora_alpha = alpha
        self.adapters = {}
        for key in _adapted_keys(self.config):
            din, dout = self.params[key].shape
            self.adapters[key] = (rng.normal(0.0, 0.01, size=(din, rank)), np.zeros((rank, dout)))

    def merge_lora(self) -> None:
        if not self.adapters:
            raise SpecialistError("no adapters to merge")
        for key, (a, b) in self.adapters.items():
            self.params[key] = self.params[key] + (self.lora_alpha / self.lora_rank) * (a @ b)
        self.adapters = {}
        self.lora_rank = 0

    # --- forward / backward -----------------------------------------------

    KEEPS = ("cache", "logits", "last")

    def forward(self, ids, train: bool = False, rng=None, keep: str = "cache"):
        """Return (logits, cache). ids: (B, T) int array.

        `keep` names what the caller reads:
        - "cache": logits (B, T, V) and the per-layer activations that one
          `backward` reads;
        - "logits": the same logits, and no cache (None), so no layer's
          activations outlive the layer;
        - "last": logits (B, 1, V), the next-event distribution after the
          whole prefix, and no cache. The last block computes keys and values
          at every position but everything after them at the final position
          only.
        A training forward (dropout) keeps a cache.
        """
        if keep not in self.KEEPS:
            raise SpecialistError(f"keep must be one of {self.KEEPS}, got {keep!r}")
        if train and keep != "cache":
            raise SpecialistError(f"a {keep!r} forward keeps no cache for backward")
        ids = np.atleast_2d(np.asarray(ids))
        bsz, t = ids.shape
        c = self.config
        if t > c.max_positions:
            raise SpecialistError(f"sequence length {t} exceeds {c.max_positions}")
        if ids.max() >= c.vocab_size or ids.min() < 0:
            raise SpecialistError("token id outside vocabulary")
        p = self.params
        drop_p = c.dropout if train else 0.0
        drop_scale = 1.0 / (1.0 - drop_p)
        if drop_p > 0 and rng is None:
            rng = np.random.default_rng(0)

        def dropout(x):
            if drop_p <= 0:
                return x, None
            keep = rng.random(x.shape) >= drop_p
            return _dropped(x, keep, drop_scale), keep

        x = p["tok_emb"][ids] + p["pos_emb"][:t]
        mask = np.triu(np.full((t, t), -1e9, dtype=x.dtype), k=1)
        h = c.heads
        dh = c.d_model // h
        scale = 1.0 / math.sqrt(dh)
        layer_caches = []
        for i in range(c.layers):
            pre = f"l{i}."
            hn, ln1c = _layer_norm(x, p[pre + "ln1_g"], p[pre + "ln1_b"])
            wq, wk, wv, wo = (self._adapted(pre + nm) for nm in ("wq", "wk", "wv", "wo"))
            k = hn @ wk + p[pre + "bk"]
            v = hn @ wv + p[pre + "bv"]
            if keep == "last" and i == c.layers - 1:
                # Queries, and all that follows them, at the final position only.
                x, hn = x[:, -1:], hn[:, -1:]
            tq = x.shape[1]
            q = hn @ wq + p[pre + "bq"]

            def split(z):
                return z.reshape(bsz, z.shape[1], h, dh).transpose(0, 2, 1, 3)

            qh, kh, vh = split(q), split(k), split(v)
            # Softmax in place: the scores, their exponentials and attn share one buffer.
            attn = qh @ kh.transpose(0, 1, 3, 2) * scale + mask[t - tq:]
            attn -= attn.max(-1, keepdims=True)
            np.exp(attn, out=attn)
            attn /= attn.sum(-1, keepdims=True)
            attn_d, attn_keep = dropout(attn)
            ctx = (attn_d @ vh).transpose(0, 2, 1, 3).reshape(bsz, tq, c.d_model)
            attn_out = ctx @ wo + p[pre + "bo"]
            attn_out_d, res1_keep = dropout(attn_out)
            x1 = x + attn_out_d

            h2, ln2c = _layer_norm(x1, p[pre + "ln2_g"], p[pre + "ln2_b"])
            w1, w2 = self._adapted(pre + "w1"), self._adapted(pre + "w2")
            pre_act = h2 @ w1 + p[pre + "b1"]
            erf_term = erf(pre_act / math.sqrt(2.0))
            act = _gelu(pre_act, erf_term)
            mlp = act @ w2 + p[pre + "b2"]
            mlp_d, res2_keep = dropout(mlp)
            x = x1 + mlp_d

            if keep == "cache":
                layer_caches.append(
                    dict(hn=hn, ln1c=ln1c, qh=qh, kh=kh, vh=vh, attn=attn, attn_d=attn_d,
                         attn_keep=attn_keep, ctx=ctx, res1_keep=res1_keep, h2=h2,
                         ln2c=ln2c, pre_act=pre_act, erf_term=erf_term, res2_keep=res2_keep)
                )
            # Unless the cache holds them, the largest activations are freed
            # here, before the next layer computes its own.
            del attn, attn_d, pre_act, erf_term, act
        xf, lnfc = _layer_norm(x, p["lnf_g"], p["lnf_b"])
        logits = xf @ p["tok_emb"].T
        if keep != "cache":
            return logits, None
        cache = dict(ids=ids, xf=xf, lnfc=lnfc, layers=layer_caches, t=t, bsz=bsz,
                     drop_scale=drop_scale)
        return logits, cache

    def backward(self, cache, dlogits):
        """Gradients of all parameters (and adapters, when attached).

        A cache serves one backward: each layer's activations are freed once
        they are used, so a second backward on the same cache raises
        SpecialistError."""
        layers = cache.pop("layers", None)
        if layers is None:
            raise SpecialistError("this forward cache was already used by a backward pass")
        p = self.params
        c = self.config
        ids = cache["ids"]
        bsz, t = cache["bsz"], cache["t"]
        drop_scale = cache["drop_scale"]
        h, dh = c.heads, c.d_model // c.heads
        scale = 1.0 / math.sqrt(dh)
        grads = {k: np.zeros_like(v) for k, v in p.items()}
        a_grads = {k: (np.zeros_like(a), np.zeros_like(b))
                   for k, (a, b) in self.adapters.items()}

        def add_weight_grad(name, dw):
            if name in self.adapters:
                a, b = self.adapters[name]
                s = self.lora_alpha / self.lora_rank
                da, db = a_grads[name]
                da += s * (dw @ b.T)
                db += s * (a.T @ dw)
                a_grads[name] = (da, db)
            grads[name] += dw

        def merge(z):
            return z.transpose(0, 2, 1, 3).reshape(bsz, t, c.d_model)

        def layer_backward(pre, lc, dx):
            """The gradient before layer `pre` from `dx`, the one after it. The
            largest arrays are freed after their last use, the rest on return."""
            # MLP branch
            dmlp = dx if lc["res2_keep"] is None else _dropped(dx, lc["res2_keep"], drop_scale)
            pre_act, erf_term = lc.pop("pre_act"), lc.pop("erf_term")
            # The activation is recomputed, not cached, and freed after this product.
            act2d = _gelu(pre_act, erf_term).reshape(-1, c.mlp_mult * c.d_model)
            add_weight_grad(pre + "w2", act2d.T @ dmlp.reshape(-1, c.d_model))
            del act2d
            grads[pre + "b2"] += dmlp.sum((0, 1))
            dpre = dmlp @ self._adapted(pre + "w2").T
            dpre *= _gelu_grad(pre_act, erf_term)
            del pre_act, erf_term
            h22d = lc["h2"].reshape(-1, c.d_model)
            add_weight_grad(pre + "w1", h22d.T @ dpre.reshape(-1, c.mlp_mult * c.d_model))
            grads[pre + "b1"] += dpre.sum((0, 1))
            dh2 = dpre @ self._adapted(pre + "w1").T
            del dpre
            dx1, dg2, db2 = _layer_norm_backward(dh2, p[pre + "ln2_g"], lc["ln2c"])
            grads[pre + "ln2_g"] += dg2
            grads[pre + "ln2_b"] += db2
            dx1 += dx  # residual

            # attention branch
            dattn_out = (dx1 if lc["res1_keep"] is None
                         else _dropped(dx1, lc["res1_keep"], drop_scale))
            ctx2d = lc["ctx"].reshape(-1, c.d_model)
            add_weight_grad(pre + "wo", ctx2d.T @ dattn_out.reshape(-1, c.d_model))
            grads[pre + "bo"] += dattn_out.sum((0, 1))
            dctx = (dattn_out @ self._adapted(pre + "wo").T)
            dctx = dctx.reshape(bsz, t, h, dh).transpose(0, 2, 1, 3)
            dattn = dctx @ lc["vh"].transpose(0, 1, 3, 2)
            dvh = lc.pop("attn_d").transpose(0, 1, 3, 2) @ dctx
            if lc["attn_keep"] is not None:
                _dropped(dattn, lc.pop("attn_keep"), drop_scale, out=dattn)
            # dscores = attn * (dattn - rowsum(dattn * attn)), computed in dattn's buffer
            a = lc.pop("attn")
            dattn -= (dattn * a).sum(-1, keepdims=True)
            dattn *= a
            del a
            dqh = dattn @ lc["kh"] * scale
            dkh = dattn.transpose(0, 1, 3, 2) @ lc["qh"] * scale
            del dattn

            dq, dk, dv = merge(dqh), merge(dkh), merge(dvh)
            hn2d = lc["hn"].reshape(-1, c.d_model)
            dhn = np.zeros_like(lc["hn"])
            for nm, dz in (("wq", dq), ("wk", dk), ("wv", dv)):
                add_weight_grad(pre + nm, hn2d.T @ dz.reshape(-1, c.d_model))
                grads[pre + "b" + nm[1]] += dz.sum((0, 1))
                dhn += dz @ self._adapted(pre + nm).T
            dxa, dg1, db1 = _layer_norm_backward(dhn, p[pre + "ln1_g"], lc["ln1c"])
            grads[pre + "ln1_g"] += dg1
            grads[pre + "ln1_b"] += db1
            return dx1 + dxa

        grads["tok_emb"] += (dlogits.reshape(-1, c.vocab_size).T
                             @ cache.pop("xf").reshape(-1, c.d_model))
        dxf = dlogits @ p["tok_emb"]
        dx, dg, db = _layer_norm_backward(dxf, p["lnf_g"], cache.pop("lnfc"))
        grads["lnf_g"] += dg
        grads["lnf_b"] += db

        for i in reversed(range(c.layers)):
            dx = layer_backward(f"l{i}.", layers.pop(), dx)

        grads["pos_emb"][:t] += dx.sum(0)
        _add_rows(grads["tok_emb"], ids.ravel(), dx.reshape(-1, c.d_model))
        return grads, a_grads

    # --- loss ---------------------------------------------------------------

    def loss_and_grads(self, ids, targets, train: bool = False, rng=None):
        logits, cache = self.forward(ids, train=train, rng=rng)
        loss, dlogits = cross_entropy(logits, targets)
        del logits
        grads, a_grads = self.backward(cache, dlogits)
        return loss, grads, a_grads

    def eval_loss(self, sequences):
        """Token-weighted mean cross-entropy over a set of sequences."""
        total, count = 0.0, 0
        for batch in length_batches(sequences, EVAL_BATCH_SIZE):
            ids, targets = pad_batch([sequences[i] for i in batch])
            logits, _ = self.forward(ids, keep="logits")
            loss, n, _ = _masked_nll(logits, targets)
            del logits
            total += loss * n
            count += n
        if count == 0:
            raise SpecialistError("no non-pad targets to evaluate")
        return total / count

    def suggest(self, prefix_ids, k: int = 3):
        """Top-k next tokens with their softmax probabilities."""
        if k < 1:
            raise SpecialistError("k must be >= 1")
        k = min(k, self.config.vocab_size)
        logits, _ = self.forward(np.asarray(prefix_ids)[None, :], keep="last")
        z = logits[0, -1]
        z = z - z.max()
        probs = np.exp(z) / np.exp(z).sum()
        # Stable: tied probabilities keep the lower token id first.
        order = np.argsort(-probs, kind="stable")[:k]
        return [(int(i), float(probs[i])) for i in order]

    # --- persistence ----------------------------------------------------------

    def save(self, path, extra_meta: dict | None = None) -> None:
        meta = {
            "kind": "specialist",
            "config": asdict(self.config),
            "domain": self.domain,
            "lora_rank": self.lora_rank,
            "lora_alpha": self.lora_alpha,
        }
        meta.update(extra_meta or {})
        arrays = dict(self.params)
        for key, (a, b) in self.adapters.items():
            arrays[f"lora.{key}.A"] = a
            arrays[f"lora.{key}.B"] = b
        declared = _checkpoint_arrays(meta)
        for name, arr in sorted(arrays.items()):
            if arr.dtype != declared[name][0]:
                raise SpecialistError(f"checkpoint array {name} is {arr.dtype}, "
                                      f"not {declared[name][0].__name__}")
        save_bundle(path, meta, arrays)

    @classmethod
    def load(cls, path) -> "SpecialistModel":
        meta, arrays = load_bundle(path, LAYOUT)
        config = SpecialistConfig(**meta["config"])
        model = cls(config, domain=meta["domain"],
                    params={k: v for k, v in arrays.items() if not k.startswith("lora.")})
        model.lora_rank, model.lora_alpha = meta["lora_rank"], meta["lora_alpha"]
        model.config_hash = meta.get("config_hash", "")
        model.adapters = {key: (arrays[f"lora.{key}.A"], arrays[f"lora.{key}.B"])
                          for key in (_adapted_keys(config) if model.lora_rank else ())}
        return model


def _adapted_keys(config: SpecialistConfig) -> list:
    """The weights that take adapters: each of `SpecialistModel.ADAPTABLE` in every layer."""
    return [f"l{i}.{nm}" for i in range(config.layers) for nm in SpecialistModel.ADAPTABLE]


def _checkpoint_arrays(meta: dict) -> dict:
    """(dtype, shape) of each array of a checkpoint with this meta: float64 weights of
    its config's shapes and, at a nonzero lora_rank r, each adapted weight's A and B."""
    try:
        config = SpecialistConfig(**meta["config"])
    except (SpecialistError, TypeError) as e:
        raise ValueError(f"meta key 'config' is not a model shape ({e})") from None
    shapes, r = _param_shapes(config), meta["lora_rank"]
    for key in _adapted_keys(config) if r else ():
        din, dout = shapes[key]
        shapes |= {f"lora.{key}.A": (din, r), f"lora.{key}.B": (r, dout)}
    return {name: (np.float64, shape) for name, shape in shapes.items()}


# A specialist's config, its domain, and its adapters' rank and scale.
LAYOUT = Layout("specialist", {
    "domain": (str, ()), "lora_rank": (int, ()), "lora_alpha": (float, ()),
    **{f"config.{f.name}": (f.type, ()) for f in fields(SpecialistConfig)}}, _checkpoint_arrays)


def _masked_nll(logits, targets):
    """(loss, n, logprobs): the mean negative log-likelihood of the n non-pad
    `targets`, and the log-softmax of `logits` it was read from."""
    targets = np.atleast_2d(np.asarray(targets))
    valid = targets != PAD_ID
    n = int(valid.sum())
    if n == 0:
        raise SpecialistError("all-pad batch")
    logprobs = logits - logits.max(-1, keepdims=True)
    logprobs -= np.log(np.exp(logprobs).sum(-1, keepdims=True))
    picked = np.take_along_axis(logprobs, targets[..., None], -1)[..., 0]
    return float(-(picked * valid).sum() / n), n, logprobs


def cross_entropy(logits, targets):
    """Mean CE over non-pad positions; returns (loss, dlogits)."""
    targets = np.atleast_2d(np.asarray(targets))
    loss, n, logprobs = _masked_nll(logits, targets)
    dlogits = np.exp(logprobs, out=logprobs)
    bsz, t = targets.shape
    dlogits[np.arange(bsz)[:, None], np.arange(t), targets] -= 1.0
    dlogits *= ((targets != PAD_ID) / n)[..., None]
    return loss, dlogits


def pad_batch(sequences):
    """(inputs, targets) padded with PAD_ID; targets are inputs shifted by one."""
    t = max(len(s) for s in sequences) - 1
    ids = np.full((len(sequences), t), PAD_ID, dtype=np.int64)
    targets = np.full((len(sequences), t), PAD_ID, dtype=np.int64)
    for i, s in enumerate(sequences):
        s = np.asarray(s, dtype=np.int64)
        ids[i, : len(s) - 1] = s[:-1]
        targets[i, : len(s) - 1] = s[1:]
    return ids, targets


def length_batches(sequences, batch_size, rng=None) -> list:
    """Index arrays of `batch_size` sequences each, cut from the sequences in
    length order; only the batch of the longest may be short.

    Without `rng`, equal lengths keep index order and the batches run
    shortest first. With `rng`, the sort is a stable one of
    `rng.permutation`, so equal lengths are shuffled, and the batches come in
    the order of a second `rng.permutation`."""
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    order = np.arange(lengths.size) if rng is None else rng.permutation(lengths.size)
    order = order[np.argsort(lengths[order], kind="stable")]
    batches = [order[i:i + batch_size] for i in range(0, order.size, batch_size)]
    if rng is not None:
        batches = [batches[j] for j in rng.permutation(len(batches))]
    return batches


def unigram_entropy(sequences) -> float:
    """Entropy (nats) of the target-token distribution; the trivial baseline
    a trained model must beat."""
    counts: dict[int, int] = {}
    for s in sequences:
        for tok in s[1:]:
            if tok != PAD_ID:
                counts[tok] = counts.get(tok, 0) + 1
    total = sum(counts.values())
    probs = np.array([v / total for v in counts.values()])
    return float(-(probs * np.log(probs)).sum())


class AdamW:
    def __init__(self):
        self.m: dict = {}
        self.v: dict = {}
        self.t = 0

    def step(self, params: dict, grads: dict, lr: float, decay_keys: set) -> None:
        self.t += 1
        b1, b2 = 0.9, 0.999
        for key, g in grads.items():
            if key not in self.m:
                self.m[key] = np.zeros_like(g)
                self.v[key] = np.zeros_like(g)
            m, v, p = self.m[key], self.v[key], params[key]
            # In place, in the order of m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
            # update = (m/c1) / (sqrt(v/c2) + 1e-8) [+ wd*p] and p = p - lr*update.
            m *= b1
            m += (1 - b1) * g
            v *= b2
            gg = (1 - b2) * g
            gg *= g
            v += gg
            denom = np.divide(v, 1 - b2 ** self.t, out=gg)
            np.sqrt(denom, out=denom)
            denom += 1e-8
            update = m / (1 - b1 ** self.t)
            update /= denom
            if key in decay_keys:
                update += WEIGHT_DECAY * p
            update *= lr
            p -= update


def clip_global_norm(grad_arrays, max_norm: float) -> float:
    total = math.sqrt(sum(float((g * g).sum()) for g in grad_arrays))
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for g in grad_arrays:
            g *= scale
    return total


def _float32_copy(model: SpecialistModel) -> SpecialistModel:
    """The model with float32 copies of its weights and adapters, on which a
    training step's forward and backward passes run."""
    step = SpecialistModel(model.config,
                           params={k: v.astype(np.float32) for k, v in model.params.items()})
    step.lora_rank, step.lora_alpha = model.lora_rank, model.lora_alpha
    step.adapters = {k: (a.astype(np.float32), b.astype(np.float32))
                     for k, (a, b) in model.adapters.items()}
    return step


def _flat_adapters(pairs: dict) -> dict:
    """{key.A: A, key.B: B} of {key: (A, B)}: adapters or their gradients as
    one dict of tensors, in the order AdamW and clipping walk them."""
    return {f"{key}.{part}": t for key, ab in pairs.items() for part, t in zip("AB", ab)}


def train(model: SpecialistModel, train_sequences, dev_sequences, cfg: TrainConfig):
    """Train with AdamW + warmup/cosine schedule; returns the per-epoch curve.

    Attached adapters train and the base weights stay frozen (LoRA);
    without adapters the weights train. Each epoch draws new `length_batches`
    from the training generator. Each step's forward and backward passes run
    on a float32 copy of the model; clipping, AdamW and the dev losses are
    float64. The model is left holding the best-dev-loss tensors.
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x7417]))
    steps_per_epoch = math.ceil(len(train_sequences) / cfg.batch_size)
    total_steps = steps_per_epoch * cfg.epochs
    opt = AdamW()
    decay_keys = {  # no adapter is decayed: no `key.A` or `key.B` name is listed
        k for k, v in model.params.items()
        if v.ndim >= 2 and k not in ("tok_emb", "pos_emb")
    }

    curve = []
    best = None
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        epoch_loss, n_batches = 0.0, 0
        for batch in length_batches(train_sequences, cfg.batch_size, rng):
            ids, targets = pad_batch([train_sequences[i] for i in batch])
            loss, grads, a_grads = _float32_copy(model).loss_and_grads(
                ids, targets, train=True, rng=rng)
            if not math.isfinite(loss):
                raise SpecialistError(f"divergence: non-finite loss at step {step}")
            if model.adapters:
                tensors, grads = _flat_adapters(model.adapters), _flat_adapters(a_grads)
            else:
                tensors = model.params
            grads = {k: g.astype(np.float64) for k, g in grads.items()}
            clip_global_norm(list(grads.values()), GRAD_CLIP)
            opt.step(tensors, grads, lr_schedule(step, total_steps, cfg.peak_lr), decay_keys)
            epoch_loss += loss
            n_batches += 1
            step += 1
        dev_loss = model.eval_loss(dev_sequences)
        if not math.isfinite(dev_loss):
            raise SpecialistError(f"divergence: non-finite dev loss at epoch {epoch}")
        curve.append({
            "epoch": epoch,
            "train_loss": epoch_loss / max(n_batches, 1),
            "dev_loss": dev_loss,
            "ppl": perplexity_from_loss(dev_loss),
        })
        if best is None or dev_loss < best[0]:
            best = (dev_loss, {k: v.copy() for k, v in model.params.items()},
                    {k: (a.copy(), b.copy()) for k, (a, b) in model.adapters.items()})
    if not math.isfinite(min(r["ppl"] for r in curve)):
        raise SpecialistError(f"divergence: best dev loss {best[0]:.4g} has no finite "
                              "perplexity")
    model.params = best[1]
    model.adapters = best[2]
    return curve


def perplexity_from_loss(loss: float) -> float:
    return float(np.exp(loss))


def perplexity(model: SpecialistModel, sequences) -> float:
    return perplexity_from_loss(model.eval_loss(sequences))


def write_curve_csv(path, curve) -> None:
    write_lines(path, ["epoch,train_loss,dev_loss,ppl\n",
                       *(f"{row['epoch']},{row['train_loss']!r},{row['dev_loss']!r},{row['ppl']!r}\n"
                         for row in curve)])
