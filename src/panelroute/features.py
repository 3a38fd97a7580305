"""Prefix expansion for anytime supervision, TF-IDF -> truncated SVD
featurization with optional time-feature concatenation, and the
`feature_models` bundle that stores the fitted TF-IDF and SVD models.

TF-IDF convention: raw term counts, smoothed idf ln((1+N)/(1+df)) + 1,
L2 row normalization, 1-2 grams over rendered token text, min_df=2.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .events import Episode, Vocabulary
from .serial import load_bundle, save_bundle


class FeatureError(Exception):
    pass


@dataclass
class PrefixRow:
    episode_id: str
    ell: int
    tokens: list  # first ell content token ids
    label_bits: tuple
    weight: float
    time_feats: list = field(default_factory=list)
    danger: bool = False


def expand_prefixes(episode: Episode, k: int) -> list:
    """min(K, L) rows with lengths 1..min(K, L) and weights ell/K; sentinels
    excluded from prefix content."""
    content = episode.content_tokens
    bits = episode.label_bits()
    rows = []
    for ell in range(1, min(k, len(content)) + 1):
        rows.append(
            PrefixRow(
                episode_id=episode.episode_id,
                ell=ell,
                tokens=content[:ell],
                label_bits=bits,
                weight=ell / k,
                time_feats=list(episode.time_feats),
                danger=episode.danger,
            )
        )
    return rows


def expand_cohort(episodes, k: int) -> list:
    rows = []
    for ep in episodes:
        rows.extend(expand_prefixes(ep, k))
    return rows


def row_document(row: PrefixRow, vocab: Vocabulary) -> str:
    """Space-joined rendered token text for the prefix."""
    return " ".join(vocab.decode(t) for t in row.tokens)


def _terms(doc: str):
    toks = doc.split()
    yield from toks
    for a, b in zip(toks, toks[1:]):
        yield f"{a} {b}"


class TfidfModel:
    def __init__(self, terms, idf, n_docs, min_df=2):
        self.terms = list(terms)
        self.term_to_col = {t: i for i, t in enumerate(self.terms)}
        self.idf = np.asarray(idf, dtype=np.float64)
        self.n_docs = int(n_docs)
        self.min_df = int(min_df)

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def csr(self, docs):
        """(indptr, indices, data) of the CSR matrix whose rows are the
        L2-normalized tf*idf vectors of `docs`, columns sorted within each
        row; OOV terms ignored."""
        indptr = [0]
        indices = []
        data = []
        for doc in docs:
            counts: dict[int, float] = {}
            for term in _terms(doc):
                col = self.term_to_col.get(term)
                if col is not None:
                    counts[col] = counts.get(col, 0.0) + 1.0
            cols = sorted(counts)
            vals = np.array([counts[c] * self.idf[c] for c in cols])
            norm = np.linalg.norm(vals)
            if norm > 0:
                vals = vals / norm
            indices.extend(cols)
            data.extend(vals.tolist())
            indptr.append(len(indices))
        return (np.asarray(indptr, dtype=np.int64), np.asarray(indices, dtype=np.int64),
                np.asarray(data, dtype=np.float64))

    def transform(self, docs):
        """`csr(docs)` as a scipy.sparse.csr_matrix, for fitting the SVD."""
        from scipy import sparse  # deferred: routing projects the CSR arrays with numpy

        indptr, indices, data = self.csr(docs)
        return sparse.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, self.n_terms))


def tfidf_fit(docs, min_df: int = 2) -> TfidfModel:
    """1-2 gram TF-IDF vocabulary over `docs` with document frequency >= min_df."""
    docs = list(docs)
    if len(docs) < 2:
        raise FeatureError("tfidf_fit needs at least 2 documents")
    df: dict[str, int] = {}
    for doc in docs:
        for term in set(_terms(doc)):
            df[term] = df.get(term, 0) + 1
    terms = sorted(t for t, c in df.items() if c >= min_df)
    if not terms:
        raise FeatureError("no term reaches min_df; empty TF-IDF model")
    n = len(docs)
    idf = np.array([np.log((1.0 + n) / (1.0 + df[t])) + 1.0 for t in terms])
    return TfidfModel(terms, idf, n, min_df)


class SvdProjector:
    """Truncated SVD projector; rows of `components` are orthonormal right
    singular vectors (r' x M)."""

    def __init__(self, components, singular_values, seed=0):
        self.components = np.asarray(components, dtype=np.float64)
        self.singular_values = np.asarray(singular_values, dtype=np.float64)
        self.seed = int(seed)

    @property
    def rank(self) -> int:
        return self.components.shape[0]


def save_feature_models(path, tfidf: TfidfModel, svd: SvdProjector,
                        extra_meta: dict | None = None) -> None:
    """Write the fitted TF-IDF and SVD models to one `feature_models` bundle."""
    meta = {
        "kind": "feature_models",
        "tfidf": {"kind": "tfidf", "terms": tfidf.terms, "n_docs": tfidf.n_docs,
                  "min_df": tfidf.min_df},
        "svd": {"kind": "svd", "seed": svd.seed},
        **(extra_meta or {}),
    }
    arrays = {"tfidf_idf": tfidf.idf, "svd_components": svd.components,
              "svd_singular_values": svd.singular_values}
    save_bundle(path, meta, arrays)


def load_feature_models(path):
    """(tfidf, svd, config_hash) from a bundle `save_feature_models` wrote;
    config_hash is the stamp it carries, or ""."""
    meta, arrays = load_bundle(path, "feature_models")
    tf = meta["tfidf"]
    tfidf = TfidfModel(tf["terms"], arrays["tfidf_idf"], tf["n_docs"], tf["min_df"])
    svd = SvdProjector(arrays["svd_components"], arrays["svd_singular_values"],
                       meta["svd"]["seed"])
    return tfidf, svd, meta.get("config_hash", "")


def _fix_signs(vt: np.ndarray) -> np.ndarray:
    out = vt.copy()
    for i in range(out.shape[0]):
        j = int(np.argmax(np.abs(out[i])))
        if out[i, j] < 0:
            out[i] = -out[i]
    return out


_DENSE_CUTOFF = 512  # below this min-dimension a dense SVD is exact and cheap


def svd_fit(x, rank: int = 256, seed: int = 0, oversample: int = 10, power_iters: int = 2) -> SvdProjector:
    """Best rank-r' approximation with r' = min(rank, N, M).

    Small instances take the dense path (exact); larger ones use a seeded
    randomized range-finder with power iterations and oversampling.
    """
    from scipy import sparse

    n, m = x.shape
    if n < 2 or m < 1:
        raise FeatureError(f"svd_fit needs N >= 2 and M >= 1, got {x.shape}")
    r = min(rank, n, m)
    if r < rank:
        warnings.warn(f"requested rank {rank} clamped to {r} for shape {x.shape}")

    if min(n, m) <= max(_DENSE_CUTOFF, r + oversample):
        dense = x.toarray() if sparse.issparse(x) else np.asarray(x, dtype=np.float64)
        _, s, vt = np.linalg.svd(dense, full_matrices=False)
        return SvdProjector(_fix_signs(vt[:r]), s[:r], seed)

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x57D]))
    sketch = min(r + oversample, min(n, m))
    omega = rng.standard_normal((m, sketch))
    y = x @ omega
    q, _ = np.linalg.qr(y)
    for _ in range(power_iters):
        z = x.T @ q
        qz, _ = np.linalg.qr(np.asarray(z))
        y = x @ qz
        q, _ = np.linalg.qr(np.asarray(y))
    b = np.asarray(q.T @ x)
    _, s, vt = np.linalg.svd(b, full_matrices=False)
    return SvdProjector(_fix_signs(vt[:r]), s[:r], seed)


def _project_csr(indptr, indices, data, components) -> np.ndarray:
    """x @ components.T for the CSR matrix x = (indptr, indices, data).

    Every row adds a * components[:, j] for its nonzeros (j, a) in column
    order, starting from zero, as scipy's csr_matvecs does, so the result is
    bitwise `csr_matrix(...) @ components.T`. Step k adds the k-th nonzero of
    every row that has one."""
    nnz = np.diff(indptr)
    z = np.zeros((len(nnz), components.shape[0]))
    for k in range(int(nnz.max(initial=0))):
        rows = np.flatnonzero(nnz > k)
        pos = indptr[rows] + k
        terms = components.T[indices[pos]]
        terms *= data[pos, None]
        z[rows] += terms
    return z


def featurize_rows(rows, vocab: Vocabulary, tfidf: TfidfModel, svd: SvdProjector,
                   use_time: bool = False) -> np.ndarray:
    """Dense feature matrix: SVD projection of each prefix document, with
    time feats appended when use_time is set."""
    docs = [row_document(r, vocab) for r in rows]
    z = _project_csr(*tfidf.csr(docs), svd.components)
    if not use_time:
        return z
    n_tf = max((len(r.time_feats) for r in rows), default=0)
    tf = np.zeros((len(rows), n_tf))
    for i, r in enumerate(rows):
        for j, v in enumerate(r.time_feats[:n_tf]):
            tf[i, j] = v
    return np.hstack([z, tf])
