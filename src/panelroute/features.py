"""Prefix expansion for anytime supervision, TF-IDF -> truncated SVD
featurization, and the `feature_models` bundle that stores the fitted TF-IDF
and SVD models.

TF-IDF convention: raw term counts, smoothed idf ln((1+N)/(1+df)) + 1,
L2 row normalization, 1-2 grams over rendered token text, min_df=2.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .events import Episode, Vocabulary
from .serial import Layout, load_bundle, save_bundle


class FeatureError(Exception):
    pass


@dataclass
class PrefixRow:
    ell: int
    tokens: list  # first ell content token ids
    label_bits: tuple
    weight: float
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
                ell=ell,
                tokens=content[:ell],
                label_bits=bits,
                weight=ell / k,
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
    def __init__(self, terms, idf):
        self.terms = list(terms)
        self.term_to_col = {t: i for i, t in enumerate(self.terms)}
        self.idf = np.asarray(idf, dtype=np.float64)

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def transform(self, docs):
        """(indptr, indices, data) of the CSR matrix (len(docs) x n_terms)
        whose rows are the L2-normalized tf*idf vectors of `docs`, columns
        sorted within each row; OOV terms ignored. Each row's norm is
        sqrt(v.dot(v)), as np.linalg.norm computes it, and an empty row stays
        empty."""
        indptr, indices, tf = [0], [], []
        for doc in docs:
            counts: dict[int, float] = {}
            for term in _terms(doc):
                col = self.term_to_col.get(term)
                if col is not None:
                    counts[col] = counts.get(col, 0.0) + 1.0
            cols = sorted(counts)
            indices.extend(cols)
            tf.extend([counts[c] for c in cols])
            indptr.append(len(indices))
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        vals = np.asarray(tf, dtype=np.float64) * self.idf[indices]
        bounds = indptr.tolist()
        norms = [math.sqrt(v.dot(v)) if len(v) else 1.0
                 for v in (vals[a:b] for a, b in zip(bounds, bounds[1:]))]
        return indptr, indices, vals / np.repeat(norms, np.diff(indptr))


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
    return TfidfModel(terms, idf)


class SvdProjector:
    """Truncated SVD projector; rows of `components` are orthonormal right
    singular vectors (r' x M)."""

    def __init__(self, components, singular_values):
        self.components = np.asarray(components, dtype=np.float64)
        self.singular_values = np.asarray(singular_values, dtype=np.float64)

    @property
    def rank(self) -> int:
        return self.components.shape[0]


LAYOUT = Layout("feature_models", {"tfidf.terms": (str, ("terms",))}, {
    "tfidf_idf": (np.float64, ("terms",)), "svd_components": (np.float64, ("rank", "terms")),
    "svd_singular_values": (np.float64, ("rank",))})


def save_feature_models(path, tfidf: TfidfModel, svd: SvdProjector,
                        extra_meta: dict | None = None) -> None:
    """Write the fitted TF-IDF and SVD models to one `feature_models` bundle."""
    meta = {"kind": "feature_models", "tfidf": {"terms": tfidf.terms}, **(extra_meta or {})}
    arrays = {"tfidf_idf": tfidf.idf, "svd_components": svd.components,
              "svd_singular_values": svd.singular_values}
    save_bundle(path, meta, arrays)


def load_feature_models(path):
    """(tfidf, svd, config_hash) from a bundle `save_feature_models` wrote;
    config_hash is the stamp it carries, or ""."""
    meta, arrays = load_bundle(path, LAYOUT)
    tfidf = TfidfModel(meta["tfidf"]["terms"], arrays["tfidf_idf"])
    svd = SvdProjector(arrays["svd_components"], arrays["svd_singular_values"])
    return tfidf, svd, meta.get("config_hash", "")


def _fix_signs(vt: np.ndarray) -> np.ndarray:
    out = vt.copy()
    for i in range(out.shape[0]):
        j = int(np.argmax(np.abs(out[i])))
        if out[i, j] < 0:
            out[i] = -out[i]
    return out


def svd_fit(csr, n_cols: int, rank: int) -> SvdProjector:
    """Best rank-r' approximation, r' = min(rank, N, M), of the N x M matrix
    X given as CSR arrays csr = (indptr, indices, data) with M = n_cols.

    Exact for every shape: the right singular vectors are the top r'
    eigenvectors of the M x M Gram matrix X^T X (Eckart-Young), ordered by
    ||X v_i||, which is each singular value: the square root of its
    eigenvalue would lose the small end to squaring. Signs follow
    `_fix_signs`.

    Cost: the Gram matrix holds M^2 floats and eigh is O(M^3). On the
    featurize matrix M < 2N: each training episode adds min(k, L) prefix rows
    and at most 2 min(k, L) - 1 distinct terms (unigrams and bigrams of its
    longest prefix, of which every shorter prefix's terms are a subset). On 2
    vCPUs at one BLAS thread (medians of 5), the `paper` workload's 6995 x 867
    matrix takes 0.17 s and the `long` workload's 1400 x 452 one 0.05 s; at
    k = 60, `long`'s 16800 x 1366 matrix takes 1.5 s, and its featurize
    process peaks at 168 MB.
    """
    indptr, indices, data = csr
    n, m = len(indptr) - 1, n_cols
    if n < 2 or m < 1:
        raise FeatureError(f"svd_fit needs N >= 2 and M >= 1, got {(n, m)}")
    r = min(rank, n, m)
    if r < rank:
        warnings.warn(f"requested rank {rank} clamped to {r} for shape {(n, m)}")

    nnz = np.diff(indptr)
    row = np.repeat(np.arange(n), nnz)  # the row of each nonzero
    # X^T X: step p pairs the p-th nonzero of each row that has one with
    # every nonzero of that row.
    gram = np.zeros(m * m)
    for p in range(int(nnz.max(initial=0))):
        partner = nnz[row] > p
        anchor = indptr[row[partner]] + p
        gram += np.bincount(indices[anchor] * m + indices[partner],
                            weights=data[anchor] * data[partner], minlength=m * m)
    _, v = np.linalg.eigh(gram.reshape(m, m))
    del gram
    vt = v.T[::-1][:r]  # eigh sorts ascending
    # ||X v_i|| per column, as np.linalg.norm(P, axis=0) computes it, with P
    # squared in place rather than through norm's two N x r temporaries.
    p = _project_csr(indptr, indices, data, vt)
    s = np.sqrt(np.add.reduce(np.square(p, out=p), axis=0))
    order = np.argsort(-s, kind="stable")
    return SvdProjector(_fix_signs(vt[order]), s[order])


_BLOCK_ROWS = 1024  # rows projected at a time: the working set is 1024 x rank floats


def _project_csr(indptr, indices, data, components) -> np.ndarray:
    """x @ components.T for the CSR matrix x = (indptr, indices, data).

    Every row adds a * components[:, j] for its nonzeros (j, a) in column
    order, starting from zero, as scipy's csr_matvecs does, so the result is
    bitwise `csr_matrix(...) @ components.T`. Rows are projected in blocks of
    _BLOCK_ROWS into the preallocated result. Within a block, rows are visited
    by descending nonzero count (stable), so step k adds the k-th nonzero of
    the block's first n_k rows, those that have one, into a contiguous block;
    one scatter per block restores the row order."""
    n, r = len(indptr) - 1, components.shape[0]
    out = np.empty((n, r))
    for lo in range(0, n, _BLOCK_ROWS):
        nnz = np.diff(indptr[lo:lo + _BLOCK_ROWS + 1])
        order = np.argsort(-nnz, kind="stable")
        starts, counts = indptr[lo:lo + len(nnz)][order], nnz[order]
        z = np.zeros((len(nnz), r))
        for k in range(int(counts.max(initial=0))):
            n_k = int(np.count_nonzero(counts > k))
            pos = starts[:n_k] + k
            terms = components.T[indices[pos]]
            terms *= data[pos, None]
            z[:n_k] += terms
        out[lo + order] = z
    return out


def featurize_rows(rows, vocab: Vocabulary, tfidf: TfidfModel, svd: SvdProjector) -> np.ndarray:
    """Dense feature matrix: the SVD projection of each prefix document."""
    docs = [row_document(r, vocab) for r in rows]
    return _project_csr(*tfidf.transform(docs), svd.components)
