import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from panelroute.events import BOS_ID, EOS_ID, DomainLabel, Episode, Vocabulary, multi_hot
from panelroute.features import (
    _BLOCK_ROWS,
    FeatureError,
    _project_csr,
    PrefixRow,
    expand_cohort,
    expand_prefixes,
    featurize_rows,
    row_document,
    svd_fit,
    tfidf_fit,
)


def episode_with_tokens(eid, content_ids, labels=("Cardiac",)):
    return Episode(episode_id=eid, tokens=[BOS_ID] + list(content_ids) + [EOS_ID],
                   labels=tuple(DomainLabel(l) for l in labels))


def make_vocab(names):
    return Vocabulary([(n, 1) for n in names])


def as_sparse(csr, n_cols):
    """scipy's csr_matrix of the CSR arrays `TfidfModel.transform` returns."""
    indptr, indices, data = csr
    return sparse.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, n_cols))


def as_csr(x):
    """(CSR arrays, column count) of a dense matrix, the arguments of svd_fit."""
    m = sparse.csr_matrix(x)
    return (m.indptr, m.indices, m.data), x.shape[1]


class TestExpandPrefixes:
    def test_l3_k5_weights(self):
        ep = episode_with_tokens("e", [4, 5, 6])
        rows = expand_prefixes(ep, 5)
        assert [r.ell for r in rows] == [1, 2, 3]
        assert [r.weight for r in rows] == [0.2, 0.4, 0.6]
        assert rows[1].tokens == [4, 5]

    def test_l1_single_row(self):
        ep = episode_with_tokens("e", [4])
        rows = expand_prefixes(ep, 5)
        assert len(rows) == 1 and rows[0].weight == 1 / 5

    def test_long_episode_caps_at_k(self):
        ep = episode_with_tokens("e", list(range(4, 20)))
        rows = expand_prefixes(ep, 5)
        assert [r.ell for r in rows] == [1, 2, 3, 4, 5]
        assert rows[-1].weight == 1.0

    def test_labels_inherited(self):
        ep = episode_with_tokens("e", [4, 5], labels=("Pulmonary",))
        for r in expand_prefixes(ep, 5):
            assert r.label_bits == multi_hot(["Pulmonary"])

    def test_row_count_identity(self):
        eps = [episode_with_tokens(f"e{i}", list(range(4, 4 + n)))
               for i, n in enumerate([1, 3, 5, 9, 2])]
        rows = expand_cohort(eps, 5)
        assert len(rows) == sum(min(5, n) for n in [1, 3, 5, 9, 2])


class TestTfidf:
    def test_min_df_excludes_rare_terms(self):
        docs = ["a"] + ["b"] * 9
        model = tfidf_fit(docs, min_df=2)
        assert "a" not in model.term_to_col and "b" in model.term_to_col

    def test_term_in_every_doc_has_unit_idf(self):
        model = tfidf_fit(["a b", "a c", "a d", "a e"], min_df=1)
        assert model.idf[model.term_to_col["a"]] == pytest.approx(1.0)

    def test_four_doc_corpus_exact_idf(self):
        # df: a=4, b=2, "a b"=2 survive min_df=2; c and "a c" excluded
        model = tfidf_fit(["a b", "a b", "a c", "a"], min_df=2)
        assert model.terms == ["a", "a b", "b"]
        expected = [math.log(5 / 5) + 1, math.log(5 / 3) + 1, math.log(5 / 3) + 1]
        assert np.allclose(model.idf, expected, atol=1e-12)

    def test_oov_only_doc_is_zero_vector(self):
        model = tfidf_fit(["a b", "a b"], min_df=2)
        row = as_sparse(model.transform(["zzz qqq"]), model.n_terms).toarray()[0]
        assert np.all(row == 0)

    def test_identical_docs_identical_vectors(self):
        model = tfidf_fit(["a b c", "a b", "c a"], min_df=1)
        x = as_sparse(model.transform(["a b", "a b"]), model.n_terms).toarray()
        assert np.array_equal(x[0], x[1])

    def test_hand_computed_transform(self):
        model = tfidf_fit(["a b", "a b", "a c", "a"], min_df=2)
        row = as_sparse(model.transform(["a b"]), model.n_terms).toarray()[0]
        idf_ab = math.log(5 / 3) + 1
        raw = np.array([1.0, idf_ab, idf_ab])  # tf=1 for a, "a b", b
        expected = raw / np.linalg.norm(raw)
        assert np.allclose(row, expected, atol=1e-9)

    def test_rows_are_unit_norm(self):
        model = tfidf_fit(["a b c", "b c d", "a d"], min_df=1)
        x = as_sparse(model.transform(["a b c", "b c d"]), model.n_terms).toarray()
        assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)

    def test_transform_of_training_docs_reproduces_matrix(self):
        docs = ["a b c", "b c", "a c c"]
        model = tfidf_fit(docs, min_df=1)
        x1, x2 = model.transform(docs), model.transform(docs)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(x1, x2))

    def test_too_few_docs_rejected(self):
        with pytest.raises(FeatureError):
            tfidf_fit(["a"])

    def test_empty_vocab_rejected(self):
        with pytest.raises(FeatureError):
            tfidf_fit(["a", "b"], min_df=2)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.sampled_from("abcdefg"), max_size=12).map(" ".join),
                    min_size=1, max_size=20))
    def test_transform_is_bitwise_the_per_document_formula(self, docs):
        """The CSR arrays equal, bit for bit, each document's tf*idf vector over
        its sorted columns divided by its np.linalg.norm (an empty or OOV-only
        document gives an empty row)."""
        model = tfidf_fit(["a b c d e", "a b c", "d e f", "a f"], min_df=1)
        indptr, indices, data = model.transform(docs)
        for i, doc in enumerate(docs):
            counts = {}
            for term in doc.split() + [" ".join(p) for p in zip(doc.split(), doc.split()[1:])]:
                if term in model.term_to_col:
                    col = model.term_to_col[term]
                    counts[col] = counts.get(col, 0.0) + 1.0
            cols = sorted(counts)
            vals = np.array([counts[c] * model.idf[c] for c in cols])
            if cols:
                vals = vals / np.linalg.norm(vals)
            row = slice(indptr[i], indptr[i + 1])
            assert indices[row].tolist() == cols
            assert data[row].tobytes() == vals.tobytes()
        assert indptr.dtype == indices.dtype == np.int64 and data.dtype == np.float64


class TestSvd:
    def test_rank_one_matrix_single_nonzero_singular_value(self):
        x = np.outer(np.arange(1.0, 7.0), np.array([1.0, 2.0, 3.0]))
        with pytest.warns(UserWarning):
            proj = svd_fit(*as_csr(x), rank=256)
        assert proj.singular_values[0] > 1e-6
        assert np.all(proj.singular_values[1:] < 1e-9)

    def test_orthogonal_input_equal_singular_values(self):
        x = np.eye(5)
        with pytest.warns(UserWarning):
            proj = svd_fit(*as_csr(x), rank=256)
        assert np.allclose(proj.singular_values, 1.0, atol=1e-12)

    def test_frobenius_error_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 30))
        proj = svd_fit(*as_csr(x), rank=10)
        approx = (x @ proj.components.T) @ proj.components
        err = np.linalg.norm(x - approx)
        u, s, vt = np.linalg.svd(x, full_matrices=False)
        oracle = np.linalg.norm(x - (u[:, :10] * s[:10]) @ vt[:10])
        assert abs(err - oracle) <= 1e-6

    def test_components_orthonormal(self):
        rng = np.random.default_rng(1)
        proj = svd_fit(*as_csr(rng.standard_normal((40, 25))), rank=8)
        gram = proj.components @ proj.components.T
        assert np.allclose(gram, np.eye(8), atol=1e-6)

    def test_singular_values_non_increasing(self):
        rng = np.random.default_rng(2)
        proj = svd_fit(*as_csr(rng.standard_normal((30, 30))), rank=12)
        assert np.all(np.diff(proj.singular_values) <= 1e-12)

    def test_projection_never_grows_norm(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20, 15))
        proj = svd_fit(*as_csr(x), rank=5)
        z = x @ proj.components.T
        assert np.all(np.linalg.norm(z, axis=1) <= np.linalg.norm(x, axis=1) + 1e-9)

    @pytest.mark.parametrize("shape", [(60, 40), (700, 600)])  # M < N < 512; 512 < M < N
    def test_two_fits_are_bit_identical(self, shape):
        x = sparse_rows(np.random.default_rng(4), *shape)
        a, b = svd_fit(*as_csr(x), rank=6), svd_fit(*as_csr(x), rank=6)
        assert a.components.tobytes() == b.components.tobytes()
        assert a.singular_values.tobytes() == b.singular_values.tobytes()


def sparse_rows(rng, n, m):
    """A dense N x M matrix whose rows hold 0 to 11 nonzeros in random columns."""
    x = np.zeros((n, m))
    for i, count in enumerate(rng.integers(0, 12, size=n)):
        x[i, rng.choice(m, count, replace=False)] = rng.random(count)
    return x


@st.composite
def svd_cases(draw):
    """(x, rank): a sparse matrix with M >= 12, tall with M <= 512 < N or wide
    with N < M, whose rows hold 0 to 11 nonzeros. It may repeat a few distinct
    rows (rank-deficient) and have empty columns. The rank may exceed min(N, M)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # tall
        n, m = draw(st.integers(513, 640)), draw(st.integers(12, 48))
    else:  # wide
        n = draw(st.integers(2, 40))
        m = draw(st.integers(max(n + 1, 12), 96))
    distinct = min(draw(st.sampled_from([n, 1, 3, 10])), n)
    x = sparse_rows(rng, distinct, m)[rng.integers(0, distinct, n)]
    x[:, rng.random(m) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = 0.0
    return x, draw(st.integers(1, min(n, m) + 2))


class TestOnePath:
    """svd_fit on both sides of min(N, M) = 512, against np.linalg.svd."""

    @settings(max_examples=60, deadline=None)
    @given(svd_cases())
    def test_matches_the_dense_svd(self, case):
        x, rank = case
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a rank above min(N, M) is clamped
            proj = svd_fit(*as_csr(x), rank=rank)
        c, r = proj.components, min(rank, *x.shape)
        _, s, vt = np.linalg.svd(x, full_matrices=False)
        tol = 1e-10 * s[0]
        assert c.shape == (r, x.shape[1])
        assert np.abs(c @ c.T - np.eye(r)).max() <= 1e-10
        assert np.all(c[np.arange(r), np.abs(c).argmax(axis=1)] > 0)  # the sign rule
        norms = np.linalg.norm(x @ c.T, axis=0)
        assert np.all(np.diff(proj.singular_values) <= 0)
        assert np.abs(norms - proj.singular_values).max() <= tol
        assert np.abs(norms - s[:r]).max() <= tol
        for j in range(1, r + 1):  # top-j subspaces, where sigma_j stands apart
            if s[j - 1] - (s[j] if j < len(s) else 0.0) > 1e-3 * s[0]:
                cosines = np.linalg.svd(c[:j] @ vt[:j].T, compute_uv=False)
                assert cosines.min() >= 1 - 1e-10


class TestGramPath:
    """svd_fit on matrices with min(N, M) > 512, against np.linalg.svd."""

    def fit_and_oracle(self, x, rank):
        proj = svd_fit(*as_csr(x), rank=rank)
        _, s, vt = np.linalg.svd(x, full_matrices=False)
        assert min(x.shape) > 512 and proj.components.shape == (rank, x.shape[1])
        assert np.abs(proj.components @ proj.components.T - np.eye(rank)).max() <= 1e-12
        return proj, s[:rank], vt[:rank]

    def test_matches_the_dense_svd(self):
        x = sparse_rows(np.random.default_rng(5), 700, 600)
        proj, s, vt = self.fit_and_oracle(x, 256)
        assert np.abs(proj.singular_values - s).max() <= 1e-10 * s.min()
        cosines = np.linalg.svd(proj.components @ vt.T, compute_uv=False)
        assert cosines.min() >= 1 - 1e-10

    def test_rank_deficient_input_with_an_empty_column(self):
        # 60 distinct rows, each repeated 12 times, and no nonzero in column 17
        distinct = sparse_rows(np.random.default_rng(6), 60, 600)
        distinct[:, 17] = 0.0
        x = np.repeat(distinct, 12, axis=0)
        proj, s, vt = self.fit_and_oracle(x, 100)
        k = np.linalg.matrix_rank(distinct)  # at most 60: some rows are empty
        assert np.abs(proj.singular_values[:k] - s[:k]).max() <= 1e-10 * s[k - 1]
        assert np.all(proj.singular_values[k:] <= 1e-10 * s[0])
        cosines = np.linalg.svd(proj.components[:k] @ vt[:k].T, compute_uv=False)
        assert cosines.min() >= 1 - 1e-10
        assert np.abs(proj.components[:k, 17]).max() <= 1e-12

    def test_singular_values_are_bitwise_the_column_norms(self):
        x = sparse_rows(np.random.default_rng(7), 2 * _BLOCK_ROWS + 52, 600)
        csr, n_cols = as_csr(x)
        proj = svd_fit(csr, n_cols, rank=40)
        want = np.linalg.norm(_project_csr(*csr, proj.components), axis=0)
        assert proj.singular_values.tobytes() == want.tobytes()


def toy_rows_and_models():
    vocab = make_vocab(["[ACTION]_ORD_A", "[ACTION]_ORD_B", "[OBS]_LAB_C:HIGH"])
    rows = [
        PrefixRow(2, [4, 5], (1, 0, 0, 0, 0), 0.4),
        PrefixRow(2, [5, 6], (0, 1, 0, 0, 0), 0.4),
        PrefixRow(3, [4, 5, 6], (0, 0, 1, 0, 0), 0.6),
    ]
    docs = [row_document(r, vocab) for r in rows]
    tfidf = tfidf_fit(docs, min_df=1)
    svd = svd_fit(tfidf.transform(docs), tfidf.n_terms, rank=2)
    return vocab, rows, tfidf, svd


class TestFeaturizeRows:
    def test_dim_is_the_svd_rank(self):
        vocab, rows, tfidf, svd = toy_rows_and_models()
        x = featurize_rows(rows, vocab, tfidf, svd)
        assert x.shape == (3, svd.rank)

    def test_identical_rows_identical_vectors(self):
        vocab, rows, tfidf, svd = toy_rows_and_models()
        dup = [rows[0], rows[0]]
        x = featurize_rows(dup, vocab, tfidf, svd)
        assert np.array_equal(x[0], x[1])

    def test_features_ignore_tokens_beyond_prefix(self):
        # mutating episode content past position ell leaves rows 1..ell intact
        base = Episode(episode_id="e", tokens=[2, 4, 5, 6, 3], labels=(DomainLabel.CARDIAC,))
        mutated = Episode(episode_id="e", tokens=[2, 4, 5, 4, 3], labels=(DomainLabel.CARDIAC,))
        vocab, _, tfidf, svd = toy_rows_and_models()
        for ell in (1, 2):
            r1 = expand_prefixes(base, 5)[ell - 1]
            r2 = expand_prefixes(mutated, 5)[ell - 1]
            x1 = featurize_rows([r1], vocab, tfidf, svd)
            x2 = featurize_rows([r2], vocab, tfidf, svd)
            assert np.array_equal(x1, x2)


@st.composite
def projection_cases(draw):
    """A vocabulary whose last token never occurs in the TF-IDF training
    documents, those documents, and query prefixes over the whole vocabulary."""
    n_tokens = draw(st.integers(3, 10))
    vocab = make_vocab([f"[ACTION]_T{i}" for i in range(n_tokens)])
    oov = 4 + n_tokens - 1
    known = st.lists(st.integers(4, oov - 1), min_size=1, max_size=10)
    train = draw(st.lists(known, min_size=3, max_size=12))
    queries = draw(st.lists(st.lists(st.integers(4, oov), min_size=1, max_size=10),
                            min_size=1, max_size=8))
    queries += [[oov, oov], train[0] * 3]  # an OOV-only row; a row of repeated terms
    return vocab, train, draw(st.permutations(queries)), oov


def prefix_rows(token_lists):
    return [PrefixRow(len(t), t, (1, 0, 0, 0, 0), 1.0) for t in token_lists]


class TestProjection:
    def test_blocked_projection_is_bitwise_the_sparse_product(self):
        rng = np.random.default_rng(8)
        n = 3 * _BLOCK_ROWS + 100  # four blocks, the last one short
        x = sparse_rows(rng, n, 70)
        edges = [0, _BLOCK_ROWS - 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS - 1, 2 * _BLOCK_ROWS,
                 3 * _BLOCK_ROWS, n - 1]
        x[edges[::2]] = 0.0  # empty rows on block edges
        x[edges[1::2]] = rng.random((len(edges[1::2]), 70))  # full rows on the others
        x[rng.choice(n, 200, replace=False)] = 0.0  # empty rows inside blocks
        csr, n_cols = as_csr(x)
        components = rng.standard_normal((12, n_cols))
        want = np.asarray(as_sparse(csr, n_cols) @ components.T)
        got = _project_csr(*csr, components)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert not got[edges[::2]].any()

    @settings(max_examples=200, deadline=None)
    @given(projection_cases())
    def test_featurize_rows_is_bitwise_the_sparse_product(self, case):
        vocab, train, queries, oov = case
        train_docs = [row_document(r, vocab) for r in prefix_rows(train)]
        tfidf = tfidf_fit(train_docs, min_df=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # rank clamped to the toy matrix
            svd = svd_fit(tfidf.transform(train_docs), tfidf.n_terms, rank=8)
        rows = prefix_rows(queries)
        docs = [row_document(r, vocab) for r in rows]
        want = np.asarray(as_sparse(tfidf.transform(docs), tfidf.n_terms) @ svd.components.T)
        got = featurize_rows(rows, vocab, tfidf, svd)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert not want[queries.index([oov, oov])].any()
        for i, r in enumerate(rows):  # one row, as `route` featurizes it
            assert featurize_rows([r], vocab, tfidf, svd).tobytes() == want[i].tobytes()
