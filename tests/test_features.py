import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelroute.events import BOS_ID, EOS_ID, DomainLabel, Episode, Vocabulary, multi_hot
from panelroute.features import (
    FeatureError,
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
        row = model.transform(["zzz qqq"]).toarray()[0]
        assert np.all(row == 0)

    def test_identical_docs_identical_vectors(self):
        model = tfidf_fit(["a b c", "a b", "c a"], min_df=1)
        x = model.transform(["a b", "a b"]).toarray()
        assert np.array_equal(x[0], x[1])

    def test_hand_computed_transform(self):
        model = tfidf_fit(["a b", "a b", "a c", "a"], min_df=2)
        row = model.transform(["a b"]).toarray()[0]
        idf_ab = math.log(5 / 3) + 1
        raw = np.array([1.0, idf_ab, idf_ab])  # tf=1 for a, "a b", b
        expected = raw / np.linalg.norm(raw)
        assert np.allclose(row, expected, atol=1e-9)

    def test_rows_are_unit_norm(self):
        model = tfidf_fit(["a b c", "b c d", "a d"], min_df=1)
        x = model.transform(["a b c", "b c d"]).toarray()
        assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)

    def test_transform_of_training_docs_reproduces_matrix(self):
        docs = ["a b c", "b c", "a c c"]
        model = tfidf_fit(docs, min_df=1)
        x1 = model.transform(docs).toarray()
        x2 = model.transform(docs).toarray()
        assert np.array_equal(x1, x2)

    def test_too_few_docs_rejected(self):
        with pytest.raises(FeatureError):
            tfidf_fit(["a"])

    def test_empty_vocab_rejected(self):
        with pytest.raises(FeatureError):
            tfidf_fit(["a", "b"], min_df=2)


class TestSvd:
    def test_rank_one_matrix_single_nonzero_singular_value(self):
        x = np.outer(np.arange(1.0, 7.0), np.array([1.0, 2.0, 3.0]))
        with pytest.warns(UserWarning):
            proj = svd_fit(x, rank=256)
        assert proj.singular_values[0] > 1e-6
        assert np.all(proj.singular_values[1:] < 1e-9)

    def test_orthogonal_input_equal_singular_values(self):
        x = np.eye(5)
        with pytest.warns(UserWarning):
            proj = svd_fit(x, rank=256)
        assert np.allclose(proj.singular_values, 1.0, atol=1e-12)

    def test_frobenius_error_matches_dense_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 30))
        proj = svd_fit(x, rank=10)
        approx = (x @ proj.components.T) @ proj.components
        err = np.linalg.norm(x - approx)
        u, s, vt = np.linalg.svd(x, full_matrices=False)
        oracle = np.linalg.norm(x - (u[:, :10] * s[:10]) @ vt[:10])
        assert abs(err - oracle) <= 1e-6

    def test_components_orthonormal(self):
        rng = np.random.default_rng(1)
        proj = svd_fit(rng.standard_normal((40, 25)), rank=8)
        gram = proj.components @ proj.components.T
        assert np.allclose(gram, np.eye(8), atol=1e-6)

    def test_singular_values_non_increasing(self):
        rng = np.random.default_rng(2)
        proj = svd_fit(rng.standard_normal((30, 30)), rank=12)
        assert np.all(np.diff(proj.singular_values) <= 1e-12)

    def test_projection_never_grows_norm(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20, 15))
        proj = svd_fit(x, rank=5)
        z = x @ proj.components.T
        assert np.all(np.linalg.norm(z, axis=1) <= np.linalg.norm(x, axis=1) + 1e-9)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((60, 40))
        a = svd_fit(x, rank=6, seed=9)
        b = svd_fit(x, rank=6, seed=9)
        assert np.array_equal(a.components, b.components)


def toy_rows_and_models():
    vocab = make_vocab(["[ACTION]_ORD_A", "[ACTION]_ORD_B", "[OBS]_LAB_C:HIGH"])
    rows = [
        PrefixRow("e0", 2, [4, 5], (1, 0, 0, 0, 0), 0.4, time_feats=[3.0, 7.0]),
        PrefixRow("e1", 2, [5, 6], (0, 1, 0, 0, 0), 0.4, time_feats=[1.0, 2.0]),
        PrefixRow("e2", 3, [4, 5, 6], (0, 0, 1, 0, 0), 0.6, time_feats=[0.0, 0.0]),
    ]
    docs = [row_document(r, vocab) for r in rows]
    tfidf = tfidf_fit(docs, min_df=1)
    svd = svd_fit(tfidf.transform(docs), rank=2)
    return vocab, rows, tfidf, svd


class TestFeaturizeRows:
    def test_dim_without_time(self):
        vocab, rows, tfidf, svd = toy_rows_and_models()
        x = featurize_rows(rows, vocab, tfidf, svd, use_time=False)
        assert x.shape == (3, svd.rank)

    def test_dim_with_time(self):
        vocab, rows, tfidf, svd = toy_rows_and_models()
        x = featurize_rows(rows, vocab, tfidf, svd, use_time=True)
        assert x.shape == (3, svd.rank + 2)
        assert x[0, -2:].tolist() == [3.0, 7.0]

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
    return [PrefixRow(f"e{i}", len(t), t, (1, 0, 0, 0, 0), 1.0) for i, t in enumerate(token_lists)]


class TestProjection:
    @settings(max_examples=200, deadline=None)
    @given(projection_cases())
    def test_featurize_rows_is_bitwise_the_sparse_product(self, case):
        vocab, train, queries, oov = case
        train_docs = [row_document(r, vocab) for r in prefix_rows(train)]
        tfidf = tfidf_fit(train_docs, min_df=1)
        x = tfidf.transform(train_docs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # rank clamped to the toy matrix
            svd = svd_fit(x, rank=8)
        rows = prefix_rows(queries)
        docs = [row_document(r, vocab) for r in rows]
        want = np.asarray(tfidf.transform(docs) @ svd.components.T)
        got = featurize_rows(rows, vocab, tfidf, svd)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert not want[queries.index([oov, oov])].any()
        for i, r in enumerate(rows):  # one row, as `route` featurizes it
            assert featurize_rows([r], vocab, tfidf, svd).tobytes() == want[i].tobytes()
