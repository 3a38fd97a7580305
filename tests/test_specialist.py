import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import erf as scipy_erf

from panelroute import specialist
from panelroute.events import PAD_ID
from panelroute.serial import load_bundle
from panelroute.specialist import (
    _add_rows,
    _float32_copy,
    _gelu,
    _gelu_grad,
    AdamW,
    SpecialistConfig,
    SpecialistError,
    SpecialistModel,
    WEIGHT_DECAY,
    TrainConfig,
    clip_global_norm,
    cross_entropy,
    erf,
    length_batches,
    lr_schedule,
    pad_batch,
    perplexity_from_loss,
    train,
    unigram_entropy,
    write_curve_csv,
)


def tiny_model(vocab=12, layers=1, d=8, heads=2, dropout=0.0, seed=0, max_positions=16):
    cfg = SpecialistConfig(vocab_size=vocab, layers=layers, d_model=d, heads=heads,
                           dropout=dropout, max_positions=max_positions)
    return SpecialistModel(cfg, seed=seed)


class TestCrossEntropy:
    def test_uniform_logits_v10(self):
        logits = np.zeros((1, 3, 10))
        targets = np.array([[4, 5, 6]])
        loss, _ = cross_entropy(logits, targets)
        assert loss == pytest.approx(math.log(10), abs=1e-12)

    def test_one_hot_large_margin_near_zero(self):
        logits = np.full((1, 2, 6), -50.0)
        logits[0, 0, 4] = 50.0
        logits[0, 1, 5] = 50.0
        loss, _ = cross_entropy(logits, np.array([[4, 5]]))
        assert loss < 1e-9

    def test_two_token_hand_softmax(self):
        logits = np.array([[[1.0, 2.0]]])
        loss, dlogits = cross_entropy(logits, np.array([[1]]))
        p = np.exp([1.0, 2.0]) / np.exp([1.0, 2.0]).sum()
        assert loss == pytest.approx(-math.log(p[1]), abs=1e-9)
        assert dlogits[0, 0] == pytest.approx([p[0], p[1] - 1.0], abs=1e-12)

    def test_pad_positions_excluded(self):
        logits = np.zeros((1, 3, 4))
        logits[0, 0, 1] = 3.0
        targets = np.array([[1, PAD_ID, PAD_ID]])
        loss, dlogits = cross_entropy(logits, targets)
        assert np.all(dlogits[0, 1:] == 0)

    def test_all_pad_rejected(self):
        with pytest.raises(SpecialistError):
            cross_entropy(np.zeros((1, 2, 4)), np.full((1, 2), PAD_ID))


class TestLrSchedule:
    def test_end_of_warmup_equals_peak(self):
        total = 1000
        warmup = round(0.05 * total)
        assert lr_schedule(warmup - 1, total, 1e-3) == pytest.approx(1e-3)
        assert lr_schedule(warmup, total, 1e-3) == pytest.approx(1e-3)

    def test_final_step_is_floor(self):
        assert lr_schedule(999, 1000, 1e-3) == pytest.approx(1e-4, abs=1e-6 * 1e-3)

    def test_warmup_is_linear(self):
        total = 200  # warmup = 10 steps
        lrs = [lr_schedule(s, total, 1.0) for s in range(10)]
        assert np.allclose(np.diff(lrs), 0.1)

    def test_never_exceeds_peak(self):
        for s in range(500):
            assert lr_schedule(s, 500, 1e-3) <= 1e-3 + 1e-15


class TestForward:
    def test_single_token_one_logit_row(self):
        model = tiny_model()
        logits, _ = model.forward(np.array([[4]]))
        assert logits.shape == (1, 1, 12)

    def test_causality_exact(self):
        model = tiny_model(seed=3)
        base = np.array([[2, 4, 5, 6, 7]])
        logits, _ = model.forward(base)
        for t in range(1, 5):
            perturbed = base.copy()
            perturbed[0, t] = (perturbed[0, t] + 3) % 12
            logits2, _ = model.forward(perturbed)
            assert np.array_equal(logits[0, :t], logits2[0, :t])

    def test_bitwise_stable_across_runs(self):
        a = tiny_model(seed=5)
        b = tiny_model(seed=5)
        ids = np.array([[2, 4, 5, 3]])
        assert np.array_equal(a.forward(ids)[0], b.forward(ids)[0])

    def test_tied_embeddings_share_storage(self):
        model = tiny_model()
        ids = np.array([[2, 4]])
        before, _ = model.forward(ids)
        model.params["tok_emb"] = model.params["tok_emb"] * 2.0
        after, _ = model.forward(ids)
        assert "out_proj" not in model.params  # single tied matrix
        assert not np.allclose(before, after)

    def test_length_and_vocab_bounds_checked(self):
        model = tiny_model(max_positions=4)
        with pytest.raises(SpecialistError):
            model.forward(np.zeros((1, 5), dtype=int))
        with pytest.raises(SpecialistError):
            model.forward(np.array([[99]]))

    def test_invalid_head_split_rejected(self):
        with pytest.raises(SpecialistError):
            SpecialistConfig(vocab_size=10, d_model=10, heads=3)


@st.composite
def last_only_cases(draw):
    heads = draw(st.sampled_from([1, 2]))
    cfg = SpecialistConfig(vocab_size=draw(st.integers(5, 15)), layers=draw(st.integers(1, 3)),
                           d_model=heads * draw(st.sampled_from([2, 4])), heads=heads,
                           dropout=0.1, max_positions=draw(st.integers(1, 12)))
    t = draw(st.integers(1, cfg.max_positions))
    bsz = draw(st.integers(1, 3))
    ids = draw(hnp.arrays(np.int64, (bsz, t), elements=st.integers(0, cfg.vocab_size - 1)))
    return cfg, ids, draw(st.booleans()), draw(st.integers(0, 2**16))


class TestLastOnlyForward:
    @settings(max_examples=80, deadline=None)
    @given(last_only_cases())
    def test_equals_last_row_of_full_forward(self, case):
        cfg, ids, lora, seed = case
        model = SpecialistModel(cfg, seed=seed)
        if lora:
            model.attach_lora(rank=1, alpha=4.0, seed=seed)
            rng = np.random.default_rng(seed)
            for key, (a, b) in model.adapters.items():
                model.adapters[key] = (a, rng.normal(0, 0.5, size=b.shape))
        full, _ = model.forward(ids)
        last, cache = model.forward(ids, keep="last")
        assert cache is None
        assert last.shape == (ids.shape[0], 1, cfg.vocab_size)
        np.testing.assert_allclose(last, full[:, -1:], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("keep", ["last", "logits"])
    def test_train_without_cache_rejected(self, keep):
        with pytest.raises(SpecialistError):
            tiny_model(dropout=0.1).forward(np.array([[2, 4, 5]]), train=True, keep=keep)


class TestKeep:
    def test_logits_equal_the_cached_forwards_bitwise(self):
        model = tiny_model(layers=2, d=16, seed=2)
        ids = np.random.default_rng(2).integers(0, 12, size=(3, 9))
        cached, cache = model.forward(ids)
        logits, none = model.forward(ids, keep="logits")
        assert cache is not None and none is None
        assert np.array_equal(logits, cached)

    def test_unknown_keep_rejected(self):
        with pytest.raises(SpecialistError, match="keep"):
            tiny_model().forward(np.array([[2, 4]]), keep="all")

    def test_eval_loss_equals_the_loss_of_cached_forwards(self):
        model = tiny_model(vocab=30, layers=2, d=16, dropout=0.1, seed=5, max_positions=32)
        rng = np.random.default_rng(5)
        seqs = [list(rng.integers(4, 30, size=int(rng.integers(3, 30)))) for _ in range(45)]
        total, count = 0.0, 0
        for ids, targets in (pad_batch([seqs[i] for i in batch])
                             for batch in length_batches(seqs, specialist.EVAL_BATCH_SIZE)):
            logits, cache = model.forward(ids)
            assert cache is not None
            n = int((targets != PAD_ID).sum())
            total += cross_entropy(logits, targets)[0] * n
            count += n
        assert model.eval_loss(seqs) == total / count

    def test_a_cache_serves_one_backward(self):
        model = tiny_model(layers=2, d=16, dropout=0.1)
        ids = np.array([[2, 4, 5, 6], [2, 7, 8, 3]])
        logits, cache = model.forward(ids, train=True, rng=np.random.default_rng(1))
        _, dlogits = cross_entropy(logits, ids)
        model.backward(cache, dlogits)
        with pytest.raises(SpecialistError, match="already used"):
            model.backward(cache, dlogits)


class TestGelu:
    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(-60, 60)))
    def test_matches_the_erf_recomputing_formulas_bitwise(self, x):
        x = np.concatenate([x, [-40.0, -8.0, -6.5, -0.0, 0.0, 6.5, 8.0, 40.0]])
        e = erf(x / math.sqrt(2.0))
        act = _gelu(x, e)
        ref_act = 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))
        ref_grad = (0.5 * (1.0 + erf(x / math.sqrt(2.0)))
                    + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))
        assert np.array_equal(act, ref_act)
        assert np.array_equal(_gelu_grad(x, e), ref_grad)


ERF_EDGES = [0.0, -0.0, 1.0, -1.0, 6.0, -6.0, 8.0, -8.0, 5e-324, -5e-324,
             2.2250738585072014e-308, -1.1125369292536007e-308, np.inf, -np.inf, np.nan]


def assert_within_one_ulp(got, want):
    assert np.array_equal(np.isnan(got), np.isnan(want))
    got, want = got[~np.isnan(want)], want[~np.isnan(want)]
    assert np.array_equal(np.signbit(got), np.signbit(want))
    # same sign: the distance of the bit patterns counts the ulps between them
    assert np.abs(got.view(np.int64) - want.view(np.int64)).max(initial=0) <= 1


class TestErf:
    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(-60, 60)))
    def test_within_one_ulp_of_scipy_odd_and_one_from_six(self, x):
        x = np.concatenate([x, ERF_EDGES])
        got = erf(x)
        assert_within_one_ulp(got, scipy_erf(x))
        assert np.array_equal(erf(-x), -got, equal_nan=True)
        saturated = np.abs(x) >= 6.0
        assert np.array_equal(got[saturated], np.sign(x[saturated]))

    def test_dense_grid_within_one_ulp(self):
        x = np.linspace(-60.0, 60.0, 240001)
        assert_within_one_ulp(erf(x), scipy_erf(x))
        x = np.linspace(-6.5, 6.5, 130001)
        assert_within_one_ulp(erf(x), scipy_erf(x))

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float32, st.integers(1, 40),
                      elements=st.floats(-60, 60, width=32)))
    def test_float32_stays_float32_within_2e7_of_float64(self, x):
        x = np.concatenate([x, np.array([0.0, -0.0, 0.5, -1.0, 1.0, 6.0, -8.0, np.inf, -np.inf],
                                        dtype=np.float32)])
        got = erf(x)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, erf(x.astype(np.float64)), rtol=0, atol=2e-7)

    def test_dense_float32_grid_within_2e7(self):
        x = np.linspace(-8.0, 8.0, 400001, dtype=np.float32)
        np.testing.assert_allclose(erf(x), erf(x.astype(np.float64)), rtol=0, atol=2e-7)

    def test_ints_and_float64_are_float64(self):
        assert erf(np.arange(-3, 4)).dtype == np.float64
        assert erf(np.linspace(-1.0, 1.0, 5)).dtype == np.float64
        assert erf(0.5).dtype == np.float64

    def test_keeps_shape(self):
        x = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
        assert erf(x).shape == (2, 3, 4)
        assert erf(np.float64(0.5)).shape == ()
        assert_within_one_ulp(erf(x).ravel(), scipy_erf(x).ravel())


class TestLora:
    def test_attach_is_output_invariant(self):
        model = tiny_model(seed=1)
        ids = np.array([[2, 4, 5]])
        before, _ = model.forward(ids)
        model.attach_lora(rank=2, alpha=8.0)
        after, _ = model.forward(ids)
        assert np.array_equal(before, after)

    def test_merge_matches_adapted_forward(self):
        model = tiny_model(seed=2)
        model.attach_lora(rank=2, alpha=4.0)
        rng = np.random.default_rng(0)
        for key, (a, b) in model.adapters.items():
            model.adapters[key] = (a, rng.normal(0, 0.05, size=b.shape))
        ids = np.array([[2, 4, 5, 6]])
        adapted, _ = model.forward(ids)
        model.merge_lora()
        merged, _ = model.forward(ids)
        assert np.allclose(adapted, merged, atol=1e-6)

    def test_parameter_census_much_smaller(self):
        model = tiny_model(vocab=50, layers=2, d=64, heads=2)
        model.attach_lora(rank=4)
        base = sum(p.size for p in model.params.values())
        adapters = sum(a.size + b.size for a, b in model.adapters.values())
        assert base > 10 * adapters

    def test_rank_above_d_model_rejected(self):
        model = tiny_model(d=8, heads=2)
        with pytest.raises(SpecialistError):
            model.attach_lora(rank=16)

    def test_merge_without_adapters_rejected(self):
        with pytest.raises(SpecialistError):
            tiny_model().merge_lora()


class TestSuggest:
    def test_k1_equals_argmax(self):
        model = tiny_model(seed=4)
        ids = [2, 4, 5]
        logits, _ = model.forward(np.array([ids]))
        top = model.suggest(ids, k=1)
        assert top[0][0] == int(np.argmax(logits[0, -1]))

    def test_matches_top_k_of_full_forward_with_ties(self):
        model = tiny_model(seed=6)
        tied = [4, 6, 9, 10]
        model.params["tok_emb"][tied] = 0.0  # logit exactly 0 for each: a four-way tie
        ids = [2, 5, 7, 3]
        logits, _ = model.forward(np.array([ids]))
        z = logits[0, -1] - logits[0, -1].max()
        probs = np.exp(z) / np.exp(z).sum()
        ref = sorted(range(12), key=lambda i: (-probs[i], i))
        assert len({probs[i] for i in tied}) == 1
        for k in (1, 3, 7, 12):
            top = model.suggest(ids, k=k)
            assert [t for t, _ in top] == ref[:k]
            np.testing.assert_allclose([p for _, p in top], probs[ref[:k]], rtol=0, atol=1e-12)

    def test_probs_sum_below_one(self):
        model = tiny_model()
        top = model.suggest([2, 4], k=3)
        assert 0 < sum(p for _, p in top) <= 1.0 + 1e-12


class TestBatches:
    def test_pad_batch_shifts_targets(self):
        ids, targets = pad_batch([[2, 4, 5, 3], [2, 6, 3]])
        assert ids.shape == (2, 3)
        assert ids[0].tolist() == [2, 4, 5]
        assert targets[0].tolist() == [4, 5, 3]
        assert ids[1].tolist() == [2, 6, PAD_ID]
        assert targets[1].tolist() == [6, 3, PAD_ID]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(2, 12), max_size=60), st.integers(1, 9), st.integers(0, 2**32))
    def test_length_batches_cover_once_in_length_ranges(self, lengths, batch_size, seed):
        seqs = [[2] * n for n in lengths]
        for rng_seed in (None, seed):
            def draw():
                rng = None if rng_seed is None else np.random.default_rng(rng_seed)
                return length_batches(seqs, batch_size, rng)

            batches = draw()
            assert sorted(i for b in batches for i in b.tolist()) == list(range(len(seqs)))
            assert sum(len(b) < batch_size for b in batches) <= 1
            ranges = sorted((min(lengths[i] for i in b), max(lengths[i] for i in b))
                            for b in batches)
            assert all(hi <= lo for (_, hi), (lo, _) in zip(ranges, ranges[1:]))
            assert [b.tolist() for b in draw()] == [b.tolist() for b in batches]

    def test_evaluation_batches_run_shortest_first_with_ties_in_index_order(self):
        seqs = [[2] * n for n in (5, 3, 5, 2, 3, 5)]
        assert [b.tolist() for b in length_batches(seqs, 2)] == [[3, 1], [4, 0], [2, 5]]

    def test_training_batches_shuffle_ties_and_batch_order(self):
        tied = [[2, 5]] * 40
        partitions = {frozenset(frozenset(b.tolist())
                                for b in length_batches(tied, 4, np.random.default_rng(s)))
                      for s in range(5)}
        assert len(partitions) == 5
        seqs = [[2] * (1 + i // 4) for i in range(40)]  # ten lengths, four of each
        orders = {tuple(len(seqs[b[0]]) for b in length_batches(seqs, 4, np.random.default_rng(s)))
                  for s in range(5)}
        assert len(orders) == 5

    def test_eval_loss_does_not_depend_on_sequence_order(self):
        """Distinct lengths give the same batches in any order, so the same
        bits; tied lengths may swap rows within a batch."""
        model = tiny_model(vocab=30, layers=2, d=16, seed=6, max_positions=80)
        rng = np.random.default_rng(6)
        distinct = [[2, *rng.integers(4, 30, size=n)] for n in rng.permutation(np.arange(1, 76))]
        tied = [[2, *rng.integers(4, 30, size=int(rng.integers(1, 38)))] for _ in range(90)]
        for seqs in (distinct, tied):
            shuffled = [seqs[i] for i in rng.permutation(len(seqs))]
            assert model.eval_loss(shuffled) == pytest.approx(model.eval_loss(seqs),
                                                              rel=0, abs=1e-12)
        shuffled = [distinct[i] for i in rng.permutation(len(distinct))]
        assert model.eval_loss(shuffled) == model.eval_loss(distinct)

    def test_unigram_entropy_hand_case(self):
        # targets: 4,4,5 -> p = (2/3, 1/3)
        seqs = [[2, 4, 4], [2, 5]]
        expected = -(2 / 3 * math.log(2 / 3) + 1 / 3 * math.log(1 / 3))
        assert unigram_entropy(seqs) == pytest.approx(expected, abs=1e-12)


class TestAddRows:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([np.float32, np.float64]), st.integers(1, 300), st.integers(1, 40),
           st.integers(1, 8), st.integers(0, 2**32))
    def test_matches_np_add_at_within_summation_error(self, dtype, n, vocab, d, seed):
        """np.add.at is the reference. The sums run in another order, so each
        element may differ by the rounding bound of its sum: (rows summed) x
        eps x (sum of their magnitudes)."""
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, vocab, size=n)
        rows = rng.normal(size=(n, d)).astype(dtype)
        start = rng.normal(size=(vocab, d)).astype(dtype)
        got = start.copy()
        _add_rows(got, ids, rows)
        want = start.copy()
        np.add.at(want, ids, rows)
        magnitude = np.abs(start).astype(np.float64)
        np.add.at(magnitude, ids, np.abs(rows))
        summed = np.bincount(ids, minlength=vocab)[:, None] + 1
        assert got.dtype == dtype
        assert np.all(np.abs(got - want) <= 2 * summed * np.finfo(dtype).eps * magnitude)


class TestOptimizer:
    def test_clip_global_norm_scales_down(self):
        g = [np.full(4, 3.0)]
        total = clip_global_norm(g, 1.0)
        assert total == pytest.approx(6.0)
        assert np.linalg.norm(g[0]) == pytest.approx(1.0, abs=1e-9)

    def test_clip_noop_below_threshold(self):
        g = [np.full(4, 0.1)]
        clip_global_norm(g, 10.0)
        assert np.all(g[0] == 0.1)

    def test_adamw_decays_only_listed_keys(self):
        params = {"w": np.ones(3), "b": np.ones(3)}
        grads = {"w": np.zeros(3), "b": np.zeros(3)}
        AdamW().step(params, grads, lr=0.1, decay_keys={"w"})
        assert np.all(params["w"] < 1.0)
        assert np.all(params["b"] == 1.0)

    def test_adamw_in_place_step_is_bitwise_the_out_of_place_formula(self):
        """Several steps on decayed and undecayed keys, with changing learning
        rates, equal the out-of-place update bit for bit, and update the
        parameter arrays in place."""
        rng = np.random.default_rng(11)
        shapes = {"w": (7, 5), "b": (5,), "emb": (9, 3)}
        params = {k: rng.standard_normal(s) for k, s in shapes.items()}
        want = {k: p.copy() for k, p in params.items()}
        arrays = dict(params)
        decay_keys = {"w"}
        opt = AdamW()
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        b1, b2 = 0.9, 0.999
        for t, lr in enumerate([1e-3, 3e-3, 2e-3, 5e-4, 1e-4], start=1):
            grads = {k: rng.standard_normal(s) * 10.0 ** rng.integers(-6, 2)
                     for k, s in shapes.items()}
            opt.step(params, grads, lr, decay_keys)
            for key, g in grads.items():  # the oracle: the out-of-place formula
                m[key] = b1 * m[key] + (1 - b1) * g
                v[key] = b2 * v[key] + (1 - b2) * g * g
                mhat = m[key] / (1 - b1 ** t)
                vhat = v[key] / (1 - b2 ** t)
                update = mhat / (np.sqrt(vhat) + 1e-8)
                if key in decay_keys:
                    update = update + WEIGHT_DECAY * want[key]
                want[key] = want[key] - lr * update
            for key in shapes:
                assert params[key] is arrays[key]
                assert params[key].tobytes() == want[key].tobytes(), (t, key)
                assert opt.m[key].tobytes() == m[key].tobytes(), (t, key)
                assert opt.v[key].tobytes() == v[key].tobytes(), (t, key)


class TestTraining:
    def make_corpus(self, n=60, seed=0):
        # deterministic bigram chains over a tiny vocabulary
        rng = np.random.default_rng(seed)
        succ = {4: 5, 5: 6, 6: 7, 7: 4, 8: 9, 9: 8}
        seqs = []
        for _ in range(n):
            tok = int(rng.choice([4, 8]))
            seq = [2, tok]
            for _ in range(8):
                tok = succ[tok]
                seq.append(tok)
            seq.append(3)
            seqs.append(seq)
        return seqs

    def test_dev_loss_improves_and_beats_unigram(self):
        seqs = self.make_corpus()
        model = tiny_model(vocab=12, layers=1, d=32, heads=2)
        cfg = TrainConfig(epochs=10, batch_size=8, seed=0)
        curve = train(model, seqs[:48], seqs[48:], cfg)
        assert curve[-1]["dev_loss"] < curve[0]["dev_loss"]
        assert curve[-1]["dev_loss"] < unigram_entropy(seqs[:48])

    def test_best_checkpoint_restored(self):
        seqs = self.make_corpus(seed=1)
        model = tiny_model(vocab=12, layers=1, d=16, heads=2)
        curve = train(model, seqs[:48], seqs[48:], TrainConfig(epochs=3, batch_size=8))
        best = min(r["dev_loss"] for r in curve)
        assert model.eval_loss(seqs[48:]) == pytest.approx(best, abs=1e-9)

    def test_model_learns_bigram_structure(self):
        seqs = self.make_corpus(n=80, seed=2)
        model = tiny_model(vocab=12, layers=1, d=32, heads=2)
        train(model, seqs[:64], seqs[64:72], TrainConfig(epochs=25, batch_size=8))
        succ = {4: 5, 5: 6, 6: 7, 7: 4, 8: 9, 9: 8}
        hits = total = 0
        for seq in seqs[72:]:
            # final content position is followed by EOS, not the chain successor
            for t in range(1, len(seq) - 2):
                if seq[t] in succ:
                    total += 1
                    if model.suggest(seq[: t + 1], k=1)[0][0] == succ[seq[t]]:
                        hits += 1
        assert hits / total >= 0.9

    def test_adapters_only_freezes_base(self):
        seqs = self.make_corpus(n=30, seed=3)
        model = tiny_model(vocab=12, layers=1, d=16, heads=2)
        model.attach_lora(rank=2, alpha=8.0)
        before = {k: v.copy() for k, v in model.params.items()}
        train(model, seqs[:24], seqs[24:], TrainConfig(epochs=2, batch_size=8))
        for k in before:
            assert np.array_equal(model.params[k], before[k])
        assert any(np.any(b != 0) for _, b in model.adapters.values())

    def test_perplexity_identity(self):
        assert perplexity_from_loss(0.0) == 1.0
        assert perplexity_from_loss(1.0) == pytest.approx(math.e)

    def test_curve_csv_shape(self, tmp_path):
        curve = [{"epoch": 1, "train_loss": 1.5, "dev_loss": 1.4, "ppl": 4.06}]
        write_curve_csv(tmp_path / "c.csv", curve)
        lines = (tmp_path / "c.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,train_loss,dev_loss,ppl"
        assert len(lines) == 2


class TestFloat32Step:
    def test_step_gradients_match_float64_on_criterion_8_model(self):
        cfg = SpecialistConfig(vocab_size=12, layers=1, d_model=8, heads=2, dropout=0.0,
                               max_positions=8)
        model = SpecialistModel(cfg, seed=8)
        ids = np.array([[2, 4, 5, 6], [2, 7, 8, 0]])
        targets = np.array([[4, 5, 6, 3], [7, 8, 3, 0]])
        loss64, grads64, _ = model.loss_and_grads(ids, targets)
        loss32, grads32, _ = _float32_copy(model).loss_and_grads(ids, targets)
        assert loss32 == pytest.approx(loss64, rel=1e-6)
        assert set(grads32) == set(grads64)
        for key, g in grads64.items():
            assert grads32[key].dtype == np.float32, key
            # the finite-difference check's measure, with its 1e-8 floor
            denom = np.maximum(np.maximum(np.abs(g), np.abs(grads32[key])), 1e-8)
            assert (np.abs(grads32[key] - g) / denom).max() <= 1e-3, key

    def test_copy_is_float32_and_leaves_the_model_alone(self):
        model = tiny_model(seed=2)
        model.attach_lora(rank=2, alpha=4.0)
        before = {k: v.copy() for k, v in model.params.items()}
        step = _float32_copy(model)
        assert all(v.dtype == np.float32 for v in step.params.values())
        assert all(a.dtype == b.dtype == np.float32 for a, b in step.adapters.values())
        assert (step.lora_rank, step.lora_alpha) == (model.lora_rank, model.lora_alpha)
        for k, v in model.params.items():
            assert v.dtype == np.float64 and np.array_equal(v, before[k])

    @pytest.mark.parametrize("adapters_only", [False, True])
    def test_master_weights_optimizer_state_and_checkpoint_stay_float64(
            self, tmp_path, monkeypatch, adapters_only):
        optimizers = []

        class RecordingAdamW(AdamW):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                optimizers.append(self)

        monkeypatch.setattr(specialist, "AdamW", RecordingAdamW)
        seqs = TestTraining().make_corpus(n=30, seed=5)
        model = tiny_model(vocab=12, layers=2, d=16, heads=2, dropout=0.1)
        if adapters_only:
            model.attach_lora(rank=2, alpha=8.0)
        train(model, seqs[:24], seqs[24:], TrainConfig(epochs=2, batch_size=8))
        assert all(v.dtype == np.float64 for v in model.params.values())
        assert all(a.dtype == b.dtype == np.float64 for a, b in model.adapters.values())
        (opt,) = optimizers
        assert opt.t > 0 and opt.m
        assert all(m.dtype == np.float64 for m in opt.m.values())
        assert all(v.dtype == np.float64 for v in opt.v.values())
        model.save(tmp_path / "m.bin")
        _, arrays = load_bundle(tmp_path / "m.bin", specialist.LAYOUT)
        assert any(k.startswith("lora.") for k in arrays) == adapters_only
        assert all(a.dtype == np.float64 for a in arrays.values())

    def test_float64_dropout_keeps_the_draws_and_the_pattern(self):
        model = tiny_model(layers=2, d=8, dropout=0.5)
        ids = np.array([[2, 4, 5, 6, 7], [2, 8, 9, 3, 0]])
        _, cache = model.forward(ids, train=True, rng=np.random.default_rng(11))
        draws = np.random.default_rng(11)
        for lc in cache["layers"]:
            for key in ("attn_keep", "res1_keep", "res2_keep"):
                assert lc[key].dtype == np.bool_
                assert np.array_equal(lc[key], draws.random(lc[key].shape) >= 0.5)
            np.testing.assert_array_equal(lc["attn_d"], lc["attn"] * lc["attn_keep"] * 2.0)


class TestPersistence:
    @pytest.mark.parametrize("where", ["params", "adapters"])
    def test_save_refuses_non_float64_arrays(self, tmp_path, where):
        model = tiny_model(seed=3)
        model.attach_lora(rank=2)
        if where == "params":
            model.params["l0.wq"] = model.params["l0.wq"].astype(np.float32)
        else:
            a, b = model.adapters["l0.w1"]
            model.adapters["l0.w1"] = (a, b.astype(np.float32))
        with pytest.raises(SpecialistError, match="float32"):
            model.save(tmp_path / "m.bin")
        assert not (tmp_path / "m.bin").exists()
        with pytest.raises(SpecialistError):
            _float32_copy(model).save(tmp_path / "m.bin")

    def test_save_load_round_trip_with_adapters(self, tmp_path):
        model = tiny_model(seed=6)
        model.attach_lora(rank=2, alpha=4.0, seed=1)
        model.save(tmp_path / "m.bin")
        loaded = SpecialistModel.load(tmp_path / "m.bin")
        ids = np.array([[2, 4, 5]])
        assert np.array_equal(model.forward(ids)[0], loaded.forward(ids)[0])
        assert set(loaded.adapters) == set(model.adapters)

    @pytest.mark.parametrize("lora_rank", [0, 2])
    def test_load_rebuilds_the_model_without_random_draws(self, tmp_path, monkeypatch, lora_rank):
        model = tiny_model(layers=2, seed=4)
        if lora_rank:
            model.attach_lora(rank=lora_rank, alpha=4.0, seed=1)
            rng = np.random.default_rng(5)
            model.adapters = {k: (a, rng.normal(0, 0.1, b.shape))
                              for k, (a, b) in model.adapters.items()}
        model.save(tmp_path / "m.bin")

        def no_draws(*args, **kwargs):
            raise AssertionError("SpecialistModel.load drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        loaded = SpecialistModel.load(tmp_path / "m.bin")
        monkeypatch.undo()
        assert list(loaded.params) == sorted(model.params)
        for k, v in model.params.items():
            assert np.array_equal(loaded.params[k], v), k
        for k, (a, b) in model.adapters.items():
            assert np.array_equal(loaded.adapters[k][0], a) and np.array_equal(loaded.adapters[k][1], b)
        assert (loaded.lora_rank, loaded.lora_alpha) == (model.lora_rank, model.lora_alpha)
        ids = np.array([[2, 4, 5, 7, 3]])
        assert np.array_equal(model.forward(ids)[0], loaded.forward(ids)[0])

    def test_save_is_deterministic(self, tmp_path):
        model = tiny_model(seed=7)
        model.save(tmp_path / "a.bin")
        model.save(tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


ERF_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 6.0, -6.0]


def erf_input(n, dtype):
    """n seeded normal draws (sd 3), with the special values written at the
    start and across each block boundary of `erf`."""
    x = np.random.default_rng(n).normal(0.0, 3.0, n)
    for at in range(0, n - len(ERF_SPECIALS) + 1, 65532):
        x[at:at + len(ERF_SPECIALS)] = ERF_SPECIALS
    return x.astype(dtype)


def grads_case(lora):
    """A seeded two-layer model, adapters with non-zero B when `lora`, and a
    (16, 65) batch of ragged sequences. Its MLP input has 66,560 elements, so
    `erf` runs in two blocks; d_model is 2 so that every matrix product stays
    below OpenBLAS's threading threshold and the digests do not depend on the
    thread count."""
    model = SpecialistModel(SpecialistConfig(vocab_size=40, layers=2, d_model=2, heads=2,
                                             mlp_mult=32, dropout=0.1, max_positions=80),
                            seed=3)
    if lora:
        model.attach_lora(rank=2, alpha=8.0, seed=3)
        rng = np.random.default_rng(4)
        model.adapters = {k: (a, rng.normal(0, 0.1, size=b.shape))
                          for k, (a, b) in model.adapters.items()}
    rng = np.random.default_rng(9)
    seqs = [list(rng.integers(4, 40, size=int(rng.integers(40, 71)))) for _ in range(16)]
    return model, pad_batch(seqs)


def traced_peak_mb(fn):
    """Peak bytes tracemalloc sees allocated while `fn` runs, above what was
    allocated before it, in MB. numpy reports its array buffers to tracemalloc."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


class TestBitIdentity:
    """Digests of outputs of the single-pass erf and the backward pass that
    kept every activation to its end (numpy 2.4, x86-64). Computing erf in
    blocks and freeing activations early must not change one bit. The
    gradient digests were re-pinned when the token-embedding scatter became a
    per-token reduceat, which sums each token's rows before adding them; every
    other gradient array kept its bits."""

    ERF_SHA256 = {
        ("float32", 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ("float32", 1): "8dfdda235bbbecd0189690bf25258a6f5e519c94f9585ae227d98cb0899e4a78",
        ("float32", 65535): "12da3388c7c484dc37e03e0adddaac9d029c572db21934ef8c47f9bcb4f3f74f",
        ("float32", 65536): "36d83413d820e785f5b7a66a35bc6677463a0b401f08bd3d2f0bd497a9e82cc4",
        ("float32", 65537): "66ef0ce0cac21c129dcbd6b4a631b21601260df915c3887028a99d18747de1ad",
        ("float32", 196615): "d0f9f532985a2b01344000a2fece30b41b77b466fb09ce97b2ef409985c6e168",
        ("float64", 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ("float64", 1): "dfb48196460fd57840f7f84e9821ad50fe1a9000ebdb03ef75ac0c5199a35aa4",
        ("float64", 65535): "3b3ce38f977f5215f3c9890bfe153dbe990ca2fa9d48bde756d77d1f2c935754",
        ("float64", 65536): "b86553cd6c930d8576b9d8e42deffeb6e71218c75c911bbafa8ea8bf8a797c53",
        ("float64", 65537): "9477a84a2cd67b89000c34ab5888be05259ca2129d5c6339d880c93e42ebb9e4",
        ("float64", 196615): "9361832344df891bc91147ff18ef4a0dd9b4758e2f308d9078d0e88291b5a172",
    }

    @pytest.mark.parametrize("dtype, n", sorted(ERF_SHA256))
    def test_erf_digest(self, dtype, n):
        got = erf(erf_input(n, dtype))
        assert got.dtype == np.dtype(dtype) and got.shape == (n,)
        assert hashlib.sha256(got.tobytes()).hexdigest() == self.ERF_SHA256[dtype, n]

    @pytest.mark.parametrize("dtype, bits", [("float32", "7b3f053f"),
                                             ("float64", "d2ed185cefa7e03f")])
    def test_erf_of_a_0d_array_keeps_its_shape(self, dtype, bits):
        got = erf(np.array(0.5, dtype=dtype))
        assert got.shape == () and got.dtype == np.dtype(dtype)
        assert got.tobytes().hex() == bits

    GRADS_SHA256 = {
        ("float32", False): "8443251088af4ac41083d61d56726a63e4468f814515532972b0fe12385ec1be",
        ("float32", True): "b33f862c64bcdc3deea794230cf3359c0d4e40cd084980246be39be3706e8590",
        ("float64", False): "b557f9763864ae01faf9509fdfcd60595042428bb87f3184a13e94cec931ad56",
        ("float64", True): "66f713dd5f4719304ba5963e1d7c88346be683273b6a7d252470e4e250292a49",
    }

    @pytest.mark.parametrize("dtype, lora", sorted(GRADS_SHA256))
    def test_training_loss_and_grads_digest(self, dtype, lora):
        model, (ids, targets) = grads_case(lora)
        if dtype == "float32":
            model = _float32_copy(model)
        loss, grads, a_grads = model.loss_and_grads(ids, targets, train=True,
                                                    rng=np.random.default_rng(5))
        h = hashlib.sha256(repr(loss).encode())
        for k in sorted(grads):
            h.update(grads[k].tobytes())
        for k in sorted(a_grads):
            h.update(a_grads[k][0].tobytes())
            h.update(a_grads[k][1].tobytes())
        assert h.hexdigest() == self.GRADS_SHA256[dtype, lora]


class TestMemory:
    """tracemalloc peaks on a model of the default specialist shape with V=300.
    When every forward kept every layer's activations and backward freed none,
    these peaks were 141.9 MB (eval) and 23.3 MB (backward); now they are 62.7
    and 9.9 MB. Each bound lies between the two."""

    def model_and_sequences(self):
        cfg = SpecialistConfig(vocab_size=300, layers=2, d_model=64, heads=2, dropout=0.1,
                               max_positions=256)
        rng = np.random.default_rng(2)
        return (SpecialistModel(cfg, seed=1),
                [list(rng.integers(4, 300, size=121)) for _ in range(32)])

    def test_eval_loss_keeps_no_activations(self):
        model, seqs = self.model_and_sequences()
        assert traced_peak_mb(lambda: model.eval_loss(seqs)) < 80.0

    def test_backward_frees_each_layer_once_used(self):
        model, seqs = self.model_and_sequences()
        step = _float32_copy(model)
        ids, targets = pad_batch(seqs[:16])
        logits, cache = step.forward(ids, train=True, rng=np.random.default_rng(3))
        _, dlogits = cross_entropy(logits, targets)
        del logits
        assert traced_peak_mb(lambda: step.backward(cache, dlogits)) < 13.0
