import warnings

import numpy as np
import pytest

from panelroute.cohort import DEFAULT_MIXTURE, CohortConfig, generate_cohort
from panelroute import router
from panelroute.events import DOMAINS, DomainLabel
from panelroute.router import (
    LogisticHead,
    PlattCalibrator,
    RouterError,
    RouterModel,
    SplitSpec,
    fit_head,
    lbfgs,
    platt_fit,
    split,
    temperature_fit,
    _sigmoid,
)

C = DomainLabel.CARDIAC


class TestSplit:
    def test_100_episodes_70_10_20(self):
        eps = generate_cohort(CohortConfig(seed=0, counts={d.value: 20 for d in DOMAINS}))
        train, dev, test = split(eps, SplitSpec(seed=0))
        assert (len(train), len(dev), len(test)) == (70, 10, 20)

    def test_partition_is_exact(self):
        eps = generate_cohort(CohortConfig(seed=1, counts={d.value: 13 for d in DOMAINS}))
        parts = split(eps, SplitSpec(seed=1))
        ids = [ep.episode_id for part in parts for ep in part]
        assert sorted(ids) == sorted(ep.episode_id for ep in eps)
        assert len(set(ids)) == len(ids)

    def test_prevalence_stratified_within_2pc(self):
        eps = generate_cohort(CohortConfig(seed=2, total=5000, mixture=DEFAULT_MIXTURE))
        parts = split(eps, SplitSpec(seed=2))
        def census(part):
            n = len(part)
            return [sum(1 for ep in part if d in ep.labels) / n for d in DOMAINS]
        overall = census(eps)
        for part in parts:
            for p_split, p_all in zip(census(part), overall):
                assert abs(p_split - p_all) <= 0.02

    def test_deterministic(self):
        eps = generate_cohort(CohortConfig(seed=3, counts={d.value: 10 for d in DOMAINS}))
        a = split(eps, SplitSpec(seed=5))
        b = split(eps, SplitSpec(seed=5))
        for pa, pb in zip(a, b):
            assert [e.episode_id for e in pa] == [e.episode_id for e in pb]

    def test_too_few_episodes_rejected(self):
        eps = generate_cohort(CohortConfig(seed=0, counts={"Cardiac": 5}))
        with pytest.raises(RouterError):
            split(eps, SplitSpec())

    def test_single_domain_pool_does_not_warn(self):
        eps = generate_cohort(CohortConfig(seed=0, counts={"Cardiac": 50}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            split(eps, SplitSpec(seed=0))

    def test_domain_missing_from_a_part_warns(self):
        counts = {d.value: 20 for d in DOMAINS}
        counts["Musculoskeletal"] = 1
        eps = generate_cohort(CohortConfig(seed=0, counts=counts))
        with pytest.warns(UserWarning, match="Musculoskeletal"):
            split(eps, SplitSpec(seed=0))


class TestFitHead:
    def test_separable_toy_set_perfect_accuracy(self):
        x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        head = fit_head(x, y)
        preds = head.raw_scores(x) > 0
        assert np.array_equal(preds, y.astype(bool))

    def test_symmetric_data_boundary_at_zero(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([0.0, 1.0])
        head = fit_head(x, y, c=1e6)
        assert head.raw_scores(np.array([[0.0]]))[0] == pytest.approx(0.0, abs=1e-3)

    def test_doubling_weights_equals_halving_c(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((60, 3))
        y = (x[:, 0] + 0.3 * rng.standard_normal(60) > 0).astype(float)
        w = rng.uniform(0.5, 1.5, size=60)
        h1 = fit_head(x, y, w, c=2.0)
        h2 = fit_head(x, y, 2.0 * w, c=1.0)
        assert np.allclose(h1.weights, h2.weights, atol=1e-5)
        assert h1.bias == pytest.approx(h2.bias, abs=1e-5)

    def test_single_class_rejected(self):
        with pytest.raises(RouterError):
            fit_head(np.zeros((4, 2)), np.ones(4))

    def test_unconverged_solve_warns(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 3))
        y = (x[:, 0] > 0).astype(float)
        with pytest.warns(RuntimeWarning, match="Cardiac head: L-BFGS did not converge after 1"):
            fit_head(x, y, max_iter=1)

    def test_converged_solves_stay_silent(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((50, 3))
        y = (x[:, 0] + 0.5 * rng.standard_normal(50) > 0).astype(float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            platt_fit(fit_head(x, y).raw_scores(x), y)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_scipy_lbfgsb(self, seed):
        from scipy import optimize  # the oracle; the program imports no scipy

        rng = np.random.default_rng(seed)
        n, dim = 300 + 100 * seed, 4 + 6 * seed
        x = rng.standard_normal((n, dim))
        y = (x @ rng.standard_normal(dim) + rng.standard_normal(n) > 0.5).astype(float)
        w = rng.uniform(0.1, 1.0, size=n)
        sign, c = 2.0 * y - 1.0, 2.0

        def objective(theta):
            margins = sign * (x @ theta[:dim] + theta[dim])
            loss = w @ np.logaddexp(0.0, -margins) + theta[:dim] @ theta[:dim] / (2.0 * c)
            g_margin = -w * sign / (1.0 + np.exp(margins))
            return loss, np.append(x.T @ g_margin + theta[:dim] / c, g_margin.sum())

        want = optimize.minimize(objective, np.zeros(dim + 1), jac=True, method="L-BFGS-B",
                                 options={"maxiter": 3000, "gtol": 1e-6, "ftol": 1e-12})
        head = fit_head(x, y, w, c=c)
        assert want.success and head.solve.success
        assert np.abs(head.weights - want.x[:dim]).max() <= 1e-4
        assert abs(head.bias - want.x[dim]) <= 1e-4

    def test_weight_norm_non_increasing_as_c_decreases(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((80, 4))
        y = (x @ np.array([1.0, -0.5, 0.2, 0.0]) > 0).astype(float)
        norms = [np.linalg.norm(fit_head(x, y, c=c).weights) for c in (10, 2, 1, 0.1)]
        assert all(b <= a + 1e-8 for a, b in zip(norms, norms[1:]))


def toy_router():
    heads = [LogisticHead(domain=d, weights=np.zeros(2), bias=0.0) for d in DOMAINS]
    cals = [PlattCalibrator(1.0, 0.0)] * 5
    return RouterModel(heads, cals)


class TestRouterModel:
    def test_zero_weights_identity_calibration_gives_half(self):
        model = toy_router()
        probs = model.predict_proba(np.array([[1.0, 2.0]]))
        assert np.allclose(probs, 0.5)

    def test_calibrated_probs_monotone_in_raw_score(self):
        cal = PlattCalibrator(2.0, -1.0)
        scores = np.linspace(-3, 3, 20)
        out = cal(scores)
        assert np.all(np.diff(out) > 0)

    def test_hand_computed_two_domain_path(self):
        model = toy_router()
        model.heads[0].weights = np.array([0.5, -0.25])
        model.heads[0].bias = 0.1
        model.calibrators = list(model.calibrators)
        model.calibrators[0] = PlattCalibrator(1.5, 0.2)
        z = np.array([[2.0, 4.0]])
        raw = 0.5 * 2.0 - 0.25 * 4.0 + 0.1
        expected = 1.0 / (1.0 + np.exp(-(1.5 * raw + 0.2)))
        assert model.predict_proba(z)[0, 0] == pytest.approx(expected, abs=1e-9)

    def test_save_load_round_trip(self, tmp_path):
        model = toy_router()
        model.heads[2].weights = np.array([0.3, 0.7])
        model.save(tmp_path / "r.bin")
        loaded = RouterModel.load(tmp_path / "r.bin", dim=2)
        x = np.array([[1.0, -1.0], [0.5, 2.0]])
        assert np.array_equal(model.predict_proba(x), loaded.predict_proba(x))

    def test_serialization_deterministic(self, tmp_path):
        model = toy_router()
        model.save(tmp_path / "a.bin")
        model.save(tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


class TestPlatt:
    def test_recovers_identity_on_calibrated_scores(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.02, 0.98, size=10_000)
        scores = np.log(p / (1 - p))
        y = (rng.random(10_000) < p).astype(float)
        cal = platt_fit(scores, y)
        assert cal.a == pytest.approx(1.0, abs=0.1)
        assert cal.b == pytest.approx(0.0, abs=0.1)

    def test_flipped_labels_give_negative_slope(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.05, 0.95, size=2000)
        scores = np.log(p / (1 - p))
        y = (rng.random(2000) >= p).astype(float)
        assert platt_fit(scores, y).a < 0

    def test_single_class_falls_back_to_identity(self):
        with pytest.warns(UserWarning):
            cal = platt_fit(np.array([0.1, 0.2]), np.array([1.0, 1.0]))
        assert (cal.a, cal.b) == (1.0, 0.0)

    def test_calibration_never_worsens_brier(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0.05, 0.95, size=4000)
        scores = 3.0 * np.log(p / (1 - p)) + 0.5  # miscalibrated logits
        y = (rng.random(4000) < p).astype(float)
        cal = platt_fit(scores, y)
        before = np.mean((_sigmoid(scores) - y) ** 2)
        after = np.mean((cal(scores) - y) ** 2)
        assert after <= before + 1e-6

    def test_unconverged_fit_warns(self, monkeypatch):
        monkeypatch.setattr(router, "DEFAULT_MAX_ITER", 1)  # the solver's budget
        rng = np.random.default_rng(4)
        scores = rng.standard_normal(200)
        y = (rng.random(200) < _sigmoid(3.0 * scores - 1.0)).astype(float)
        with pytest.warns(RuntimeWarning, match="Platt fit: L-BFGS did not converge after "
                                                "1 iterations: iteration limit reached"):
            cal = platt_fit(scores, y)
        assert (cal.solve.nit, cal.solve.success) == (1, False)

    def test_failed_line_search_warns(self):
        # a NaN score makes every trial step's loss NaN, so no step decreases it
        with np.errstate(invalid="ignore"), pytest.warns(
                RuntimeWarning, match="Platt fit: L-BFGS did not converge after "
                                      "0 iterations: line search found no decrease"):
            cal = platt_fit(np.array([0.1, np.nan]), np.array([0, 1]))
        assert (cal.a, cal.b) == (1.0, 0.0)

    def test_positive_slope_preserves_ordering(self):
        rng = np.random.default_rng(3)
        scores = rng.standard_normal(50)
        cal = PlattCalibrator(0.7, 0.1)
        assert np.array_equal(np.argsort(scores), np.argsort(cal(scores)))


class TestLbfgs:
    def test_minimizes_the_rosenbrock_function(self):
        def rosenbrock(v):
            a, b = v
            return ((1 - a) ** 2 + 100 * (b - a * a) ** 2,
                    np.array([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)]))

        res = lbfgs(rosenbrock, np.array([-1.2, 1.0]), gtol=1e-8, ftol=0.0, max_iter=500)
        assert res.success and res.message == "max|g| <= gtol"
        assert np.abs(res.x - 1.0).max() <= 1e-6

    def test_start_at_the_minimum_takes_no_step(self):
        res = lbfgs(lambda v: (float(v @ v), 2 * v), np.zeros(3), gtol=1e-9, ftol=0.0,
                    max_iter=10)
        assert (res.nit, res.success) == (0, True)


class TestTemperature:
    def test_matches_scipy_bounded_minimize_scalar(self):
        from scipy import optimize  # the oracle; the program imports no scipy

        rng = np.random.default_rng(5)
        p = rng.uniform(0.02, 0.98, size=5000)
        logits = 2.5 * np.log(p / (1 - p))
        y = (rng.random(5000) < p).astype(float)
        sign = 2.0 * y - 1.0
        want = optimize.minimize_scalar(
            lambda t: np.logaddexp(0.0, -sign * logits / t).sum(),
            bounds=router.TEMPERATURE_BRACKET, method="bounded", options={"xatol": 1e-6})
        assert temperature_fit(logits, y) == pytest.approx(want.x, abs=1e-5)

    def test_calibrated_logits_give_unit_temperature(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0.02, 0.98, size=10_000)
        logits = np.log(p / (1 - p))
        y = (rng.random(10_000) < p).astype(float)
        assert temperature_fit(logits, y) == pytest.approx(1.0, abs=0.1)

    def test_recovers_4x_scaling(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.02, 0.98, size=10_000)
        logits = 4.0 * np.log(p / (1 - p))
        y = (rng.random(10_000) < p).astype(float)
        assert temperature_fit(logits, y) == pytest.approx(4.0, abs=0.5)

    def test_temperature_preserves_ordering(self):
        logits = np.array([-1.0, 0.5, 2.0, 0.1])
        assert np.array_equal(np.argsort(logits), np.argsort(logits / 3.7))

    def test_single_class_rejected(self):
        with pytest.raises(RouterError):
            temperature_fit(np.array([1.0, 2.0]), np.array([1, 1]))
