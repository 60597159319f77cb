"""Tests for the fine-tuning prediction models and the min-p search."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models import (
    MLPClassifier,
    MonotonicGBDT,
    MonotonicSVM,
    make_prediction_model,
)
from repro.models import gbdt, gp, mlp, svm
from repro.models.base import validate_training_inputs
from repro.models.gp import GaussianProcess1D
from repro.models.search import min_feasible_parallelism
from tests.conftest import check_monotonicity, masked_sigmoid, reference_svm_fit


def threshold_dataset(seed=5, n=500, dim=4):
    """Bottleneck iff p below a threshold driven by the first feature."""
    rng = np.random.default_rng(seed)
    h = rng.uniform(0, 1, size=(n, dim))
    p = rng.uniform(0, 1, size=n)
    thresholds = 0.2 + 0.5 * h[:, 0]
    y = (p < thresholds).astype(int)
    return np.column_stack([h, p]), y


class TestValidation:
    def test_shape_checks(self):
        with pytest.raises(ValueError):
            validate_training_inputs(np.ones(3), np.ones(3))
        with pytest.raises(ValueError):
            validate_training_inputs(np.ones((3, 2)), np.ones(4))
        with pytest.raises(ValueError):
            validate_training_inputs(np.empty((0, 2)), np.empty(0))

    def test_label_checks(self):
        with pytest.raises(ValueError, match="binary"):
            validate_training_inputs(np.ones((2, 2)), np.array([0, 2]))

    def test_nan_rejected(self):
        bad = np.ones((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            validate_training_inputs(bad, np.array([0, 1]))


class TestMonotonicSVM:
    def test_learns_threshold_rule(self):
        X, y = threshold_dataset()
        model = MonotonicSVM(seed=1).fit(X, y)
        assert (model.predict(X) == y).mean() > 0.9

    def test_w_p_nonpositive(self):
        X, y = threshold_dataset()
        model = MonotonicSVM(seed=1).fit(X, y)
        assert model._w_parallelism <= 0.0

    def test_monotone_along_parallelism(self):
        X, y = threshold_dataset()
        model = MonotonicSVM(seed=1).fit(X, y)
        report = check_monotonicity(model, X[:50])
        assert report.is_monotone

    def test_probabilities_in_unit_interval(self):
        X, y = threshold_dataset()
        model = MonotonicSVM(seed=1).fit(X, y)
        probs = model.predict_proba(X)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_proba_increases_with_margin(self):
        X, y = threshold_dataset()
        model = MonotonicSVM(seed=1).fit(X, y)
        margins = model.decision_function(X)
        probs = model.predict_proba(X)
        order = np.argsort(margins)
        assert np.all(np.diff(probs[order]) >= -1e-12)

    def test_reports_how_the_solver_stopped(self, monkeypatch):
        X, y = threshold_dataset()
        model = MonotonicSVM()
        assert model.n_iterations_ is None and model.stop_message_ is None
        model.fit(X, y)
        assert 0 < model.n_iterations_ <= svm.EPOCHS
        # EPOCHS is L-BFGS-B's maxiter: a starved fit says so.
        monkeypatch.setattr(svm, "EPOCHS", 3)
        starved = MonotonicSVM().fit(X, y)
        assert starved.n_iterations_ == 3
        assert "ITERATIONS REACHED LIMIT" in starved.stop_message_

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MonotonicSVM().predict(np.ones((1, 3)))

    def test_a_fit_that_raises_leaves_the_fitted_model_unchanged(self):
        X, y = threshold_dataset()
        model = MonotonicSVM(seed=1).fit(X, y)
        before = model.predict_proba(X).tobytes()
        theta = model.solution_theta.tobytes()
        with pytest.raises(ValueError, match="theta0"):
            model.fit(X, y, theta0=np.zeros(5))
        with pytest.raises(ValueError, match="sample_weight"):
            model.fit(X, y, sample_weight=np.zeros(len(y)))
        assert model.predict_proba(X).tobytes() == before
        assert model.solution_theta.tobytes() == theta
        # The RFF draw did not advance either: a refit repeats a fresh one.
        refit = model.fit(X, y).solution_theta
        fresh = MonotonicSVM(seed=1)
        fresh.fit(X, y)
        assert refit.tobytes() == fresh.fit(X, y).solution_theta.tobytes()

    @staticmethod
    def assert_rejected_untouched(model, X, y, match, **kwargs):
        before = (model.predict_proba(X).tobytes(), model.solution_theta.tobytes())
        state = model._rng.bit_generator.state
        with pytest.raises(ValueError, match=match):
            model.fit(X, y, **kwargs)
        after = (model.predict_proba(X).tobytes(), model.solution_theta.tobytes())
        assert after == before
        assert model._rng.bit_generator.state == state

    def test_an_infinite_sample_weight_is_rejected(self):
        X, y = threshold_dataset()
        model = MonotonicSVM(seed=1).fit(X, y)
        weights = np.ones(len(y))
        weights[7] = np.inf
        self.assert_rejected_untouched(
            model, X, y, "sample_weight", sample_weight=weights
        )

    def test_a_nan_theta0_is_rejected(self):
        X, y = threshold_dataset()
        model = MonotonicSVM(seed=1).fit(X, y)
        theta0 = model.solution_theta.copy()
        theta0[3] = np.nan
        self.assert_rejected_untouched(model, X, y, "theta0", theta0=theta0)

    def test_a_misspelt_solver_option_is_rejected(self):
        X, y = threshold_dataset()
        model = MonotonicSVM(seed=1).fit(X, y)
        model.solver_options = {"ftol": 1e-7, "ftl": 1e-7}
        self.assert_rejected_untouched(model, X, y, "'ftl'")


def repeated_embedding_dataset(n, seed=3, dim=6):
    """``n`` rows over about n / 3 distinct embeddings, each repeated at
    several parallelisms, with positive multiplicities."""
    rng = np.random.default_rng(seed + n)
    distinct = rng.normal(size=(max(2, n // 3), dim)) * rng.uniform(0.1, 4.0, dim)
    h = distinct[rng.integers(0, len(distinct), n)]
    p = rng.integers(1, 40, n).astype(np.float64)
    y = (p < 10 + 8 * h[:, 0]).astype(int)
    y[:2] = (0, 1)
    return np.column_stack([h, p]), y, rng.integers(1, 9, n).astype(np.float64)


class TestFitBitIdentity:
    """The distinct-embedding fit reproduces the row-by-row reference
    (``tests/conftest.py::reference_svm_fit``) byte for byte."""

    @staticmethod
    def assert_identical(n, weighted=True, theta0=None, loose=False,
                         solver_options=None, rising=False):
        """Fit both ways and compare; returns the reference's message."""
        X, y, w = repeated_embedding_dataset(n)
        if rising:
            y = (X[:, -1] > 20).astype(int)
        kwargs = {"sample_weight": w} if weighted else {}
        models = [MonotonicSVM(seed=n), MonotonicSVM(seed=n)]
        for model in models:
            model.solver_options = solver_options
            if loose:
                model.platt_tol = 1e-7
                model.solver_options = {"ftol": 1e-7, "gtol": 1e-4}
        fitted = models[0].fit(X, y, theta0=theta0, **kwargs)
        theta, scale, offset, nit, message = reference_svm_fit(
            models[1], X, y, theta0=theta0, **kwargs
        )
        assert fitted.solution_theta.tobytes() == theta.tobytes()
        assert (fitted._platt_scale, fitted._platt_offset) == (scale, offset)
        assert (fitted.n_iterations_, fitted.stop_message_) == (nit, message)
        return theta, nit, message

    @pytest.mark.parametrize("n", range(40, 48))
    def test_weighted_repeated_embeddings_every_tail(self, n):
        self.assert_identical(n)

    @pytest.mark.parametrize("n", [7, 64, 301])
    def test_unweighted(self, n):
        self.assert_identical(n, weighted=False)

    def test_warm_start(self):
        theta0 = np.random.default_rng(0).normal(size=svm.N_FOURIER_FEATURES + 2)
        self.assert_identical(120, theta0=theta0)

    def test_loose_solver_options_with_platt_tol(self):
        self.assert_identical(200, loose=True)

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_iteration_limit_stop(self, monkeypatch, epochs):
        monkeypatch.setattr(svm, "EPOCHS", epochs)
        _, nit, message = self.assert_identical(90)
        assert nit == epochs
        assert message == "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"

    def test_active_parallelism_bound(self):
        # Bottlenecks that rise with p pull w_p above 0: the bound holds it.
        theta, _, _ = self.assert_identical(150, rising=True)
        assert theta[svm.N_FOURIER_FEATURES] == 0.0

    def test_relative_reduction_stop(self):
        _, _, message = self.assert_identical(150, solver_options={"ftol": 1e-2})
        assert message == "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH"

    def test_sigmoid_equals_the_masked_form(self):
        from repro.gnn.loss import sigmoid

        special = np.array([
            0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 709.0, -709.0,
            745.0, -745.0, 5e-324, -5e-324, 2.2e-310, -2.2e-310,
        ])
        draws = np.random.default_rng(1).normal(0.0, 30.0, 4099)
        for z in (special, draws, np.array(-1.25), np.array(3.5)):
            assert sigmoid(z).tobytes() == masked_sigmoid(z).tobytes()
            assert sigmoid(z).shape == z.shape



class TestMonotonicGBDT:
    def test_learns_threshold_rule(self):
        X, y = threshold_dataset()
        model = MonotonicGBDT().fit(X, y)
        assert (model.predict(X) == y).mean() > 0.95

    def test_monotone_along_parallelism(self):
        X, y = threshold_dataset()
        model = MonotonicGBDT().fit(X, y)
        report = check_monotonicity(model, X[:50])
        assert report.is_monotone

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_monotone_for_any_seed(self, seed):
        X, y = threshold_dataset(seed=seed, n=150)
        with mock.patch.object(gbdt, "N_ESTIMATORS", 25):
            model = MonotonicGBDT().fit(X, y)
        report = check_monotonicity(
            model, X[:10], parallelism_grid=np.linspace(0, 1, 11)
        )
        assert report.is_monotone

    def test_single_class_degenerates_gracefully(self):
        X = np.random.default_rng(0).uniform(size=(50, 3))
        model = MonotonicGBDT().fit(X, np.zeros(50))
        assert np.all(model.predict(X) == 0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MonotonicGBDT().predict_proba(np.ones((1, 3)))


class TestMLP:
    def test_learns_threshold_rule(self, monkeypatch):
        X, y = threshold_dataset()
        monkeypatch.setattr(mlp, "EPOCHS", 80)
        model = MLPClassifier(seed=1).fit(X, y)
        assert (model.predict(X) == y).mean() > 0.9

    def test_no_monotonicity_guarantee_enforced(self, monkeypatch):
        """The NN trains fine but nothing constrains it (Fig. 11a point)."""
        X, y = threshold_dataset()
        monkeypatch.setattr(mlp, "EPOCHS", 30)
        model = MLPClassifier(seed=1).fit(X, y)
        report = check_monotonicity(model, X[:30])
        assert report.n_probes > 0   # the probe itself runs; outcome is free

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MLPClassifier().predict_proba(np.ones((1, 3)))

    def test_invalid_hidden_dim(self):
        with pytest.raises(ValueError):
            MLPClassifier(hidden_dim=0)


class TestFactory:
    @pytest.mark.parametrize("kind,cls", [
        ("svm", MonotonicSVM),
        ("xgboost", MonotonicGBDT),
        ("nn", MLPClassifier),
    ])
    def test_known_kinds(self, kind, cls):
        assert isinstance(make_prediction_model(kind), cls)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_prediction_model("forest")


class TestMinFeasibleSearch:
    class StepModel:
        """Bottleneck iff normalised p < cut — ideal monotone predictor."""

        def __init__(self, cut: float) -> None:
            self.cut = cut

        def predict(self, rows: np.ndarray) -> np.ndarray:
            return (rows[:, -1] < self.cut).astype(np.int64)

        def predict_proba(self, rows: np.ndarray) -> np.ndarray:
            return np.where(rows[:, -1] < self.cut, 0.9, 0.1)

    def test_binary_search_matches_linear_scan(self):
        normalize = lambda p: p / 50  # noqa: E731
        for cut in (0.0, 0.12, 0.5, 0.99):
            model = self.StepModel(cut)
            expected = next(
                (p for p in range(1, 51) if model.predict(
                    np.array([[0.0, normalize(p)]]))[0] == 0),
                50,
            )
            found = min_feasible_parallelism(model, np.zeros(1), 50, normalize)
            assert found == expected

    def test_all_bottleneck_returns_p_max(self):
        model = self.StepModel(cut=2.0)
        assert min_feasible_parallelism(model, np.zeros(1), 30, lambda p: p / 30) == 30

    def test_probability_threshold_mode(self):
        model = self.StepModel(cut=0.5)
        found = min_feasible_parallelism(
            model, np.zeros(1), 50, lambda p: p / 50, probability_threshold=0.95
        )
        assert found == 1    # 0.9 < 0.95 everywhere -> never "bottleneck"

    def test_invalid_p_max(self):
        with pytest.raises(ValueError):
            min_feasible_parallelism(self.StepModel(0.5), np.zeros(1), 0, lambda p: p)


class TestGaussianProcess:
    def test_interpolates_observations(self, monkeypatch):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        y = 3.0 * x
        monkeypatch.setattr(gp, "NOISE_SHARE", 1e-8)
        model = GaussianProcess1D(length_scale=2.0).fit(x, y)
        mean, std = model.predict(x)
        assert np.allclose(mean, y, rtol=0.05)
        assert np.all(std < 1.0)

    def test_uncertainty_grows_off_data(self):
        x = np.array([1.0, 2.0, 3.0])
        gp = GaussianProcess1D(length_scale=1.0).fit(x, np.array([1.0, 2.0, 3.0]))
        _, near = gp.predict(np.array([2.0]))
        _, far = gp.predict(np.array([30.0]))
        assert far[0] > near[0]

    def test_lcb_below_mean(self):
        x = np.array([1.0, 5.0, 9.0])
        gp = GaussianProcess1D().fit(x, np.array([2.0, 3.0, 2.5]))
        grid = np.linspace(0, 12, 20)
        mean, _ = gp.predict(grid)
        lcb = gp.lower_confidence_bound(grid, alpha=3.0)
        assert np.all(lcb <= mean + 1e-12)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            GaussianProcess1D().predict(np.array([1.0]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            GaussianProcess1D(length_scale=0.0)
        with pytest.raises(ValueError):
            GaussianProcess1D().fit(np.array([1.0]), np.array([1.0, 2.0]))
