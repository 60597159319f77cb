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
from tests.conftest import check_monotonicity


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
