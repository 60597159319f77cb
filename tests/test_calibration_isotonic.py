"""Tests for the isotonic k-NN model."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import make_prediction_model
from repro.models import isotonic
from repro.models.isotonic import IsotonicKNN, pav_antitonic, step_interpolate
from repro.utils.rng import seeded_rng
from tests.conftest import check_monotonicity


def threshold_dataset(
    n: int = 240, boundary: float = 0.45, seed: int = 4
) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic M_f data: bottleneck iff p below an h-dependent boundary."""
    rng = seeded_rng(seed)
    h = rng.uniform(0.0, 1.0, size=(n, 3))
    p = rng.uniform(0.0, 1.0, size=n)
    cutoff = boundary * (0.5 + h[:, 0])
    labels = (p < cutoff).astype(np.float64)
    features = np.column_stack([h, p])
    return features, labels


class TestPavAntitonic:
    def test_already_decreasing_is_unchanged(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([0.9, 0.5, 0.1])
        knots, fitted = pav_antitonic(x, y)
        assert np.allclose(fitted, y)

    def test_increasing_input_is_pooled_flat(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([0.1, 0.5, 0.9])
        _, fitted = pav_antitonic(x, y)
        assert np.allclose(fitted, 0.5)

    def test_result_is_always_non_increasing(self):
        rng = seeded_rng(9)
        x = rng.uniform(size=50)
        y = rng.uniform(size=50)
        _, fitted = pav_antitonic(x, y)
        assert np.all(np.diff(fitted) <= 1e-12)

    def test_duplicate_positions_pooled_by_weight(self):
        x = np.array([1.0, 1.0, 2.0])
        y = np.array([0.0, 1.0, 0.2])
        w = np.array([1.0, 3.0, 1.0])
        knots, fitted = pav_antitonic(x, y, w)
        assert len(knots) == 2
        assert fitted[0] == pytest.approx(0.75)   # (0*1 + 1*3) / 4

    def test_weighted_pooling_respects_weights(self):
        x = np.array([1.0, 2.0])
        y = np.array([0.0, 1.0])     # violates antitonicity -> pooled
        w = np.array([3.0, 1.0])
        _, fitted = pav_antitonic(x, y, w)
        assert np.allclose(fitted, 0.25)   # weighted mean

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pav_antitonic(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            pav_antitonic(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            pav_antitonic(np.array([1.0]), np.array([1.0]), np.array([0.0]))

    def test_mean_is_preserved(self):
        """PAV is a projection: the weighted mean of the fit equals the data's."""
        rng = seeded_rng(3)
        x = np.arange(20.0)
        y = rng.uniform(size=20)
        knots, fitted = pav_antitonic(x, y)
        assert float(fitted.mean()) == pytest.approx(float(y.mean()))


class TestStepInterpolate:
    def test_clamps_outside_range(self):
        knots = np.array([0.2, 0.8])
        fitted = np.array([0.9, 0.1])
        assert step_interpolate(0.0, knots, fitted) == pytest.approx(0.9)
        assert step_interpolate(1.0, knots, fitted) == pytest.approx(0.1)

    def test_interpolates_between_knots(self):
        knots = np.array([0.0, 1.0])
        fitted = np.array([1.0, 0.0])
        assert step_interpolate(0.25, knots, fitted) == pytest.approx(0.75)

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            step_interpolate(0.5, np.array([]), np.array([]))


class TestIsotonicKNN:
    def test_learns_threshold_surface(self):
        features, labels = threshold_dataset()
        model = IsotonicKNN(seed=2).fit(features, labels)
        predictions = model.predict_proba(features) >= 0.5
        accuracy = float((predictions == labels).mean())
        assert accuracy > 0.85

    def test_monotone_in_parallelism_by_construction(self):
        features, labels = threshold_dataset(seed=6)
        model = IsotonicKNN(seed=2).fit(features, labels)
        report = check_monotonicity(model, features[:40])
        assert report.is_monotone

    def test_predict_proba_within_unit_interval(self):
        features, labels = threshold_dataset(seed=7)
        model = IsotonicKNN(seed=2).fit(features, labels)
        probabilities = model.predict_proba(features)
        assert np.all(probabilities >= 0.0)
        assert np.all(probabilities <= 1.0)

    def test_single_row_prediction_shape(self):
        features, labels = threshold_dataset()
        model = IsotonicKNN().fit(features, labels)
        single = model.predict_proba(features[0])
        assert single.shape == (1,)

    def test_prior_anchors_dominate_single_class_neighbourhoods(self, monkeypatch):
        """An all-negative dataset still predicts bottleneck at p=0."""
        monkeypatch.setattr(isotonic, "PRIOR_WEIGHT", 0.5)
        rng = seeded_rng(1)
        features = np.column_stack(
            [rng.uniform(size=(30, 2)), rng.uniform(0.5, 1.0, size=30)]
        )
        labels = np.zeros(30)
        model = IsotonicKNN().fit(features, labels)
        at_zero = model.predict_proba(np.array([[0.5, 0.5, 0.0]]))[0]
        at_one = model.predict_proba(np.array([[0.5, 0.5, 1.0]]))[0]
        assert at_zero > at_one

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="before fit"):
            IsotonicKNN().predict_proba(np.zeros((1, 3)))

    def test_rejects_bad_fit_inputs(self):
        model = IsotonicKNN()
        with pytest.raises(ValueError):
            model.fit(np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(ValueError):
            model.fit(np.zeros((4, 1)), np.zeros(4))
        with pytest.raises(ValueError):
            model.fit(np.zeros((4, 3)), np.zeros(5))

    def test_factory_constructs_isotonic(self):
        model = make_prediction_model("isotonic")
        assert isinstance(model, IsotonicKNN)

    def test_works_inside_min_feasible_search(self):
        from repro.models.search import min_feasible_parallelism

        features, labels = threshold_dataset(seed=11)
        model = IsotonicKNN(seed=2).fit(features, labels)
        embedding = features[0, :-1]
        degree = min_feasible_parallelism(model, embedding, np.arange(1, 101) / 100.0, 0.35)
        assert 1 <= degree <= 100


@settings(max_examples=25, deadline=None)
@given(
    p_query=st.floats(min_value=0.0, max_value=1.0),
    p_higher=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=50),
)
def test_isotonic_probability_never_rises_with_parallelism(p_query, p_higher, seed):
    features, labels = threshold_dataset(n=120, seed=seed)
    with mock.patch.object(isotonic, "N_NEIGHBORS", 15):
        model = IsotonicKNN(seed=3).fit(features, labels)
        low, high = sorted([p_query, p_higher])
        embedding = features[seed % len(features), :-1]
        prob_low = model.predict_proba(np.concatenate([embedding, [low]]))[0]
        prob_high = model.predict_proba(np.concatenate([embedding, [high]]))[0]
    assert prob_high <= prob_low + 1e-9
