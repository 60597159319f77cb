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
from repro.models.base import group_rows, row_keys, validate_training_inputs
from repro.models.gp import GaussianProcess1D
from repro.models.search import min_feasible_parallelism
from tests.conftest import (
    check_monotonicity,
    masked_sigmoid,
    reference_find_best_split,
    reference_fit_platt,
    reference_newton_step,
    svm_projected_gradient,
)


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
        with pytest.raises(ValueError, match=r"got \[0\.0, 1\.0, nan\]"):
            validate_training_inputs(np.ones((3, 2)), np.array([1.0, np.nan, 0.0]))
        _, labels = validate_training_inputs(np.ones((2, 2)), np.array([True, False]))
        assert labels.tolist() == [1.0, 0.0]

    def test_nan_rejected(self):
        bad = np.ones((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            validate_training_inputs(bad, np.array([0, 1]))


#: 64-bit patterns that compare equal as floats but differ as bytes, or
#: not at all as floats: 0.0, -0.0, 1.0 and NaNs with several payloads.
SPECIAL_BITS = (0, 1 << 63, 0x3FF0000000000000, 0x7FF8000000000000,
                0x7FF8000000000001, 0x7FF0000000000001, 0xFFF8000000000000)


@st.composite
def repeated_rows(draw):
    """A float64 matrix (possibly zero columns wide) whose rows are drawn
    with repetition from a few distinct ones."""
    width = draw(st.integers(0, 4))
    bits = st.sampled_from(SPECIAL_BITS) | st.integers(0, 2**64 - 1)
    pool = draw(st.lists(st.lists(bits, min_size=width, max_size=width),
                         min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=30))
    rows = np.array([pool[i] for i in picks], dtype=np.uint64).reshape(len(picks), width)
    return rows.view(np.float64)


class TestGroupRows:
    @settings(max_examples=300, deadline=None)
    @given(repeated_rows())
    def test_matches_unique_over_row_keys(self, rows):
        reference = np.unique(row_keys(rows), return_index=True, return_inverse=True)[1:]
        # A fit passes a column slice, which is not contiguous.
        padded = np.column_stack([rows, np.ones(len(rows))])
        for grouped in (group_rows(rows), group_rows(padded[:, :-1])):
            for got, want in zip(grouped, reference):
                assert (got.dtype, got.shape) == (want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()

    def test_signed_zeros_and_nan_payloads_are_distinct_rows(self):
        bits = np.array([[0], [1 << 63], [0x7FF8000000000000], [0x7FF8000000000001], [0]],
                        dtype=np.uint64)
        first, inverse = group_rows(bits.view(np.float64))
        assert first.tolist() == [0, 1, 2, 3]
        assert inverse.tolist() == [0, 1, 2, 3, 0]


class TestMonotonicSVM:
    def test_learns_threshold_rule(self):
        X, y = threshold_dataset()
        model = MonotonicSVM(seed=1).fit(X, y)
        assert ((model.decision_function(X) >= 0.0) == y).mean() > 0.9

    def test_w_p_nonpositive(self):
        X, y = threshold_dataset()
        model = MonotonicSVM(seed=1).fit(X, y)
        assert model.solution_theta[svm.N_FOURIER_FEATURES] <= 0.0

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
        assert model.n_iterations_ is None and model.projected_gradient_ is None
        model.fit(X, y)
        assert 0 < model.n_iterations_ < svm.MAX_ITERATIONS
        assert model.projected_gradient_ <= svm.TOLERANCE
        # A solve that MAX_ITERATIONS stops reports a residual above TOLERANCE.
        monkeypatch.setattr(svm, "MAX_ITERATIONS", 2)
        starved = MonotonicSVM().fit(X, y)
        assert starved.n_iterations_ == 2
        assert starved.projected_gradient_ > svm.TOLERANCE

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MonotonicSVM().predict_proba(np.ones((1, 3)))

    def test_a_fit_that_raises_leaves_the_fitted_model_unchanged(self):
        X, y = threshold_dataset()
        model = MonotonicSVM(seed=1).fit(X, y)
        before = model.predict_proba(X).tobytes()
        theta = model.solution_theta.tobytes()
        with pytest.raises(ValueError, match="theta0"):
            model.fit(X, y, theta0=np.zeros(5))
        assert model.predict_proba(X).tobytes() == before
        assert model.solution_theta.tobytes() == theta
        # The RFF draw did not advance either: a refit repeats a fresh one.
        refit = model.fit(X, y).solution_theta
        fresh = MonotonicSVM(seed=1)
        fresh.fit(X, y)
        assert refit.tobytes() == fresh.fit(X, y).solution_theta.tobytes()

    @staticmethod
    def random_features(model):
        return model._rff_weights.tobytes() + model._rff_offsets.tobytes()

    @classmethod
    def assert_rejected_untouched(cls, model, X, y, match, **kwargs):
        def state():
            return (model.predict_proba(X).tobytes(), model.solution_theta.tobytes(),
                    cls.random_features(model))

        before = state()
        with pytest.raises(ValueError, match=match):
            model.fit(X, y, **kwargs)
        assert state() == before
        # Nothing was drawn: the next fit lifts into a fresh model's features.
        fresh = MonotonicSVM(seed=model.seed).fit(X, y)
        assert cls.random_features(model.fit(X, y)) == cls.random_features(fresh)

    def test_the_random_features_are_a_function_of_seed_and_width(self):
        X, y = threshold_dataset()
        model = MonotonicSVM(seed=1)
        first = self.random_features(model.fit(X, y))
        assert self.random_features(model.fit(X[::-1], y[::-1])) == first
        assert self.random_features(MonotonicSVM(seed=1).fit(X, y)) == first
        assert self.random_features(MonotonicSVM(seed=2).fit(X, y)) != first
        wider = np.column_stack([X[:, :1], X])
        assert model.fit(wider, y)._rff_weights.shape == (5, svm.N_FOURIER_FEATURES)
        # Fits share the draw, so none of them may write to it.
        assert not (model._rff_weights.flags.writeable or model._rff_offsets.flags.writeable)

    def test_a_nan_theta0_is_rejected(self):
        X, y = threshold_dataset()
        model = MonotonicSVM(seed=1).fit(X, y)
        theta0 = model.solution_theta.copy()
        theta0[3] = np.nan
        self.assert_rejected_untouched(model, X, y, "theta0", theta0=theta0)


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
    """A fit is a function of its training multiset: the rows in any order
    give the same bytes, and the solve ends at the optimum of the full-row
    objective (``tests/conftest.py::svm_projected_gradient``)."""

    @staticmethod
    def assert_identical(n, weighted=True, theta0=None, rising=False):
        """Fit the rows and a permutation of them; returns the solution."""
        X, y, w = repeated_embedding_dataset(n)
        if rising:
            y = (X[:, -1] > 20).astype(int)
        shuffle = np.random.default_rng(n).permutation(n)
        fits = [
            MonotonicSVM(seed=n).fit(
                X[rows], y[rows], theta0=theta0,
                sample_weight=w[rows] if weighted else None,
            )
            for rows in (np.arange(n), shuffle)
        ]
        assert fits[0].solution_theta.tobytes() == fits[1].solution_theta.tobytes()
        assert (fits[0]._platt_scale, fits[0]._platt_offset) == (
            fits[1]._platt_scale, fits[1]._platt_offset)
        assert fits[0].predict_proba(X).tobytes() == fits[1].predict_proba(X).tobytes()
        if fits[0].n_iterations_ < svm.MAX_ITERATIONS:
            assert fits[0].projected_gradient_ <= svm.TOLERANCE
            assert svm_projected_gradient(
                fits[0], X, y, w if weighted else None) <= svm.TOLERANCE
        return fits[0]

    @pytest.mark.parametrize("n", range(40, 48))
    def test_weighted_repeated_embeddings_every_tail(self, n):
        self.assert_identical(n)

    @pytest.mark.parametrize("n", [7, 64, 301])
    def test_unweighted(self, n):
        self.assert_identical(n, weighted=False)

    def test_warm_start(self):
        # A warm start changes the path, not the optimum.
        theta0 = np.random.default_rng(0).normal(size=svm.N_FOURIER_FEATURES + 2)
        warm = self.assert_identical(120, theta0=theta0).solution_theta
        cold = self.assert_identical(120).solution_theta
        assert np.linalg.norm(warm - cold) <= 1e-9 * np.linalg.norm(cold)

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_iteration_limit_stop(self, monkeypatch, epochs):
        monkeypatch.setattr(svm, "MAX_ITERATIONS", epochs)
        fitted = self.assert_identical(90)
        assert fitted.n_iterations_ == epochs
        assert fitted.projected_gradient_ > svm.TOLERANCE

    def test_active_parallelism_bound(self):
        # Bottlenecks that rise with p pull w_p above 0: the bound holds it.
        theta = self.assert_identical(150, rising=True).solution_theta
        assert theta[svm.N_FOURIER_FEATURES] == 0.0

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



@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(12, 260), warm=st.booleans())
def test_fit_equals_the_allocating_reference(seed, n, warm):
    # The buffered Platt loop and the run-boundary grouping of the Newton
    # step against their allocating forms in tests/conftest.py, cold and
    # warm-started from a fit on half the rows.
    X, y, w = repeated_embedding_dataset(n, seed=seed)
    theta0 = None
    if warm:
        half = max(2, n // 2)
        theta0 = MonotonicSVM(seed=seed).fit(X[:half], y[:half], sample_weight=w[:half])
        theta0 = theta0.solution_theta
    fits = [MonotonicSVM(seed=seed).fit(X, y, sample_weight=w, theta0=theta0)]
    with mock.patch.object(svm, "_newton_step", reference_newton_step), \
            mock.patch.object(MonotonicSVM, "_fit_platt", reference_fit_platt):
        fits.append(MonotonicSVM(seed=seed).fit(X, y, sample_weight=w, theta0=theta0))
    lean, reference = fits
    assert lean.solution_theta.tobytes() == reference.solution_theta.tobytes()
    assert np.float64(lean._platt_scale).tobytes() == np.float64(reference._platt_scale).tobytes()
    assert np.float64(lean._platt_offset).tobytes() == np.float64(reference._platt_offset).tobytes()
    assert lean.predict_proba(X).tobytes() == reference.predict_proba(X).tobytes()


class TestNewtonSolve:
    """The projected Newton solve's edge cases reach the same optimum."""

    @staticmethod
    def fit(X, y, w=None, theta0=None, seed=5):
        model = MonotonicSVM(seed=seed).fit(X, y, sample_weight=w, theta0=theta0)
        assert model.projected_gradient_ <= svm.TOLERANCE
        assert svm_projected_gradient(model, X, y, w) <= svm.TOLERANCE
        return model

    @staticmethod
    def assert_same_optimum(a, b):
        scale = np.linalg.norm(a.solution_theta)
        assert np.linalg.norm(a.solution_theta - b.solution_theta) <= 1e-9 * scale

    def test_no_active_row(self):
        # Started where every row clears its margin, the first Newton target
        # has no active row (the bias's Schur complement is 0): w goes to 0,
        # b stays, and the solve still ends at the cold start's optimum.
        X, y, w = repeated_embedding_dataset(60)
        y = (X[:, -1] < 20).astype(int)
        theta0 = np.zeros(svm.N_FOURIER_FEATURES + 2)
        theta0[-2:] = (-10.0, 200.0)    # score 200 - 10 p: +-10 at p = 19 / 21
        assert 20 not in X[:, -1]
        self.assert_same_optimum(self.fit(X, y, w), self.fit(X, y, w, theta0))

    def test_no_active_row_with_one_class(self):
        X, _, _ = repeated_embedding_dataset(30)
        theta0 = np.zeros(svm.N_FOURIER_FEATURES + 2)
        theta0[:4] = 0.01
        theta0[-1] = 5.0
        model = self.fit(X, np.ones(30, dtype=int), theta0=theta0)
        expected = np.zeros_like(theta0)
        expected[-1] = 5.0
        assert model.solution_theta.tobytes() == expected.tobytes()
        assert model.n_iterations_ == 1

    @pytest.mark.parametrize("rising", [False, True])
    def test_every_row_active_takes_the_primal_step(self, monkeypatch, rising):
        # A cold start has every row active.  Solving every step from the
        # primal system, or every step from the bordered row system, lands
        # on the default solve's optimum, with w_p pinned at 0 (rising) or not.
        X, y, w = repeated_embedding_dataset(240)
        if rising:
            y = (X[:, -1] > 20).astype(int)
        default = self.fit(X, y, w)
        assert len(y) > svm.DUAL_ROWS
        monkeypatch.setattr(svm, "DUAL_ROWS", 0)
        primal = self.fit(X, y, w)
        monkeypatch.setattr(svm, "DUAL_ROWS", 10**6)
        rows = self.fit(X, y, w)
        for other in (primal, rows):
            self.assert_same_optimum(default, other)
        for model in (default, primal, rows):
            assert (model.solution_theta[svm.N_FOURIER_FEATURES] == 0.0) == rising

    def test_a_step_that_would_leave_the_box_is_taken_with_w_p_held(self):
        # From theta = 0 the first free Newton step raises w_p above its
        # bound; the solve takes that step with w_p held at 0 instead of
        # stopping at the bound.
        X, _, w = repeated_embedding_dataset(29, seed=9)
        y = np.random.default_rng(9).integers(0, 2, 29)
        y[:2] = (0, 1)
        assert self.fit(X, y, w, seed=9).n_iterations_ < svm.MAX_ITERATIONS

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(5, 250),
           noise=st.booleans(), warm=st.booleans())
    def test_every_solve_ends_below_the_cap(self, seed, n, noise, warm):
        # Unnormalised p (1..39), label noise and random warm starts: the
        # solve still reaches TOLERANCE, whatever the conditioning.
        X, y, w = repeated_embedding_dataset(n, seed=seed)
        if noise:
            y = np.random.default_rng(seed).integers(0, 2, n)
        rng = np.random.default_rng(seed + 1)
        theta0 = rng.normal(size=svm.N_FOURIER_FEATURES + 2) if warm else None
        model = self.fit(X, y, w, theta0=theta0, seed=seed)
        assert model.n_iterations_ < svm.MAX_ITERATIONS

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(12, 150))
    def test_row_order_leaves_the_recommendation_unchanged(self, seed, n):
        X, y, w = repeated_embedding_dataset(n, seed=seed)
        order = np.random.default_rng(seed).permutation(n)
        fits = [
            MonotonicSVM(seed=seed).fit(X[rows], y[rows], sample_weight=w[rows])
            for rows in (np.arange(n), order)
        ]
        for embedding in np.unique(X[:, :-1], axis=0):
            degrees = {
                min_feasible_parallelism(
                    model, embedding, np.arange(1.0, 41.0), probability_threshold=0.35
                )
                for model in fits
            }
            assert len(degrees) == 1


def bad_weight(case, n):
    """One defect per case: a zero, an infinite or a NaN entry, or one
    weight too few."""
    if case == "length":
        return np.ones(n - 1)
    weights = np.ones(n)
    weights[7] = {"zero": 0.0, "infinite": np.inf, "nan": np.nan}[case]
    return weights


class TestSampleWeight:
    """Every layer takes ``sample_weight`` through one shared check."""

    @pytest.fixture(autouse=True)
    def short_training(self, monkeypatch):
        monkeypatch.setattr(gbdt, "N_ESTIMATORS", 5)
        monkeypatch.setattr(mlp, "EPOCHS", 5)

    @pytest.mark.parametrize("case", ["zero", "infinite", "nan", "length"])
    @pytest.mark.parametrize("kind", ["svm", "xgboost", "isotonic", "nn"])
    def test_a_bad_sample_weight_is_rejected_untouched(self, kind, case):
        X, y = threshold_dataset(n=120)
        model = make_prediction_model(kind, seed=1).fit(X, y)
        twin = make_prediction_model(kind, seed=1).fit(X, y)
        before = model.predict_proba(X).tobytes()
        with pytest.raises(ValueError, match="sample_weight"):
            model.fit(X, y, sample_weight=bad_weight(case, len(y)))
        assert model.predict_proba(X).tobytes() == before
        # No RNG advanced either: a refit repeats the twin's refit.
        assert (model.fit(X, y).predict_proba(X).tobytes()
                == twin.fit(X, y).predict_proba(X).tobytes())

    def test_gbdt_integer_weights_equal_tiled_rows(self):
        X, y = threshold_dataset(seed=8, n=60)
        k = np.random.default_rng(8).integers(1, 5, len(y))
        weighted = MonotonicGBDT().fit(X, y, sample_weight=k.astype(float))
        tiled = MonotonicGBDT().fit(np.repeat(X, k, axis=0), np.repeat(y, k))
        grid = threshold_dataset(seed=9, n=200)[0]
        assert np.abs(weighted.predict_proba(grid) - tiled.predict_proba(grid)).max() <= 1e-9


class TestMonotonicGBDT:
    def test_learns_threshold_rule(self):
        X, y = threshold_dataset()
        model = MonotonicGBDT().fit(X, y)
        assert ((model.predict_proba(X) >= 0.5) == y).mean() > 0.95

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

    def test_split_scan_equals_the_threshold_loop(self):
        # Tied values in three columns (p among them), so the scan must
        # skip the thresholds between equal values as the loop does; the
        # second column repeats the first, so their best gains tie and the
        # first feature must keep the split.
        rng = np.random.default_rng(4)
        first = rng.integers(0, 4, 240)
        X = np.column_stack([first, first, rng.uniform(size=240), rng.integers(1, 9, 240) / 8.0])
        # Label noise makes some splits on p rise, so the veto has work.
        y = ((X[:, -1] < 0.2 + 0.15 * X[:, 0]) ^ (rng.uniform(size=240) < 0.25)).astype(int)
        w = rng.uniform(0.2, 4.0, 240)
        with mock.patch.object(gbdt, "N_ESTIMATORS", 12):
            scan = MonotonicGBDT().fit(X, y, sample_weight=w)
            with mock.patch.object(MonotonicGBDT, "_find_best_split", reference_find_best_split):
                loop = MonotonicGBDT().fit(X, y, sample_weight=w)
        assert repr(scan._trees) == repr(loop._trees)
        assert scan.predict_proba(X).tobytes() == loop.predict_proba(X).tobytes()

    def test_single_class_degenerates_gracefully(self):
        X = np.random.default_rng(0).uniform(size=(50, 3))
        model = MonotonicGBDT().fit(X, np.zeros(50))
        assert np.all(model.predict_proba(X) < 0.5)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MonotonicGBDT().predict_proba(np.ones((1, 3)))


class TestMLP:
    def test_learns_threshold_rule(self, monkeypatch):
        X, y = threshold_dataset()
        monkeypatch.setattr(mlp, "EPOCHS", 80)
        model = MLPClassifier(seed=1).fit(X, y)
        assert ((model.predict_proba(X) >= 0.5) == y).mean() > 0.9

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

        def predict_proba(self, rows: np.ndarray) -> np.ndarray:
            return np.where(rows[:, -1] < self.cut, 0.9, 0.1)

    def test_binary_search_matches_linear_scan(self):
        normalize = lambda p: p / 50  # noqa: E731
        for cut in (0.0, 0.12, 0.5, 0.99):
            model = self.StepModel(cut)
            expected = next(
                (p for p in range(1, 51) if model.predict_proba(
                    np.array([[0.0, normalize(p)]]))[0] < 0.5),
                50,
            )
            norms = np.array([normalize(p) for p in range(1, 51)])
            found = min_feasible_parallelism(model, np.zeros(1), norms, 0.5)
            assert found == expected

    def test_all_bottleneck_returns_p_max(self):
        model = self.StepModel(cut=2.0)
        norms = np.arange(1, 31) / 30
        assert min_feasible_parallelism(model, np.zeros(1), norms, 0.5) == 30

    def test_probability_threshold_mode(self):
        model = self.StepModel(cut=0.5)
        found = min_feasible_parallelism(
            model, np.zeros(1), np.arange(1, 51) / 50, probability_threshold=0.95
        )
        assert found == 1    # 0.9 < 0.95 everywhere -> never "bottleneck"

    def test_invalid_p_max(self):
        with pytest.raises(ValueError):
            min_feasible_parallelism(self.StepModel(0.5), np.zeros(1), np.empty(0), 0.5)


class TestProfileFastPath:
    """``MonotonicSVM.proba_profile`` — the one-lift sweep the tuner's
    search takes — against the materialised ``[h, p]`` rows."""

    class RowsOnly:
        """The model behind ``predict_proba`` alone, so the search takes
        its row path."""

        def __init__(self, model) -> None:
            self.predict_proba = model.predict_proba

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(12, 120))
    def test_profile_agrees_with_predict_proba_on_rows(self, seed, n):
        # Not byte-equal: the lift's matrix product rounds one row apart
        # from forty, so the paths differ by a few ulps (at most 4.6e-15
        # over 8 418 random fits of this dataset).  A real fault moves a
        # probability by far more than the bound.
        X, y, w = repeated_embedding_dataset(n, seed=seed)
        model = MonotonicSVM(seed=seed).fit(X, y, sample_weight=w)
        norms = np.arange(1, 41, dtype=np.float64)
        for embedding in np.unique(X[:, :-1], axis=0):
            rows = np.column_stack([np.tile(embedding, (len(norms), 1)), norms])
            profile = model.proba_profile(embedding, norms)
            assert np.abs(profile - model.predict_proba(rows)).max() <= 1e-13

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(12, 120),
        threshold=st.floats(0.05, 0.95),
    )
    def test_search_returns_the_same_degree_on_both_paths(self, seed, n, threshold):
        X, y, w = repeated_embedding_dataset(n, seed=seed)
        model = MonotonicSVM(seed=seed).fit(X, y, sample_weight=w)
        for embedding in np.unique(X[:, :-1], axis=0):
            degrees = [
                min_feasible_parallelism(candidate, embedding, np.arange(1.0, 41.0), threshold)
                for candidate in (model, self.RowsOnly(model))
            ]
            assert degrees[0] == degrees[1]


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
