"""Tests for warm-up datasets, distillation, and the Algorithm 2 tuner."""

from __future__ import annotations

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import CampaignPlan, TuningSession
from repro.core.finetune import (
    DISTILLATION_GRID,
    PredictionDataset,
    build_warmup_dataset,
    distill_rows,
)
from repro.core.tuner import (
    MAX_CLASS_IMBALANCE,
    StreamTuneTuner,
    _ConstantModel,
)
from repro.engines.flink import FlinkCluster
from repro.models import make_prediction_model
from repro.workloads.nexmark import nexmark_query
from repro.core import tuner as tuner_module
from tests.conftest import reference_t_assembly, rows_from_record


class TestPredictionDataset:
    def test_append_and_matrices(self):
        ds = PredictionDataset()
        ds.append(np.array([1.0, 0.5]), 1)
        ds.append(np.array([0.0, 0.9]), 0)
        X, y = ds.matrices()
        assert X.shape == (2, 2)
        assert list(y) == [1, 0]

    def test_rejects_undefined_labels(self):
        ds = PredictionDataset()
        with pytest.raises(ValueError):
            ds.append(np.zeros(2), -1)

    def test_empty_matrices_rejected(self):
        with pytest.raises(ValueError):
            PredictionDataset().matrices()

    def test_extend_and_class_balance(self):
        a = PredictionDataset()
        a.append(np.zeros(2), 1)
        b = PredictionDataset()
        b.append(np.ones(2), 0)
        a.extend(b)
        assert len(a) == 2
        assert sorted(a.labels) == [0, 1]


class TestWarmup:
    def test_rows_from_record_uses_labelled_only(self, tiny_pretrained, tiny_history):
        record = next(r for r in tiny_history if 0 < r.n_labelled < len(r.labels))
        encoder = tiny_pretrained.encoders[
            tiny_pretrained.assign_cluster(record.flow)
        ]
        rows = rows_from_record(tiny_pretrained, encoder, record)
        assert len(rows) == record.n_labelled

    def test_feature_layout(self, tiny_pretrained, tiny_history):
        record = next(r for r in tiny_history if r.n_labelled > 0)
        encoder = tiny_pretrained.encoders[
            tiny_pretrained.assign_cluster(record.flow)
        ]
        rows = rows_from_record(tiny_pretrained, encoder, record)
        X, _ = rows.matrices()
        embedding_dim = tiny_pretrained.encoders[0].config.embedding_dim
        assert X.shape[1] == embedding_dim + 1
        assert np.all((X[:, -1] >= 0) & (X[:, -1] <= 1))

    def test_warmup_dataset_nonempty(self, tiny_pretrained):
        ds = build_warmup_dataset(tiny_pretrained, 0, max_rows=200, seed=1)
        assert len(ds) > 0

    def test_warmup_cluster_bounds(self, tiny_pretrained):
        with pytest.raises(ValueError):
            build_warmup_dataset(tiny_pretrained, 99)

    def test_distill_rows_cover_grid(self, tiny_pretrained, corpus):
        query = corpus[0]
        cluster, encoder = tiny_pretrained.encoder_for(query.flow)
        rows = distill_rows(
            tiny_pretrained, encoder, query.flow, query.rates_at(5)
        )
        valid_grid = [p for p in DISTILLATION_GRID if p <= 100]
        assert len(rows) == len(valid_grid) * len(query.flow)


class TestConstantModel:
    def test_constant_predictions(self):
        rows = np.zeros((3, 4))
        assert list(_ConstantModel(1.0).predict_proba(rows)) == [1.0, 1.0, 1.0]
        assert list(_ConstantModel(0.0).predict_proba(rows)) == [0.0, 0.0, 0.0]


class TestStreamTuneTuner:
    @pytest.fixture
    def setup(self, tiny_pretrained, monkeypatch):
        monkeypatch.setattr(StreamTuneTuner, "max_rounds", 6)
        engine = FlinkCluster(seed=31)
        tuner = StreamTuneTuner(engine, tiny_pretrained, seed=32)
        query = nexmark_query("q2", "flink")
        return engine, tuner, query

    def test_tune_produces_steps(self, setup):
        engine, tuner, query = setup
        tuner.prepare(query)
        deployment = engine.deploy(
            query.flow, dict.fromkeys(query.flow.operator_names, 1),
            query.rates_at(3),
        )
        result = tuner.tune(deployment, query.rates_at(3))
        assert result.steps
        assert result.tuner_name == "StreamTune"
        assert all(
            1 <= p <= engine.max_parallelism
            for step in result.steps
            for p in step.parallelisms.values()
        )

    def test_backpressure_eventually_cleared(self, setup):
        engine, tuner, query = setup
        tuner.prepare(query)
        deployment = engine.deploy(
            query.flow, dict.fromkeys(query.flow.operator_names, 1),
            query.rates_at(5),
        )
        tuner.tune(deployment, query.rates_at(5))
        final = engine.measure(deployment)
        assert not final.has_backpressure

    def test_feedback_accumulates(self, setup):
        engine, tuner, query = setup
        tuner.prepare(query)
        deployment = engine.deploy(
            query.flow, dict.fromkeys(query.flow.operator_names, 1),
            query.rates_at(3),
        )
        tuner.tune(deployment, query.rates_at(3))
        first = len(tuner._feedback)
        tuner.tune(deployment, query.rates_at(7))
        assert len(tuner._feedback) > first

    def test_prepare_idempotent(self, setup):
        engine, tuner, query = setup
        tuner.prepare(query)
        dataset = tuner._warmup
        tuner.prepare(query)
        assert tuner._warmup is dataset

    def test_a_prepared_tuner_refuses_another_query(self, setup):
        # A tuner serves one campaign: another query's T is not its own.
        engine, tuner, query = setup
        tuner.prepare(query)
        other = nexmark_query("q5", "flink")
        deployment = engine.deploy(
            other.flow, dict.fromkeys(other.flow.operator_names, 1),
            other.rates_at(3),
        )
        with pytest.raises(ValueError, match="one tuner per query"):
            tuner.tune(deployment, other.rates_at(3))
        with pytest.raises(ValueError, match="one tuner per query"):
            tuner.prepare(other)

    def test_distill_and_embed_are_looked_up_once_per_process(self, tiny_pretrained):
        # A process's target rates are fixed, so its distilled rows and
        # embeddings are looked up on its first round only.
        plan = CampaignPlan(
            queries=("q2", "q5"), rates=(3.0, 7.0, 4.0),
            backend="sequential", scale="smoke", seed=41,
        )
        result = TuningSession(pretrained=tiny_pretrained).run(plan)
        processes = [
            process for outcome in result.outcomes
            for process in outcome.processes
        ]
        assert sum(len(process.steps) for process in processes) > len(processes)
        for kind in ("distill", "embed"):
            stats = result.cache_stats[kind]
            assert stats["hits"] + stats["misses"] == len(processes), kind

    def test_unprepared_query_lazily_initialised(self, setup, tiny_pretrained):
        engine, _, query = setup
        tuner = StreamTuneTuner(engine, tiny_pretrained, seed=33)
        deployment = engine.deploy(
            query.flow, dict.fromkeys(query.flow.operator_names, 1),
            query.rates_at(2),
        )
        result = tuner.tune(deployment, query.rates_at(2))
        assert result.steps

    def test_empty_training_set_degrades_to_a_constant_model(self, setup):
        # A cluster whose sampled records carry only -1 labels leaves T
        # empty; the fit answers with a constant model.
        _, tuner, _ = setup
        empty = PredictionDataset()
        tuner._feedback, tuner._warmup = empty, empty
        model = tuner._fit_model(empty, 4)
        assert isinstance(model, _ConstantModel)
        assert list(model.predict_proba(np.zeros((2, 3)))) == [0.0, 0.0]

    @pytest.mark.parametrize("kind", ["svm", "xgboost", "isotonic", "nn"])
    def test_every_layer_fits_weighted_unique_rows(self, setup, monkeypatch, kind):
        # Recurring rows collapse onto one weighted row and the minority
        # class is scaled up to exactly MAX_CLASS_IMBALANCE:1, whatever
        # the layer; only the SVM is handed a warm start.
        _, tuner, _ = setup
        fits = []

        def fit(model, features, labels, sample_weight=None, **kwargs):
            fits.append((features, labels, sample_weight, kwargs))
            return model

        monkeypatch.setattr(tuner, "model_kind", kind)
        monkeypatch.setattr(type(make_prediction_model(kind)), "fit", fit)
        rows = np.random.default_rng(0).uniform(size=(12, 3))
        warmup = PredictionDataset()
        for index, row in enumerate(rows):
            warmup.append(row, int(index == 0))
            warmup.append(row, int(index == 0))       # every row twice
        monkeypatch.setattr(tuner, "_query", "job")
        empty = PredictionDataset()
        tuner._feedback, tuner._warmup = empty, warmup
        tuner._fit_model(empty, 4)
        [(features, labels, weights, kwargs)] = fits
        assert features.tobytes() == rows.tobytes()
        assert list(labels) == [1] + [0] * 11
        assert weights[0] * MAX_CLASS_IMBALANCE == pytest.approx(weights[1:].sum())
        assert list(weights[1:]) == [2.0] * 11
        assert kwargs == ({"theta0": None} if kind == "svm" else {})


#: Rows the T-assembly property draws from: two differ only in the sign
#: of a zero (equal as floats, distinct as bytes) and two only in p.
POOL = np.array([
    [0.0, 1.0, 0.25], [-0.0, 1.0, 0.25], [0.5, 2.0, 0.25], [0.5, 2.0, 0.5], [3.0, 1.0, 1.0],
])
PAIRS = st.lists(
    st.tuples(st.integers(0, len(POOL) - 1), st.integers(0, 1)), min_size=1, max_size=10
)


class _Recorder:
    """A prediction layer that keeps what it is fitted on."""

    def fit(self, features, labels, sample_weight=None):
        self.fitted = (features, labels, sample_weight)
        return self


def _pairs_dataset(pairs) -> PredictionDataset:
    dataset = PredictionDataset()
    for index, label in pairs:
        dataset.append(POOL[index].copy(), label)
    return dataset


@settings(max_examples=150, deadline=None)
@given(prior=PAIRS, observed=PAIRS, warm=PAIRS, prior_weight=st.integers(1, 4))
def test_t_equals_the_dict_assembly(prior, observed, warm, prior_weight):
    # Every set repeats its first pair, and the warm-up also holds the
    # first prior pair and the first feedback pair.
    prior, observed = prior + prior[:1], observed + observed[:1]
    warm = warm + warm[:1] + prior[:1] + observed[:1]
    operating_point, feedback, warmup = map(_pairs_dataset, (prior, observed, warm))
    expected = reference_t_assembly(operating_point, feedback, warmup, prior_weight, 10)
    fake = SimpleNamespace(
        observed_weight=10, model_kind="svm", seed=0, _query="job", _warm_theta=None,
        _feedback=feedback, _warmup=warmup,
    )
    with mock.patch.object(tuner_module, "make_prediction_model", lambda *_, **__: _Recorder()):
        # The second refit reads the warm-up pairs the first one kept.
        for _ in range(2):
            model = StreamTuneTuner._fit_model(fake, operating_point, prior_weight)
            if expected is None:
                assert isinstance(model, _ConstantModel)
                continue
            features, labels, weights = model.fitted
            assert features.shape == expected[0].shape
            assert features.tobytes() == expected[0].tobytes()
            assert labels.tolist() == expected[1].tolist()
            assert weights.tobytes() == expected[2].tobytes()


class TestTuningResultAccounting:
    def test_result_metrics(self, tiny_pretrained):
        engine = FlinkCluster(seed=41)
        tuner = StreamTuneTuner(engine, tiny_pretrained, seed=42)
        query = nexmark_query("q1", "flink")
        tuner.prepare(query)
        deployment = engine.deploy(
            query.flow, dict.fromkeys(query.flow.operator_names, 1),
            query.rates_at(4),
        )
        result = tuner.tune(deployment, query.rates_at(4))
        assert result.n_reconfigurations <= len(result.steps)
        assert result.recommendation_seconds > 0
        minutes = result.tuning_minutes(10.0)
        assert minutes >= result.n_reconfigurations * 10.0
        assert len(result.cpu_trace()) == len(result.steps)
        assert result.final_parallelisms == result.steps[-1].parallelisms
