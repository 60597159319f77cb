"""End-to-end integration of the §VII extension features.

Each test drives the *full* StreamTune pipeline (pre-train -> assign ->
fine-tune -> redeploy) with one extension swapped in, proving the
extensions compose with the paper's core loop rather than existing beside
it.
"""

from __future__ import annotations

import pytest

from repro.core import StreamTuneTuner, pretrain
from repro.core.history import HistoryGenerator
from repro.dataflow.embeddings import SemanticFeatureEncoder
from repro.engines import FlinkCluster
from repro.workloads import nexmark_queries, nexmark_query
from tests.conftest import feature_dimension


@pytest.fixture(scope="module")
def semantic_pretrained(tiny_history_module):
    return pretrain(
        tiny_history_module[:150],
        max_parallelism=100,
        n_clusters=1,
        epochs=4,
        seed=5,
        feature_encoder=SemanticFeatureEncoder(),
    )


@pytest.fixture(scope="module")
def tiny_history_module():
    engine = FlinkCluster(seed=3)
    corpus = nexmark_queries("flink")
    return HistoryGenerator(engine, seed=4).generate(corpus, 200)


class TestIsotonicLayerEndToEnd:
    def test_tunes_a_query_without_backpressure_loop(self, tiny_pretrained):
        engine = FlinkCluster(seed=9)
        query = nexmark_query("q2", "flink")
        tuner = StreamTuneTuner(
            engine, tiny_pretrained, model_kind="isotonic", seed=21
        )
        tuner.prepare(query)
        deployment = engine.deploy(
            query.flow,
            dict.fromkeys(query.flow.operator_names, 1),
            query.rates_at(3),
        )
        result = tuner.tune(deployment, query.rates_at(8))
        assert result.steps, "tuner must take at least one step"
        final = engine.measure(deployment)
        assert not final.has_backpressure
        engine.stop(deployment)

    def test_recommendations_within_engine_bounds(self, tiny_pretrained):
        engine = FlinkCluster(seed=13)
        query = nexmark_query("q5", "flink")
        tuner = StreamTuneTuner(
            engine, tiny_pretrained, model_kind="isotonic", seed=22
        )
        tuner.prepare(query)
        deployment = engine.deploy(
            query.flow,
            dict.fromkeys(query.flow.operator_names, 1),
            query.rates_at(2),
        )
        result = tuner.tune(deployment, query.rates_at(6))
        for parallelisms in (step.parallelisms for step in result.steps):
            for degree in parallelisms.values():
                assert 1 <= degree <= engine.max_parallelism
        engine.stop(deployment)


class TestSemanticEncoderEndToEnd:
    def test_full_loop_with_semantic_features(self, semantic_pretrained):
        engine = FlinkCluster(seed=17)
        query = nexmark_query("q1", "flink")
        tuner = StreamTuneTuner(engine, semantic_pretrained, seed=23)
        tuner.prepare(query)
        deployment = engine.deploy(
            query.flow,
            dict.fromkeys(query.flow.operator_names, 1),
            query.rates_at(3),
        )
        result = tuner.tune(deployment, query.rates_at(7))
        assert result.steps
        assert not engine.measure(deployment).has_backpressure
        engine.stop(deployment)

    def test_embeddings_have_semantic_dimension(self, semantic_pretrained):
        encoder = semantic_pretrained.feature_encoder
        assert isinstance(encoder, SemanticFeatureEncoder)
        query = nexmark_query("q1", "flink")
        matrix, _ = encoder.encode_dataflow(query.flow, query.rates_at(1))
        assert matrix.shape[1] == feature_dimension(encoder)
