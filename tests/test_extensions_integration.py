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
from repro.engines import ClusterTopology, FlinkCluster, SchedulingAwareTimely
from repro.workloads import nexmark_queries, nexmark_query


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
        assert matrix.shape[1] == encoder.dimension


class TestSchedulingAwareEndToEnd:
    def _tune_on(self, engine, query, pretrained, multiplier=4):
        tuner = StreamTuneTuner(engine, pretrained, seed=25, max_iterations=6)
        tuner.prepare(query)
        deployment = engine.deploy(
            query.flow,
            dict.fromkeys(query.flow.operator_names, 1),
            query.rates_at(1),
        )
        result = tuner.tune(deployment, query.rates_at(multiplier))
        final = engine.measure(deployment)
        total = deployment.total_parallelism()
        engine.stop(deployment)
        return result, final, total

    def test_tuner_clears_backpressure_under_contention(self, timely_pretrained_tiny):
        query = nexmark_query("q3", "timely")
        engine = SchedulingAwareTimely(
            topology=ClusterTopology.uniform(2, 32), strategy="spread", seed=19
        )
        result, final, _ = self._tune_on(engine, query, timely_pretrained_tiny)
        assert result.steps
        assert not final.has_backpressure

    def test_compact_placement_never_needs_less_parallelism(
        self, timely_pretrained_tiny
    ):
        """Feedback-driven tuning absorbs placement contention: the
        compact strategy's final configuration is at least as large as
        spread's (strictly larger once the topology is tight)."""
        query = nexmark_query("q3", "timely")
        totals = {}
        for strategy in ("spread", "compact"):
            engine = SchedulingAwareTimely(
                topology=ClusterTopology.uniform(2, 6),
                strategy=strategy,
                seed=19,
            )
            _, final, total = self._tune_on(
                engine, query, timely_pretrained_tiny, multiplier=3
            )
            totals[strategy] = total
        assert totals["compact"] >= totals["spread"]


@pytest.fixture(scope="module")
def timely_pretrained_tiny():
    from repro.engines import TimelyCluster

    engine = TimelyCluster(seed=6)
    corpus = nexmark_queries("timely")
    records = HistoryGenerator(engine, seed=8).generate(corpus, 150)
    return pretrain(
        records, max_parallelism=engine.max_parallelism,
        n_clusters=1, epochs=4, seed=9,
    )
