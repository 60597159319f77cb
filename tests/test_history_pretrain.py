"""Tests for execution histories and the pre-training pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering.kmeans import GEDKMeans
from repro.core.history import ExecutionRecord, HistoryGenerator
from repro.core.pretrain import pretrain
from repro.engines import flink
from repro.engines.flink import FlinkCluster
from repro.workloads.nexmark import nexmark_queries


class TestHistoryGenerator:
    def test_record_fields_populated(self, tiny_history):
        record = tiny_history[0]
        assert record.engine_name == "flink"
        assert set(record.parallelisms) == set(record.flow.operator_names)
        assert set(record.labels) == set(record.flow.operator_names)
        assert record.job_latency_seconds > 0

    def test_parallelism_in_paper_range(self, tiny_history):
        for record in tiny_history[:100]:
            for p in record.parallelisms.values():
                assert 1 <= p <= 60

    def test_rates_inside_band(self, tiny_history):
        for record in tiny_history[:100]:
            # rates are multiplier * Wu with multiplier in (1, 10)
            assert all(rate > 0 for rate in record.source_rates.values())

    def test_labels_are_valid(self, tiny_history):
        for record in tiny_history[:200]:
            assert set(record.labels.values()) <= {-1, 0, 1}

    def test_some_bottlenecks_found(self, tiny_history):
        assert sum(r.n_bottlenecks for r in tiny_history) > 0

    def test_no_backpressure_means_all_zero(self, tiny_history):
        for record in tiny_history[:200]:
            if not record.has_backpressure:
                assert set(record.labels.values()) == {0}

    def test_deterministic_by_seed(self):
        queries = nexmark_queries("flink")
        a = HistoryGenerator(FlinkCluster(seed=5), seed=6).generate(queries, 20)
        b = HistoryGenerator(FlinkCluster(seed=5), seed=6).generate(queries, 20)
        for ra, rb in zip(a, b):
            assert ra.parallelisms == rb.parallelisms
            assert ra.labels == rb.labels

    def test_invalid_args(self):
        generator = HistoryGenerator(FlinkCluster(seed=1))
        with pytest.raises(ValueError):
            generator.generate([], 10)
        with pytest.raises(ValueError):
            generator.generate(nexmark_queries("flink"), 0)

    def test_range_capped_by_engine(self, monkeypatch):
        monkeypatch.setattr(flink, "TASK_MANAGERS", 5)
        engine = FlinkCluster(seed=1)
        generator = HistoryGenerator(engine, seed=2)
        record = generator.run_once(nexmark_queries("flink")[0])
        assert max(record.parallelisms.values()) <= 10


class TestRecordSerde:
    def test_round_trip(self, tiny_history):
        record = tiny_history[0]
        restored = ExecutionRecord.from_dict(record.to_dict())
        assert restored.parallelisms == record.parallelisms
        assert restored.labels == record.labels
        assert restored.flow.structural_signature() == record.flow.structural_signature()
        assert restored.job_latency_seconds == record.job_latency_seconds


class TestPretrain:
    def test_artifact_shape(self, tiny_pretrained):
        assert tiny_pretrained.n_clusters == 2
        assert len(tiny_pretrained.encoders) == 2
        assert len(tiny_pretrained.records_by_cluster) == 2

    def test_cluster_assignment_valid(self, tiny_pretrained, corpus):
        for query in corpus[:10]:
            cluster = tiny_pretrained.assign_cluster(query.flow)
            assert 0 <= cluster < tiny_pretrained.n_clusters

    def test_encoder_for_returns_matching_pair(self, tiny_pretrained, corpus):
        cluster, encoder = tiny_pretrained.encoder_for(corpus[0].flow)
        assert encoder is tiny_pretrained.encoders[cluster]

    def test_training_reports_improve(self, tiny_pretrained):
        for report in tiny_pretrained.reports:
            assert report.final_accuracy > 0.7

    def test_sample_for_round_trip(self, tiny_pretrained, tiny_history):
        sample = tiny_pretrained.sample_for(tiny_history[0])
        assert sample.n_nodes == len(tiny_history[0].flow)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            pretrain([], max_parallelism=100)

    def test_the_artifact_keeps_the_elbow_fit_for_k(self, tiny_history, monkeypatch):
        """The elbow fits every k once and the artifact keeps its fit for the
        chosen k, which clusters as a fresh cold-cache fit does."""
        fitted = []
        fit = GEDKMeans.fit

        def recording_fit(self, graphs):
            fitted.append(self.n_clusters)
            return fit(self, graphs)

        monkeypatch.setattr(GEDKMeans, "fit", recording_fit)
        records = tiny_history[:120]
        artifact = pretrain(records, max_parallelism=100, epochs=1, seed=3)
        assert fitted == list(range(1, len(fitted) + 1))
        assert artifact.n_clusters in fitted

        cold = GEDKMeans(artifact.n_clusters, seed=3).fit([r.flow for r in records])
        warm = artifact.clustering
        assert warm.assignments == cold.assignments
        assert [g.structural_signature() for g in warm.center_graphs] == [
            g.structural_signature() for g in cold.center_graphs
        ]
        assert (warm.inertia, warm.n_iterations) == (cold.inertia, cold.n_iterations)

    def test_global_encoder_bypass(self, tiny_history):
        """§VII fallback: n_clusters=1 trains a single global encoder."""
        artifact = pretrain(
            tiny_history[:150], max_parallelism=100, n_clusters=1, epochs=3, seed=1
        )
        assert artifact.n_clusters == 1
        assert artifact.assign_cluster(tiny_history[0].flow) == 0
