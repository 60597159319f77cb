"""Tests for history/model/artifact persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.persistence import (
    load_history,
    load_model,
    load_pretrained,
    save_history,
    save_model,
    save_pretrained,
)
from repro.core.tuner import StreamTuneTuner
from repro.engines.flink import FlinkCluster
from repro.gnn.model import BottleneckGNN, EncoderConfig
from repro.gnn.optim import Adam
from repro.gnn.train import train_bottleneck_gnn
from repro.workloads.nexmark import nexmark_query
from tests.test_gnn import toy_sample


class TestHistoryPersistence:
    def test_round_trip(self, tiny_history, tmp_path):
        path = tmp_path / "history.jsonl"
        save_history(tiny_history[:50], path)
        restored = load_history(path)
        assert len(restored) == 50
        for original, loaded in zip(tiny_history[:50], restored):
            assert loaded.parallelisms == original.parallelisms
            assert loaded.labels == original.labels
            assert loaded.source_rates == original.source_rates
            assert (
                loaded.flow.structural_signature()
                == original.flow.structural_signature()
            )

    def test_creates_parent_directories(self, tiny_history, tmp_path):
        path = tmp_path / "deep" / "nested" / "history.jsonl"
        save_history(tiny_history[:2], path)
        assert len(load_history(path)) == 2

    def test_empty_history(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        save_history([], path)
        assert load_history(path) == []


class TestModelPersistence:
    def test_weights_round_trip_exactly(self, tmp_path):
        model = BottleneckGNN(EncoderConfig(input_dim=10, hidden_dim=8, seed=3))
        sample = toy_sample()
        expected = model.predict_probabilities(sample)
        path = tmp_path / "model.npz"
        save_model(model, path)
        restored = load_model(path)
        assert np.array_equal(restored.predict_probabilities(sample), expected)

    def test_trained_weights_round_trip_into_an_optimiser(self, tmp_path):
        """Trained parameters are views of an optimiser's flat buffer;
        ``load_model`` writes stored weights in place, and a new optimiser
        over the loaded model re-homes them without changing a bit."""
        config = EncoderConfig(input_dim=10, hidden_dim=8, seed=3)
        model, _ = train_bottleneck_gnn([toy_sample(seed=s) for s in range(3)], config, epochs=2)
        path = tmp_path / "model.npz"
        save_model(model, path)
        restored = load_model(path)
        expected = [p.value.copy() for p in model.parameters()]
        for parameter, value in zip(restored.parameters(), expected):
            assert parameter.value.tobytes() == value.tobytes()
        Adam(restored.parameters())
        for parameter, value in zip(restored.parameters(), expected):
            assert parameter.value.tobytes() == value.tobytes()
        sample = toy_sample()
        assert np.array_equal(
            restored.predict_probabilities(sample), model.predict_probabilities(sample)
        )

    def test_config_round_trip(self, tmp_path):
        config = EncoderConfig(
            input_dim=7, hidden_dim=6, n_message_passing=3,
            head_hidden_dim=4, jumping_knowledge=False, fuse_per_step=True,
            seed=9,
        )
        path = tmp_path / "model.npz"
        save_model(BottleneckGNN(config), path)
        assert load_model(path).config == config

    def test_corrupted_shapes_rejected(self, tmp_path):
        small = BottleneckGNN(EncoderConfig(input_dim=4, hidden_dim=4))
        big = BottleneckGNN(EncoderConfig(input_dim=4, hidden_dim=16))
        path = tmp_path / "model.npz"
        save_model(small, path)
        import json

        import numpy as np

        data = dict(np.load(path))
        meta = json.loads(bytes(data["__config__"]).decode())
        meta["hidden_dim"] = 16
        data["__config__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **data)
        with pytest.raises(ValueError, match="shape mismatch"):
            load_model(path)
        del big


class TestArtifactPersistence:
    def test_round_trip_preserves_behaviour(self, tiny_pretrained, tmp_path):
        directory = tmp_path / "artifact"
        save_pretrained(tiny_pretrained, directory)
        restored = load_pretrained(directory)

        assert restored.n_clusters == tiny_pretrained.n_clusters
        assert restored.max_parallelism == tiny_pretrained.max_parallelism

        # Cluster assignment agrees for every corpus query seen in training.
        for record in tiny_pretrained.records_by_cluster[0][:5]:
            assert restored.assign_cluster(record.flow) == (
                tiny_pretrained.assign_cluster(record.flow)
            )

        # Encoder outputs are bit-identical.
        record = tiny_pretrained.records_by_cluster[0][0]
        sample = tiny_pretrained.sample_for(record)
        original = tiny_pretrained.encoders[0].encode(sample)
        loaded = restored.encoders[0].encode(restored.sample_for(record))
        assert np.array_equal(original, loaded)

    def test_loaded_artifact_tunes(self, tiny_pretrained, tmp_path):
        directory = tmp_path / "artifact"
        save_pretrained(tiny_pretrained, directory)
        restored = load_pretrained(directory)

        engine = FlinkCluster(seed=81)
        tuner = StreamTuneTuner(engine, restored, seed=82)
        query = nexmark_query("q1", "flink")
        tuner.prepare(query)
        deployment = engine.deploy(
            query.flow, dict.fromkeys(query.flow.operator_names, 1),
            query.rates_at(4),
        )
        result = tuner.tune(deployment, query.rates_at(4))
        assert result.steps
        assert not engine.measure(deployment).has_backpressure
