"""Batched GNN inference: padded packing and grid probing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.finetune import (
    PredictionDataset,
    build_warmup_dataset,
    distill_rows,
)
from repro.dataflow.features import FeatureEncoder
from repro.gnn.batch import encode_samples
from repro.gnn.data import build_sample
from repro.gnn.model import BottleneckGNN, EncoderConfig
from repro.utils.rng import seeded_rng
from tests.conftest import (
    build_diamond_flow,
    build_linear_flow,
    build_window_flow,
    rows_from_record,
)


@pytest.fixture(scope="module")
def encoder_setup():
    feature_encoder = FeatureEncoder()
    flows = [build_linear_flow(), build_diamond_flow(), build_window_flow()]
    samples = []
    for flow in flows:
        rates = {source: 1000.0 for source in flow.sources()}
        samples.append(
            build_sample(
                flow,
                rates,
                dict.fromkeys(flow.operator_names, 2),
                labels={},
                encoder=feature_encoder,
                max_parallelism=100,
            )
        )
    config = EncoderConfig(input_dim=samples[0].features.shape[1], seed=3)
    return BottleneckGNN(config), samples


class TestEncodeSamples:
    def test_matches_per_sample_encoding(self, encoder_setup):
        model, samples = encoder_setup
        batched = encode_samples(model, samples)
        for sample, block in zip(samples, batched):
            solo = model.encode(sample, parallelism_aware=False)
            assert block.shape == solo.shape
            np.testing.assert_array_equal(block, solo)


class TestGridProbing:
    def test_grid_matches_per_degree_forwards(self, encoder_setup):
        model, samples = encoder_setup
        sample = samples[1]
        p_norms = np.array([0.01, 0.05, 0.2, 0.6, 1.0])
        grid = model.predict_probabilities_grid(sample, p_norms, model.encode(sample))
        assert grid.shape == (len(p_norms), sample.n_nodes)
        for row, p_norm in zip(grid, p_norms):
            sample.parallelism = np.full(sample.n_nodes, p_norm)
            reference = model.predict_probabilities(sample, parallelism_aware=True)
            np.testing.assert_array_equal(row, reference)

    def test_fuse_per_step_fallback(self, encoder_setup):
        _, samples = encoder_setup
        sample = samples[0]
        config = EncoderConfig(
            input_dim=sample.features.shape[1], fuse_per_step=True, seed=5
        )
        model = BottleneckGNN(config)
        p_norms = np.array([0.1, 0.5])
        grid = model.predict_probabilities_grid(sample, p_norms, model.encode(sample))
        original = sample.parallelism.copy()
        for row, p_norm in zip(grid, p_norms):
            sample.parallelism = np.full(sample.n_nodes, p_norm)
            reference = model.predict_probabilities(sample, parallelism_aware=True)
            np.testing.assert_array_equal(row, reference)
        sample.parallelism = original


class TestWarmupBatchEncode:
    def test_batched_warmup_equivalent_to_sequential(self, tiny_pretrained):
        # The per-record reference: one encoder pass per sampled record in
        # build_warmup_dataset's own seeded order up to max_rows, then the
        # distilled rows of its first 8 records.
        encoder = tiny_pretrained.encoders[0]
        members = tiny_pretrained.records_by_cluster[0]
        order = seeded_rng(9).permutation(len(members))
        sequential = PredictionDataset()
        for index in order:
            sequential.extend(
                rows_from_record(tiny_pretrained, encoder, members[index])
            )
            if len(sequential) >= 80:
                break
        for index in order[:8]:
            record = members[index]
            sequential.extend(
                distill_rows(
                    tiny_pretrained, encoder, record.flow, record.source_rates
                )
            )
        batched = build_warmup_dataset(tiny_pretrained, 0, max_rows=80, seed=9)
        assert len(batched) == len(sequential)
        assert batched.labels == sequential.labels
        np.testing.assert_array_equal(
            np.stack(batched.features), np.stack(sequential.features)
        )

    def test_distill_rows_runs_the_encoder_once(self, tiny_pretrained, monkeypatch):
        # The grid probe reuses the readout distill_rows already encoded.
        from repro.gnn.model import BottleneckEncoder

        calls = []
        original = BottleneckEncoder.forward

        def forward(self, sample, parallelism_aware=True):
            calls.append(parallelism_aware)
            return original(self, sample, parallelism_aware)

        monkeypatch.setattr(BottleneckEncoder, "forward", forward)
        record = tiny_pretrained.records_by_cluster[0][0]
        distill_rows(
            tiny_pretrained, tiny_pretrained.encoders[0], record.flow, record.source_rates
        )
        assert calls == [False]

    def test_distill_rows_unchanged_by_grid_batching(self, tiny_pretrained):
        # distill_rows now uses the one-pass grid probe; its output must be
        # exactly what the per-degree forwards produced (fuse-after-readout
        # makes the readout degree-independent).
        record = tiny_pretrained.records_by_cluster[0][0]
        encoder = tiny_pretrained.encoders[0]
        rows = distill_rows(
            tiny_pretrained, encoder, record.flow, record.source_rates
        )
        assert len(rows) > 0
        grid_degrees = [d for d in (1, 2, 3, 4, 6, 8, 11, 16, 22, 32, 45, 60)
                        if d <= tiny_pretrained.max_parallelism]
        n_ops = len(record.flow.operator_names)
        assert len(rows) == n_ops * len(grid_degrees)
