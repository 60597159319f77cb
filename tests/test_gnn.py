"""Tests for the numpy GNN: layers, message passing, model, training."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.gnn.data import GraphSample, build_sample
from repro.gnn.layers import Linear, Parameter, ReLU, glorot
from repro.gnn.loss import loss_target, sigmoid
from repro.gnn.model import BottleneckGNN, EncoderConfig
from repro.gnn.mpnn import FuseLayer, MessagePassingLayer, normalized_adjacency
from repro.gnn.optim import Adam
from repro.gnn.train import train_bottleneck_gnn
from repro.dataflow.features import FeatureEncoder
from repro.utils.rng import seeded_rng
from tests.conftest import (
    ReferenceAdam,
    apply_bce,
    build_diamond_flow,
    feature_dimension,
    reference_gnn_train,
)


def toy_sample(seed=0, n=6, d=10, labels=(1, 0, -1, 1, 0, 1)) -> GraphSample:
    rng = np.random.default_rng(seed)
    edges = [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5)]
    agg_in, agg_out = normalized_adjacency(n, edges)
    label_array = np.array(labels)
    return GraphSample(
        name="toy",
        node_names=[str(i) for i in range(n)],
        features=rng.normal(size=(n, d)),
        agg_in=agg_in,
        agg_out=agg_out,
        parallelism=rng.uniform(0, 1, size=n),
        labels=label_array,
        mask=label_array >= 0,
    )


class TestLayers:
    def test_linear_shapes(self):
        layer = Linear(seeded_rng(0), 4, 3)
        out = layer.forward(np.ones((5, 4)))
        assert out.shape == (5, 3)
        grad_in = layer.backward(np.ones((5, 3)))
        assert grad_in.shape == (5, 4)

    def test_linear_gradient_numeric(self):
        rng = seeded_rng(1)
        layer = Linear(rng, 3, 2)
        x = rng.normal(size=(4, 3))

        def loss():
            return float((layer.forward(x) ** 2).sum())

        base = layer.forward(x)
        layer.backward(2 * base)
        eps = 1e-6
        w = layer.weight.value
        orig = w[0, 0]
        w[0, 0] = orig + eps
        up = loss()
        w[0, 0] = orig - eps
        down = loss()
        w[0, 0] = orig
        assert layer.weight.grad[0, 0] == pytest.approx((up - down) / (2 * eps), rel=1e-4)

    def test_relu_masks_negatives(self):
        relu = ReLU()
        out = relu.forward(np.array([[-1.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 2.0]])
        grad = relu.backward(np.array([[5.0, 5.0]]))
        assert np.array_equal(grad, [[0.0, 5.0]])

    def test_backward_before_forward_fails(self):
        with pytest.raises(AssertionError):
            Linear(seeded_rng(0), 2, 2).backward(np.ones((1, 2)))

    def test_glorot_bounds(self):
        values = glorot(seeded_rng(0), 100, 100)
        limit = np.sqrt(6.0 / 200)
        assert np.all(np.abs(values) <= limit)

    def test_parameter_zero_grad(self):
        p = Parameter(np.ones(3))
        p.grad += 5.0
        Adam([p]).zero_grad()
        assert np.array_equal(p.grad, np.zeros(3))

    def test_accumulate_matches_backward(self):
        rng = seeded_rng(2)
        x = rng.normal(size=(5, 4))
        grad_output = rng.normal(size=(5, 3))
        full, partial = Linear(seeded_rng(3), 4, 3), Linear(seeded_rng(3), 4, 3)
        for layer in (full, partial):
            layer.forward(x)
        full.backward(grad_output)
        assert partial.accumulate(grad_output) is None
        assert np.array_equal(partial.weight.grad, full.weight.grad)
        assert np.array_equal(partial.bias.grad, full.bias.grad)


class TestAdjacency:
    def test_rows_normalised(self):
        agg_in, agg_out = normalized_adjacency(4, [(0, 2), (1, 2), (2, 3)])
        assert agg_in[2].sum() == pytest.approx(1.0)
        assert agg_in[2, 0] == pytest.approx(0.5)
        assert agg_out[2, 3] == pytest.approx(1.0)
        assert agg_in[0].sum() == 0.0   # no in-edges

    def test_mean_aggregation_semantics(self):
        agg_in, _ = normalized_adjacency(3, [(0, 2), (1, 2)])
        h = np.array([[2.0], [4.0], [0.0]])
        assert (agg_in @ h)[2, 0] == pytest.approx(3.0)


class TestLoss:
    def test_masked_nodes_ignored(self):
        logits = np.array([10.0, -10.0, 999.0])
        labels = np.array([1, 0, -1])
        mask = labels >= 0
        loss, grad = apply_bce(logits, loss_target(labels, mask))
        assert loss < 1e-3
        assert grad[2] == 0.0

    def test_empty_mask_zero(self):
        loss, grad = apply_bce(np.zeros(3), loss_target(np.full(3, -1), np.zeros(3, bool)))
        assert loss == 0.0
        assert np.array_equal(grad, np.zeros(3))

    def test_pos_weight_scales_positive_gradient(self):
        logits = np.zeros(2)
        labels = np.array([1, 0])
        mask = np.ones(2, bool)
        _, grad_plain = apply_bce(logits, loss_target(labels, mask))
        _, grad_weighted = apply_bce(logits, loss_target(labels, mask, pos_weight=5.0))
        ratio = abs(grad_weighted[0] / grad_weighted[1])
        assert ratio == pytest.approx(5.0)
        assert abs(grad_plain[0] / grad_plain[1]) == pytest.approx(1.0)

    def test_invalid_pos_weight(self):
        with pytest.raises(ValueError):
            loss_target(np.zeros(1), np.ones(1, bool), pos_weight=0)

    def test_sigmoid_stable_extremes(self):
        values = sigmoid(np.array([-1e4, 0.0, 1e4]))
        assert values[0] == pytest.approx(0.0)
        assert values[1] == pytest.approx(0.5)
        assert values[2] == pytest.approx(1.0)


class TestModel:
    def test_forward_shapes(self):
        sample = toy_sample()
        model = BottleneckGNN(EncoderConfig(input_dim=10, hidden_dim=8, seed=1))
        logits = model.forward(sample)
        assert logits.shape == (6, 1)
        probs = model.predict_probabilities(sample)
        assert probs.shape == (6,)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_agnostic_embedding_ignores_parallelism(self):
        sample = toy_sample()
        model = BottleneckGNN(EncoderConfig(input_dim=10, hidden_dim=8, seed=1))
        h1 = model.encode(sample, parallelism_aware=False)
        sample.parallelism = np.zeros(6)
        h2 = model.encode(sample, parallelism_aware=False)
        assert np.array_equal(h1, h2)

    def test_aware_embedding_depends_on_parallelism(self):
        sample = toy_sample()
        model = BottleneckGNN(EncoderConfig(input_dim=10, hidden_dim=8, seed=1))
        h1 = model.encoder.forward(sample, parallelism_aware=True)
        sample.parallelism = 1.0 - sample.parallelism
        h2 = model.encoder.forward(sample, parallelism_aware=True)
        assert not np.array_equal(h1, h2)

    def test_jumping_knowledge_doubles_embedding(self):
        with_jk = EncoderConfig(input_dim=10, hidden_dim=8, jumping_knowledge=True)
        without = EncoderConfig(input_dim=10, hidden_dim=8, jumping_knowledge=False)
        assert with_jk.embedding_dim == 16
        assert without.embedding_dim == 8

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(input_dim=0)
        with pytest.raises(ValueError):
            EncoderConfig(input_dim=4, n_message_passing=0)

    def test_deterministic_by_seed(self):
        sample = toy_sample()
        a = BottleneckGNN(EncoderConfig(input_dim=10, seed=3)).forward(sample)
        b = BottleneckGNN(EncoderConfig(input_dim=10, seed=3)).forward(sample)
        assert np.array_equal(a, b)


class TestAdam:
    def test_minimises_quadratic(self):
        p = Parameter(np.array([5.0]))
        optimizer = Adam([p], learning_rate=0.1)
        for _ in range(300):
            optimizer.zero_grad()
            p.grad[:] = 2 * p.value
            optimizer.step()
        assert abs(p.value[0]) < 1e-2

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Adam([], learning_rate=0.0)

    def test_empty_parameter_list_steps(self):
        optimizer = Adam([], weight_decay=1e-4)
        optimizer.zero_grad()
        optimizer.scale_gradients(0.5)
        optimizer.step()

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    def test_whole_buffer_step_is_bit_identical(self, weight_decay):
        rng = np.random.default_rng(5)
        shapes = [(4, 3), (3,), (1,), (2, 5), (7,), (1, 1)]
        initial = [rng.normal(size=shape) for shape in shapes]
        parameters = [Parameter(value.copy()) for value in initial]
        optimizer = Adam(parameters, learning_rate=5e-3, weight_decay=weight_decay)
        reference = ReferenceAdam(
            [value.copy() for value in initial], 5e-3, weight_decay=weight_decay
        )
        for _ in range(50):
            grads = [rng.normal(size=shape) for shape in shapes]
            optimizer.zero_grad()
            for parameter, grad in zip(parameters, grads):
                parameter.grad += grad
            optimizer.step()
            reference.step(grads)
            for parameter, expected in zip(parameters, reference.values):
                assert parameter.value.tobytes() == expected.tobytes()

    def test_rehomed_parameter_grad_writes_reach_step(self):
        p = Parameter(np.array([[1.0, -2.0], [3.0, 0.5]]))
        before = p.value.copy()
        optimizer = Adam([p], learning_rate=0.1)
        assert np.array_equal(p.value, before)
        p.grad[...] = np.array([[1.0, 0.0], [0.0, -1.0]])
        optimizer.step()
        moved = p.value != before
        assert moved.tolist() == [[True, False], [False, True]]


class TestTraining:
    def test_loss_decreases(self):
        samples = [toy_sample(seed=s) for s in range(6)]
        _, report = train_bottleneck_gnn(
            samples,
            config=EncoderConfig(input_dim=10, hidden_dim=8, seed=2),
            epochs=15,
            seed=2,
        )
        assert report.losses[-1] < report.losses[0]

    @pytest.mark.parametrize("fuse_per_step", [False, True])
    def test_trained_model_keeps_no_backward_cache(self, fuse_per_step):
        def arrays(component, path="model"):
            """Every array under ``component`` outside a Parameter."""
            found = []
            for name, value in vars(component).items():
                children = value if isinstance(value, (list, tuple)) else (value,)
                for child in children:
                    if isinstance(child, np.ndarray):
                        found.append(f"{path}.{name}")
                    elif hasattr(child, "__dict__") and not isinstance(child, Parameter):
                        found.extend(arrays(child, f"{path}.{name}"))
            return found

        samples = [toy_sample(seed=s) for s in range(10)]
        config = EncoderConfig(input_dim=10, hidden_dim=8, fuse_per_step=fuse_per_step)
        model, _ = train_bottleneck_gnn(samples, config=config, epochs=2)
        assert arrays(model) == []
        # The walk sees a cache when there is one.
        model.forward(samples[0])
        assert "model.encoder.embed._input" in arrays(model)

    def test_learns_separable_rule(self):
        """Bottleneck iff parallelism below 0.5: learnable via FUSE."""
        rng = np.random.default_rng(0)
        samples = []
        for s in range(25):
            sample = toy_sample(seed=s, labels=(0,) * 6)
            parallelism = rng.uniform(0, 1, size=6)
            labels = (parallelism < 0.5).astype(np.int64)
            sample.parallelism = parallelism
            sample.labels = labels
            sample.mask = np.ones(6, bool)
            samples.append(sample)
        model, report = train_bottleneck_gnn(
            samples,
            config=EncoderConfig(input_dim=10, hidden_dim=12, seed=4),
            epochs=60,
            seed=4,
        )
        assert report.final_accuracy > 0.85

    def test_tiny_pretrained_digest_is_pinned(self, tiny_pretrained):
        """The encoders' parameters and the loss trajectories of the shared
        smoke artifact, hashed: a training change that moves any bit of
        them fails here."""
        digest = hashlib.sha256()
        for model in tiny_pretrained.encoders:
            for parameter in model.parameters():
                digest.update(np.ascontiguousarray(parameter.value).tobytes())
        for report in tiny_pretrained.reports:
            digest.update(np.asarray(report.losses, dtype=np.float64).tobytes())
        assert digest.hexdigest() == (
            "405da60519eb9665b0ed7b42cfa00720f781de8f8cf5aaf6de4ff14a39e78230"
        )

    def test_requires_labelled_samples(self):
        sample = toy_sample(labels=(-1,) * 6)
        with pytest.raises(ValueError, match="labelled"):
            train_bottleneck_gnn([sample])


def random_sample(rng, n, d=10, labelled_share=0.6) -> GraphSample:
    """A random connected DAG of ``n`` nodes with random features, degrees
    and labels (about ``labelled_share`` of them labelled)."""
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    edges += [tuple(sorted(rng.choice(n, 2, replace=False))) for _ in range(n // 3)]
    agg_in, agg_out = normalized_adjacency(n, edges)
    labels = np.where(rng.uniform(size=n) < labelled_share, rng.integers(0, 2, size=n), -1)
    return GraphSample(
        name=f"random{n}",
        node_names=[str(i) for i in range(n)],
        features=rng.normal(size=(n, d)),
        agg_in=agg_in,
        agg_out=agg_out,
        parallelism=rng.uniform(0, 1, size=n),
        labels=labels,
        mask=labels >= 0,
    )


def mixed_cluster(n_samples, seed=0) -> list[GraphSample]:
    """2-node graphs next to graphs of 8+ nodes; the big ones are fully
    labelled, so some graphs carry 8+ labelled operators."""
    rng = np.random.default_rng(seed)
    sizes = [2, 9, 3, 12, 2, 8, 5, 10, 2, 4, 11, 6, 2, 9, 7, 3, 13][:n_samples]
    return [random_sample(rng, n, labelled_share=1.0 if n >= 8 else 0.6) for n in sizes]


class TestBatchedTrainingBitIdentity:
    """``train_bottleneck_gnn`` runs one forward/backward per padded
    minibatch; it must equal the per-graph loop of
    :func:`tests.conftest.reference_gnn_train` byte for byte."""

    def assert_byte_equal(self, samples, config, epochs=6, seed=3):
        model, report = train_bottleneck_gnn(samples, config=config, epochs=epochs, seed=seed)
        reference, expected = reference_gnn_train(samples, config=config, epochs=epochs, seed=seed)
        for parameter, want in zip(model.parameters(), reference.parameters()):
            assert parameter.value.tobytes() == want.value.tobytes()
        assert np.array(report.losses).tobytes() == np.array(expected.losses).tobytes()
        assert report.accuracies == expected.accuracies

    def test_mixed_sizes_and_wide_label_sets(self):
        samples = mixed_cluster(16)
        assert min(s.n_nodes for s in samples) == 2
        assert max(s.n_labelled for s in samples) >= 8
        self.assert_byte_equal(samples, EncoderConfig(input_dim=10, seed=1))

    def test_each_graph_sums_its_own_loss(self):
        # One batch whose 9 labelled entries span numpy's 8-element
        # pairwise block next to graphs with 5 and 6: a loss summed over a
        # padded row would be associated differently from the per-graph sum.
        rng = np.random.default_rng(3)
        samples = [random_sample(rng, n, labelled_share=1.0) for n in (6, 9, 5)]
        self.assert_byte_equal(samples, EncoderConfig(input_dim=10, seed=1), epochs=25)

    def test_fuse_per_step(self):
        samples = mixed_cluster(16, seed=1)
        self.assert_byte_equal(samples, EncoderConfig(input_dim=10, fuse_per_step=True, seed=2))

    def test_short_final_batch(self):
        samples = mixed_cluster(13, seed=2)
        assert len(samples) % 8 == 5
        self.assert_byte_equal(samples, EncoderConfig(input_dim=10, seed=4))


class TestBuildSample:
    def test_from_dataflow(self):
        flow = build_diamond_flow()
        encoder = FeatureEncoder()
        sample = build_sample(
            flow,
            {"src": 1e5},
            dict.fromkeys(flow.operator_names, 4),
            {"join": 1, "left": 0},
            encoder=encoder,
            max_parallelism=100,
        )
        assert sample.n_nodes == 5
        assert sample.n_labelled == 2
        assert sample.labels[sample.node_names.index("join")] == 1
        assert sample.labels[sample.node_names.index("left")] == 0
        assert sample.labels[sample.node_names.index("sink")] == -1
        assert sample.features.shape == (5, feature_dimension(encoder))
        assert np.all(sample.parallelism == sample.parallelism[0])
