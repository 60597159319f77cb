"""The bottleneck-prediction GNN (paper §III/§IV-A).

Architecture:

* input embedding: Linear(d -> hidden) + ReLU over the Table I features,
* T directed message-passing layers (Eq. 1-2),
* a jumping-knowledge readout concatenating the input embedding with the
  final message-passing state (the paper's GNN background cites
  jumping-knowledge networks [27]; without the skip, per-operator detail —
  rate, type — washes out after aggregation and the fine-tuned layer
  cannot localise bottleneck thresholds),
* the FUSE layer (Eq. 3) injecting the parallelism degree — on the
  *parallelism-aware* path used during pre-training,
* a two-layer MLP + sigmoid head predicting the bottleneck indicator.

Where FUSE applies is configurable.  §III's "Strategy for Handling
Operator Parallelism" states that "parallelism is incorporated into the
model only after all other features are encoded", so the default fuses
once, after the readout; ``fuse_per_step=True`` reproduces the literal
per-iteration Eq. 3 variant.  The default is what makes the fine-tuning
contract sound: M_f consumes ``[h_v, p]`` where ``h_v`` is exactly the
representation the pre-training loss shaped for "combine me with p to
decide bottleneck-ness".

The *parallelism-agnostic* path stops at the readout; Algorithm 2 (line 7)
reads those embeddings as the ``h_v`` features of the fine-tuned model
``M_f``.  Only the head is replaced/updated during online fine-tuning; the
encoder stays frozen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gnn.batch import PaddedGraphs
from repro.gnn.data import GraphSample
from repro.gnn.layers import Linear, Parameter, ReLU
from repro.gnn.loss import sigmoid
from repro.gnn.mpnn import FuseLayer, MessagePassingLayer
from repro.utils.rng import seeded_rng


@dataclass(frozen=True)
class EncoderConfig:
    """Hyper-parameters of the GNN encoder."""

    input_dim: int
    hidden_dim: int = 32
    n_message_passing: int = 2
    head_hidden_dim: int = 16
    jumping_knowledge: bool = True
    fuse_per_step: bool = False
    seed: int = 7

    def __post_init__(self) -> None:
        if self.input_dim < 1 or self.hidden_dim < 1 or self.head_hidden_dim < 1:
            raise ValueError("dimensions must be positive")
        if self.n_message_passing < 1:
            raise ValueError("need at least one message-passing step")

    @property
    def embedding_dim(self) -> int:
        """Dimension of the operator embedding h_v exposed to M_f."""
        if self.jumping_knowledge:
            return 2 * self.hidden_dim
        return self.hidden_dim


class BottleneckEncoder:
    """Input embedding + T message-passing steps + readout (+ FUSE)."""

    def __init__(self, config: EncoderConfig) -> None:
        rng = seeded_rng(config.seed)
        self.config = config
        self.embed = Linear(rng, config.input_dim, config.hidden_dim)
        self.embed_act = ReLU()
        self.mp_layers = [
            MessagePassingLayer(rng, config.hidden_dim)
            for _ in range(config.n_message_passing)
        ]
        if config.fuse_per_step:
            self.fuse_layers = [
                FuseLayer(rng, config.hidden_dim)
                for _ in range(config.n_message_passing)
            ]
        else:
            self.fuse_layers = []
        self.fuse_final = FuseLayer(rng, config.embedding_dim)
        self._used_fuse = False

    def forward(
        self, sample: GraphSample | PaddedGraphs, parallelism_aware: bool
    ) -> np.ndarray:
        """Node embeddings; FUSE is applied only on the aware path."""
        e = self.embed_act.forward(self.embed.forward(sample.features))
        h = e
        per_step = parallelism_aware and self.config.fuse_per_step
        for step, mp_layer in enumerate(self.mp_layers):
            h = mp_layer.forward(h, sample.agg_in, sample.agg_out)
            if per_step:
                h = self.fuse_layers[step].forward(h, sample.parallelism)
        if self.config.jumping_knowledge:
            z = np.concatenate([e, h], axis=-1)
        else:
            z = h
        self._used_fuse = parallelism_aware
        if parallelism_aware:
            z = self.fuse_final.forward(z, sample.parallelism)
        return z

    def backward(self, grad_output: np.ndarray) -> None:
        """Accumulate parameter gradients; the input features get none."""
        grad = grad_output
        if self._used_fuse:
            grad = self.fuse_final.backward(grad)
        hidden = self.config.hidden_dim
        if self.config.jumping_knowledge:
            grad_embed_skip = grad[..., :hidden]
            grad_h = grad[..., hidden:]
        else:
            grad_embed_skip = None
            grad_h = grad
        per_step = self._used_fuse and self.config.fuse_per_step
        for step in range(len(self.mp_layers) - 1, -1, -1):
            if per_step:
                grad_h = self.fuse_layers[step].backward(grad_h)
            grad_h = self.mp_layers[step].backward(grad_h)
        if grad_embed_skip is not None:
            grad_h = grad_h + grad_embed_skip
        self.embed.accumulate(self.embed_act.backward(grad_h))

    def parameters(self) -> list[Parameter]:
        params = self.embed.parameters()
        for layer in self.mp_layers:
            params.extend(layer.parameters())
        for layer in self.fuse_layers:
            params.extend(layer.parameters())
        params.extend(self.fuse_final.parameters())
        return params


class PredictionHead:
    """Two-layer MLP emitting bottleneck logits (sigmoid lives in the loss)."""

    def __init__(self, rng: np.random.Generator, hidden_dim: int, head_hidden_dim: int) -> None:
        self.fc1 = Linear(rng, hidden_dim, head_hidden_dim)
        self.act = ReLU()
        self.fc2 = Linear(rng, head_hidden_dim, 1)

    def forward(self, h: np.ndarray, sizes: np.ndarray | None = None) -> np.ndarray:
        """``sizes`` are a padded batch's node counts (see :class:`Linear`)."""
        return self.fc2.forward(self.act.forward(self.fc1.forward(h)), sizes)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        return self.fc1.backward(self.act.backward(self.fc2.backward(grad_output)))

    def parameters(self) -> list[Parameter]:
        return self.fc1.parameters() + self.fc2.parameters()


class BottleneckGNN:
    """Encoder + head: the per-cluster pre-trained model."""

    def __init__(self, config: EncoderConfig) -> None:
        rng = seeded_rng(config.seed + 1)
        self.encoder = BottleneckEncoder(config)
        self.head = PredictionHead(rng, config.embedding_dim, config.head_hidden_dim)

    def forward(
        self, sample: GraphSample | PaddedGraphs, parallelism_aware: bool = True
    ) -> np.ndarray:
        """Bottleneck logits, shape (n, 1); (B, n_max, 1) for a padded
        batch, zero on its padding rows."""
        h = self.encoder.forward(sample, parallelism_aware)
        return self.head.forward(h, sample.sizes if isinstance(sample, PaddedGraphs) else None)

    def backward(self, grad_logits: np.ndarray) -> None:
        grad_h = self.head.backward(grad_logits)
        self.encoder.backward(grad_h)

    def predict_probabilities(self, sample: GraphSample, parallelism_aware: bool = True) -> np.ndarray:
        """Per-operator bottleneck probabilities, shape (n,)."""
        return sigmoid(self.forward(sample, parallelism_aware).reshape(-1))

    def encode(
        self, sample: GraphSample | PaddedGraphs, parallelism_aware: bool = False
    ) -> np.ndarray:
        """Node embeddings — the fine-tuning features h_v (agnostic path)."""
        return self.encoder.forward(sample, parallelism_aware)

    def predict_probabilities_grid(
        self, sample: GraphSample, parallelism_grid: np.ndarray, readout: np.ndarray
    ) -> np.ndarray:
        """Per-operator probabilities for many uniform parallelism degrees.

        Returns shape ``(len(parallelism_grid), n_nodes)``: row ``i`` equals
        ``predict_probabilities`` with every node's (normalised) degree set
        to ``parallelism_grid[i]``, byte for byte.  The grid points run as
        one batch of copies of ``sample``, none padded.  With the default
        fuse-after-readout architecture the message-passing readout is
        independent of the degree: ``readout`` is the caller's
        ``encode(sample)``, and only the FUSE layer and head see the batch,
        so the distillation loop's grid probe runs no encoder pass of its
        own.  ``fuse_per_step`` models run the whole forward on the batch
        and ignore ``readout``.
        """
        n, points = sample.n_nodes, len(parallelism_grid)
        degrees = np.repeat(np.asarray(parallelism_grid, dtype=np.float64)[:, None], n, axis=1)
        if self.config.fuse_per_step:
            graphs = (sample.features, sample.agg_in, sample.agg_out)
            copies = (np.broadcast_to(array, (points,) + array.shape) for array in graphs)
            pack = PaddedGraphs(*copies, degrees, np.full(points, n))
            fused = self.encoder.forward(pack, parallelism_aware=True)
        else:
            fused = self.encoder.fuse_final.forward(
                np.broadcast_to(readout, (points,) + readout.shape), degrees
            )
        # No copy is padded, so the head's products run at the graph's own
        # row count and need no per-graph slicing.
        return sigmoid(self.head.forward(fused)[..., 0])

    def parameters(self) -> list[Parameter]:
        return self.encoder.parameters() + self.head.parameters()

    @property
    def config(self) -> EncoderConfig:
        return self.encoder.config
