"""Plain neural-network classifier — the *non-monotonic* ablation baseline.

Fig. 11a compares SVM/XGBoost (monotone) against a neural network that
"does not enforce the monotonic constraint".  This is that NN: a small
two-layer MLP trained with Adam on logistic loss.  Nothing stops it from
predicting a *higher* bottleneck probability at a *higher* parallelism, so
Algorithm 2's binary search can report spuriously low degrees — producing
the extra reconfigurations and backpressure the ablation measures.
"""

from __future__ import annotations

import numpy as np

from repro.gnn.layers import Linear, ReLU
from repro.gnn.loss import bce_terms, sigmoid
from repro.gnn.optim import Adam
from repro.models.base import validate_sample_weight, validate_training_inputs
from repro.utils.rng import seeded_rng

#: Training epochs, the Adam learning rate and the minibatch size.
EPOCHS = 150
LEARNING_RATE = 5e-3
BATCH_SIZE = 64


class MLPClassifier:
    """Two-hidden-layer MLP over [h_v, p] without monotonicity."""

    def __init__(self, hidden_dim: int = 32, seed: int = 11) -> None:
        if hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        self.hidden_dim = hidden_dim
        self.seed = seed
        self._layers: list | None = None
        self._rng = seeded_rng(seed)

    def _build(self, input_dim: int) -> None:
        rng = seeded_rng(self.seed + 1)
        self._fc1 = Linear(rng, input_dim, self.hidden_dim)
        self._act1 = ReLU()
        self._fc2 = Linear(rng, self.hidden_dim, self.hidden_dim // 2)
        self._act2 = ReLU()
        self._fc3 = Linear(rng, self.hidden_dim // 2, 1)
        self._layers = [self._fc1, self._act1, self._fc2, self._act2, self._fc3]

    def _forward(self, features: np.ndarray) -> np.ndarray:
        assert self._layers is not None
        value = features
        for layer in self._layers:
            value = layer.forward(value)
        return value

    def _backward(self, grad: np.ndarray) -> None:
        assert self._layers is not None
        for layer in reversed(self._layers[1:]):
            grad = layer.backward(grad)
        self._fc1.accumulate(grad)

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "MLPClassifier":
        """Adam on the minibatches' BCE, each row's term weighted by its
        ``sample_weight`` and every minibatch normalised by its weight."""
        features, labels = validate_training_inputs(features, labels)
        weights = validate_sample_weight(sample_weight, len(labels))
        self._build(features.shape[1])
        parameters = [p for layer in self._layers for p in layer.parameters()]
        optimizer = Adam(parameters, learning_rate=LEARNING_RATE, weight_decay=1e-4)
        for _ in range(EPOCHS):
            order = self._rng.permutation(len(labels))
            for start in range(0, len(order), BATCH_SIZE):
                batch = order[start : start + BATCH_SIZE]
                optimizer.zero_grad()
                logits = self._forward(features[batch])
                _, grad = bce_terms(
                    logits.reshape(-1), labels[batch], weights[batch],
                    weights[batch].sum(),
                )
                self._backward(grad.reshape(logits.shape))
                optimizer.step()
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        if self._layers is None:
            raise RuntimeError("model is not fitted")
        features = np.asarray(features, dtype=np.float64)
        return sigmoid(self._forward(features).reshape(-1))
