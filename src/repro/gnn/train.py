"""Pre-training loop for the per-cluster bottleneck GNNs (paper §IV-A)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gnn.data import GraphSample
from repro.gnn.loss import bce_with_logits
from repro.gnn.model import BottleneckGNN, EncoderConfig
from repro.gnn.optim import Adam
from repro.utils.rng import seeded_rng


@dataclass
class TrainingReport:
    """Loss/accuracy trajectory of one pre-training run."""

    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        return self.accuracies[-1] if self.accuracies else float("nan")


def train_bottleneck_gnn(
    samples: list[GraphSample],
    config: EncoderConfig | None = None,
    epochs: int = 40,
    batch_size: int = 8,
    learning_rate: float = 5e-3,
    weight_decay: float = 1e-4,
    pos_weight: float | None = None,
    max_pos_weight: float = 20.0,
    seed: int = 7,
) -> tuple[BottleneckGNN, TrainingReport]:
    """Pre-train a bottleneck classifier on labelled graph samples.

    Training is supervised classification with the parallelism-aware
    forward path (labels were produced under concrete parallelism degrees,
    so the model must see them — via FUSE, never via h^(0)).

    ``pos_weight=None`` auto-balances: positives are weighted by the
    negative/positive ratio of the labelled corpus (capped), since
    bottleneck labels are rare in randomly-provisioned histories.
    """
    labelled = [s for s in samples if s.n_labelled > 0]
    if not labelled:
        raise ValueError("no labelled samples to train on")
    if pos_weight is None:
        n_pos = sum(int((s.labels[s.mask] == 1).sum()) for s in labelled)
        n_neg = sum(int((s.labels[s.mask] == 0).sum()) for s in labelled)
        if n_pos == 0:
            pos_weight = 1.0
        else:
            pos_weight = float(min(max(n_neg / n_pos, 1.0), max_pos_weight))
    if config is None:
        config = EncoderConfig(input_dim=labelled[0].features.shape[1], seed=seed)
    model = BottleneckGNN(config)
    optimizer = Adam(model.parameters(), learning_rate=learning_rate, weight_decay=weight_decay)
    rng = seeded_rng(seed + 99)
    report = TrainingReport()

    for _ in range(epochs):
        order = rng.permutation(len(labelled))
        epoch_loss = 0.0
        n_correct = 0
        n_total = 0
        optimizer.zero_grad()
        in_batch = 0
        for position, sample_index in enumerate(order):
            sample = labelled[sample_index]
            logits = model.forward(sample, parallelism_aware=True)
            loss, grad = bce_with_logits(
                logits, sample.labels, sample.mask, pos_weight=pos_weight
            )
            model.backward(grad)
            epoch_loss += loss * sample.n_labelled
            predictions = (logits.reshape(-1) > 0)[sample.mask]
            n_correct += int((predictions == (sample.labels[sample.mask] == 1)).sum())
            n_total += sample.n_labelled
            in_batch += 1
            if in_batch == batch_size or position == len(order) - 1:
                _scale_gradients(model, 1.0 / in_batch)
                optimizer.step()
                optimizer.zero_grad()
                in_batch = 0
        report.losses.append(epoch_loss / max(n_total, 1))
        report.accuracies.append(n_correct / max(n_total, 1))
    return model, report


def _scale_gradients(model: BottleneckGNN, factor: float) -> None:
    for parameter in model.parameters():
        parameter.grad *= factor
