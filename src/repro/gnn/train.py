"""Pre-training loop for the per-cluster bottleneck GNNs (paper §IV-A).

Each optimiser step runs one forward and one backward over a padded
minibatch (:mod:`repro.gnn.batch`); the layers keep every per-graph
product and sum in the per-graph loop's order, so the trained parameters,
losses and accuracies are byte-identical to running forward -> loss ->
backward graph by graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gnn.batch import pad_samples
from repro.gnn.data import GraphSample
from repro.gnn.loss import bce_terms, loss_target
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


#: Samples whose gradients are averaged into one optimiser step.
BATCH_SIZE = 8

#: Adam's step size and decoupled weight decay.
LEARNING_RATE = 5e-3
WEIGHT_DECAY = 1e-4

#: Cap on the auto-balanced weight of a positive (bottleneck) label.
MAX_POS_WEIGHT = 20.0


def train_bottleneck_gnn(
    samples: list[GraphSample],
    config: EncoderConfig | None = None,
    epochs: int = 40,
    seed: int = 7,
) -> tuple[BottleneckGNN, TrainingReport]:
    """Pre-train a bottleneck classifier on labelled graph samples.

    Training is supervised classification with the parallelism-aware
    forward path (labels were produced under concrete parallelism degrees,
    so the model must see them — via FUSE, never via h^(0)).

    The loss auto-balances: positives are weighted by the
    negative/positive ratio of the labelled corpus (capped at
    ``MAX_POS_WEIGHT``), since bottleneck labels are rare in
    randomly-provisioned histories.  Each sample's loss constants, and
    the padded pack every minibatch is gathered from, are prepared once,
    before the first epoch.
    """
    labelled = [s for s in samples if s.n_labelled > 0]
    if not labelled:
        raise ValueError("no labelled samples to train on")
    n_pos = sum(int((s.labels[s.mask] == 1).sum()) for s in labelled)
    n_neg = sum(int((s.labels[s.mask] == 0).sum()) for s in labelled)
    if n_pos == 0:
        pos_weight = 1.0
    else:
        pos_weight = float(min(max(n_neg / n_pos, 1.0), MAX_POS_WEIGHT))
    targets = [loss_target(s.labels, s.mask, pos_weight) for s in labelled]
    n_total = sum(target.n_labelled for target in targets)
    if config is None:
        config = EncoderConfig(input_dim=labelled[0].features.shape[1], seed=seed)
    model = BottleneckGNN(config)
    optimizer = Adam(model.parameters(), learning_rate=LEARNING_RATE, weight_decay=WEIGHT_DECAY)
    rng = seeded_rng(seed + 99)
    report = TrainingReport()
    pack = pad_samples(labelled)
    # The loss constants in the pack's node coordinates: a batch's
    # labelled entries, gathered with one mask, come out graph by graph.
    labelled_at = np.zeros(pack.parallelism.shape, dtype=bool)
    y, weights, total = (np.ones(pack.parallelism.shape) for _ in range(3))
    for row, target in enumerate(targets):
        labelled_at[row, target.index] = True
        y[row, target.index], weights[row, target.index] = target.targets, target.weights
        total[row] = target.total_weight

    for _ in range(epochs):
        order = rng.permutation(len(labelled))
        epoch_loss = 0.0
        n_correct = 0
        for start in range(0, len(order), BATCH_SIZE):
            batch = order[start : start + BATCH_SIZE]
            optimizer.zero_grad()
            logits = model.forward(pack.take(batch), parallelism_aware=True)
            at = labelled_at[batch]
            z, batch_y = logits[..., 0][at], y[batch][at]
            terms, grad = bce_terms(z, batch_y, weights[batch][at], total[batch][at])
            grads = np.zeros_like(logits)
            grads[..., 0][at] = grad
            n_correct += int(((z > 0) == (batch_y == 1.0)).sum())
            # Each graph's mean loss is its own sum, as the per-graph loop took it.
            stop = 0
            for target in (targets[index] for index in batch):
                begin, stop = stop, stop + target.n_labelled
                loss = float(terms[begin:stop].sum() / target.total_weight)
                epoch_loss += loss * target.n_labelled
            model.backward(grads)
            optimizer.scale_gradients(1.0 / len(batch))
            optimizer.step()
        report.losses.append(epoch_loss / n_total)
        report.accuracies.append(n_correct / n_total)
    return model, report
