"""Binary cross-entropy over labelled operators (paper §IV-A).

The paper averages the per-operator BCE over the labelled set O_label.  We
work in logit space for numerical stability and return the analytic
gradient alongside the loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LossTarget:
    """The labels side of the loss, fixed for a sample across epochs."""

    index: np.ndarray       # positions of the labelled entries
    targets: np.ndarray     # their labels as floats in {0, 1}
    weights: np.ndarray     # ``pos_weight`` on positives, 1 elsewhere
    total_weight: float
    n_labelled: int


def loss_target(labels: np.ndarray, mask: np.ndarray, pos_weight: float = 1.0) -> LossTarget:
    """Prepare the constants :func:`bce_terms` needs for one label vector.

    ``pos_weight`` multiplies the loss of positive examples (bottleneck
    labels are a small minority in execution histories, and an unweighted
    loss collapses to "never a bottleneck")."""
    if pos_weight <= 0:
        raise ValueError("pos_weight must be positive")
    index = np.flatnonzero(mask)
    targets = labels[index].astype(np.float64)
    weights = np.where(targets == 1.0, pos_weight, 1.0)
    return LossTarget(index, targets, weights, float(weights.sum()), len(index))


def bce_terms(
    z: np.ndarray, targets: np.ndarray, weights: np.ndarray, total_weight
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted BCE of each labelled logit in ``z``, and the gradient of
    the loss w.r.t. it.  Element-wise, so the labelled logits of many
    graphs can be scored in one call (``total_weight`` per entry)."""
    # log(1 + e^z) computed stably; BCE = max(z,0) - z*y + log(1+e^-|z|).
    loss_terms = np.maximum(z, 0.0) - z * targets + np.log1p(np.exp(-np.abs(z)))
    probs = 1.0 / (1.0 + np.exp(-z))
    return weights * loss_terms, weights * (probs - targets) / total_weight


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    ``exp`` only ever sees ``-|z|``, so it cannot overflow: a non-negative
    ``z`` takes ``1 / (1 + e)``, a negative one ``e / (1 + e)``.  The
    exponent is ``minimum(z, -z)`` rather than ``-abs(z)`` because
    ``minimum`` returns a NaN as it came: a NaN input comes out with its
    sign bit unchanged.
    """
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)
