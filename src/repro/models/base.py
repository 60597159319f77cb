"""The common contract of the fine-tuning models.

Every model consumes feature matrices whose **last column is the
(normalised) parallelism degree** and exposes

* ``fit(X, y, sample_weight=None)`` with binary labels; a row of weight
  ``k`` counts as ``k`` copies of that row (``None`` weighs every row 1),
* ``predict_proba(X) -> (n,)`` bottleneck probabilities.

Probabilities are the whole contract: the one decision made with a
model, Algorithm 2's minimum-degree search (:mod:`repro.models.search`),
thresholds ``predict_proba`` at a probability its caller chooses.
"""

from __future__ import annotations

import numpy as np


def validate_training_inputs(features: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shared input validation: shapes, finiteness, binary labels."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels).reshape(-1)
    if features.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    if len(features) != len(labels):
        raise ValueError("features and labels disagree on sample count")
    if len(labels) == 0:
        raise ValueError("cannot fit on an empty dataset")
    if not np.isfinite(features).all():
        raise ValueError("features contain non-finite values")
    if not ((labels == 0) | (labels == 1)).all():
        unique = sorted(set(np.unique(labels).tolist()))
        raise ValueError(f"labels must be binary 0/1, got {unique}")
    return features, labels.astype(np.float64)


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row of a float matrix, equal iff the rows' bytes
    are (so ``-0.0`` and ``0.0`` differ); they sort by those bytes."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` of ``np.unique(row_keys(rows), return_index=True,
    return_inverse=True)`` for a float64 matrix, byte for byte: the first
    index of each distinct row, in row-byte order, and each row's group.
    One stable sort of the keys, then neighbours compared as 64-bit words
    (comparing void keys costs several times the sort)."""
    order = np.argsort(row_keys(rows), kind="stable")
    words = rows.view(np.uint64)[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (words[1:] != words[:-1]).any(axis=1)
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


def validate_sample_weight(sample_weight, n_rows: int) -> np.ndarray:
    """Shared weight validation: one positive, finite weight per row.
    ``None`` weighs every row 1."""
    if sample_weight is None:
        return np.ones(n_rows)
    weights = np.asarray(sample_weight, dtype=np.float64).reshape(-1)
    if len(weights) != n_rows:
        raise ValueError("sample_weight and labels disagree on count")
    if not ((weights > 0) & np.isfinite(weights)).all():
        raise ValueError("sample_weight entries must be positive and finite")
    return weights
