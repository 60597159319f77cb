"""Isotonic k-NN: a third monotone candidate for M_f (extension).

The paper proposes SVM and XGBoost as fine-tuning layers because neural
networks struggle to enforce monotonicity (§IV-B).  A natural third
lightweight candidate — not evaluated in the paper but squarely within its
design space — is non-parametric: for a query ``[h, p]``, take the k
nearest training rows in embedding space and fit an *antitonic* (non-
increasing) regression of label on parallelism over them with the
pool-adjacent-violators algorithm (PAV).  The prediction is that fitted
step function evaluated at ``p``.

Monotonicity holds *by construction*: for a fixed embedding h the
neighbour set is fixed, and a PAV fit is non-increasing in p, so the
bottleneck probability can never rise with parallelism — exactly the
constraint Algorithm 2's binary search requires.

The model needs no training loop (fit = memorise + standardise), which
makes it the cheapest candidate for the online phase; its weakness is the
usual k-NN one — prediction cost grows with |T| — measured in the
ablation benchmarks.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import validate_sample_weight, validate_training_inputs
from repro.utils.rng import seeded_rng

#: Neighbourhood size, capped at the training-set size.
N_NEIGHBORS = 25
#: Gaussian kernel bandwidth for neighbour weighting, in units of the
#: median pairwise embedding distance (so it is scale-free).
BANDWIDTH = 1.0
#: Weight of two virtual anchor rows (bottleneck at p=0, clear at p=1 in
#: normalised units) blended into every neighbourhood; keeps predictions
#: defined and monotone when a neighbourhood is single-class.
PRIOR_WEIGHT = 0.25


def pav_antitonic(
    positions: np.ndarray,
    values: np.ndarray,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted antitonic (non-increasing) regression via PAV.

    Fits ``g`` minimising ``sum_i w_i (g(x_i) - y_i)^2`` subject to
    ``g`` non-increasing in ``x``.  Returns the unique sorted positions
    and the fitted value per position (ties in ``positions`` are pooled
    first, which PAV requires).
    """
    positions = np.asarray(positions, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if positions.shape != values.shape or positions.ndim != 1:
        raise ValueError("positions and values must be equal-length 1-D arrays")
    if len(positions) == 0:
        raise ValueError("cannot fit an empty regression")
    if weights is None:
        weights = np.ones_like(values)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != values.shape:
            raise ValueError("weights must match values")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")

    order = np.argsort(positions, kind="stable")
    xs, ys, ws = positions[order], values[order], weights[order]

    # Pool duplicate positions into weighted means.
    unique_x: list[float] = []
    pooled_y: list[float] = []
    pooled_w: list[float] = []
    i = 0
    while i < len(xs):
        j = i
        while j < len(xs) and xs[j] == xs[i]:
            j += 1
        weight = float(ws[i:j].sum())
        unique_x.append(float(xs[i]))
        pooled_y.append(float(np.dot(ys[i:j], ws[i:j]) / weight))
        pooled_w.append(weight)
        i = j

    # Antitonic fit = isotonic fit on negated values.  Classic PAV stack.
    blocks: list[list[float]] = []   # [value, weight, count]
    for y, w in zip(pooled_y, pooled_w):
        blocks.append([-y, w, 1])
        while len(blocks) >= 2 and blocks[-2][0] > blocks[-1][0]:
            v2, w2, c2 = blocks.pop()
            v1, w1, c1 = blocks.pop()
            merged_w = w1 + w2
            blocks.append([(v1 * w1 + v2 * w2) / merged_w, merged_w, c1 + c2])

    fitted = np.empty(len(unique_x))
    cursor = 0
    for value, _weight, count in blocks:
        fitted[cursor : cursor + count] = -value
        cursor += count
    return np.asarray(unique_x), fitted


def step_interpolate(
    query: float, positions: np.ndarray, fitted: np.ndarray
) -> float:
    """Evaluate an antitonic step fit at ``query``.

    Between knots the fit is linearly interpolated (still monotone);
    outside the observed range it clamps to the boundary values, which is
    the conservative choice for extrapolating bottleneck probabilities.
    """
    if len(positions) == 0:
        raise ValueError("empty fit")
    if query <= positions[0]:
        return float(fitted[0])
    if query >= positions[-1]:
        return float(fitted[-1])
    return float(np.interp(query, positions, fitted))


class IsotonicKNN:
    """Monotone non-parametric M_f: k-NN in h, antitonic PAV along p.

    Feature convention matches every other model in this package: the
    last column of the feature matrix is the normalised parallelism, the
    rest is the (frozen) operator embedding.

    ``seed`` only breaks exact distance ties deterministically.
    """

    def __init__(self, seed: int = 11) -> None:
        self.seed = seed
        self._embeddings: np.ndarray | None = None
        self._parallelisms: np.ndarray | None = None
        self._labels: np.ndarray | None = None
        self._weights: np.ndarray | None = None
        self._scale: np.ndarray | None = None
        self._median_distance: float = 1.0

    # ------------------------------------------------------------------
    # the model contract (repro.models.base)
    # ------------------------------------------------------------------

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "IsotonicKNN":
        """Memorise the rows; a neighbour's PAV weight is its kernel
        weight times its ``sample_weight``."""
        features, labels = validate_training_inputs(features, labels)
        if features.shape[1] < 2:
            raise ValueError("features must be 2-D with an embedding and a p column")
        self._weights = validate_sample_weight(sample_weight, len(labels))
        self._embeddings = features[:, :-1].copy()
        self._parallelisms = features[:, -1].copy()
        self._labels = labels

        # Per-dimension robust scale for the distance metric.
        spread = self._embeddings.std(axis=0)
        self._scale = np.where(spread > 1e-12, spread, 1.0)

        scaled = self._embeddings / self._scale
        n = len(scaled)
        if n > 1:
            rng = seeded_rng(self.seed)
            probes = rng.choice(n, size=min(n, 64), replace=False)
            deltas = scaled[probes, None, :] - scaled[None, probes, :]
            distances = np.sqrt((deltas**2).sum(axis=2))
            positive = distances[distances > 0]
            self._median_distance = float(np.median(positive)) if len(positive) else 1.0
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        if self._embeddings is None:
            raise RuntimeError("predict before fit")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim == 1:
            features = features[None, :]
        return np.asarray([self._predict_row(row) for row in features])

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _predict_row(self, row: np.ndarray) -> float:
        embedding, p = row[:-1], float(row[-1])
        scaled_train = self._embeddings / self._scale
        scaled_query = embedding / self._scale
        distances = np.sqrt(((scaled_train - scaled_query) ** 2).sum(axis=1))
        k = min(N_NEIGHBORS, len(distances))
        neighbour_idx = np.argpartition(distances, k - 1)[:k]

        width = BANDWIDTH * max(self._median_distance, 1e-12)
        weights = np.exp(-0.5 * (distances[neighbour_idx] / width) ** 2)
        weights = np.maximum(weights, 1e-12) * self._weights[neighbour_idx]

        # Virtual anchors encode the physics: zero parallelism cannot keep
        # up (bottleneck), the physical maximum is presumed safe.
        positions = np.concatenate([self._parallelisms[neighbour_idx], [0.0, 1.0]])
        values = np.concatenate([self._labels[neighbour_idx], [1.0, 0.0]])
        weights = np.concatenate([weights, [PRIOR_WEIGHT] * 2])

        knots, fitted = pav_antitonic(positions, values, weights)
        return min(1.0, max(0.0, step_interpolate(p, knots, fitted)))
