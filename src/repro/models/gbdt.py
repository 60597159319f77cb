"""Monotonic gradient-boosted decision trees (paper §IV-B, "XGBoost").

A from-scratch second-order gradient boosting classifier with the two
modifications the paper describes for enforcing monotonicity:

* **Split screening** — candidate splits on the constrained feature whose
  child values would violate the monotonic order "are penalised by setting
  their gain to -inf, effectively excluding them";
* **Leaf value bounding** — once a node splits on the constrained feature,
  the midpoint of the two child values bounds every leaf beneath: for a
  *decreasing* constraint the low-parallelism subtree may not dip below the
  midpoint and the high-parallelism subtree may not rise above it.

Each tree is therefore non-increasing along the parallelism feature, and a
sum of non-increasing trees (plus a constant base score) stays
non-increasing, so the sigmoid of the ensemble honours the constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gnn.loss import sigmoid
from repro.models.base import validate_sample_weight, validate_training_inputs

_NO_GAIN = -np.inf
#: Boosting rounds, tree depth, shrinkage, the L2 leaf penalty, the least
#: child hessian and the least gain a split needs.
N_ESTIMATORS = 60
MAX_DEPTH = 3
LEARNING_RATE = 0.25
REG_LAMBDA = 1.0
MIN_CHILD_WEIGHT = 1.0
MIN_GAIN = 1e-6


@dataclass
class _Node:
    """One node of a regression tree (leaf when ``feature`` is None)."""

    value: float
    feature: int | None = None
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    def predict_one(self, row: np.ndarray) -> float:
        node = self
        while node.feature is not None:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value


class MonotonicGBDT:
    """Logistic-loss boosting, monotone non-increasing in the last feature."""

    def __init__(self) -> None:
        self._trees: list[_Node] = []
        self._base_score = 0.0
        self._monotone_feature = -1      # resolved to a real index in fit()
        self._fitted = False

    # ------------------------------------------------------------------
    # boosting
    # ------------------------------------------------------------------

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "MonotonicGBDT":
        """Boost on the rows; a row of weight ``k`` scales its gradient,
        its hessian and its share of the base score by ``k``, as ``k``
        copies of it would, so ``MIN_CHILD_WEIGHT`` bounds weighted
        hessian mass."""
        features, labels = validate_training_inputs(features, labels)
        weights = validate_sample_weight(sample_weight, len(labels))
        self._monotone_feature = features.shape[1] - 1
        positive_rate = float(np.clip(weights @ labels / weights.sum(), 1e-4, 1 - 1e-4))
        self._base_score = float(np.log(positive_rate / (1.0 - positive_rate)))
        self._trees = []

        scores = np.full(len(labels), self._base_score)
        for _ in range(N_ESTIMATORS):
            probabilities = sigmoid(scores)
            gradients = weights * (probabilities - labels)
            hessians = weights * np.maximum(probabilities * (1.0 - probabilities), 1e-6)
            tree = self._build_node(
                features, gradients, hessians, depth=0, lower=-np.inf, upper=np.inf
            )
            self._trees.append(tree)
            scores += LEARNING_RATE * self._predict_tree(tree, features)
        self._fitted = True
        return self

    @staticmethod
    def _leaf_value(grad_sum, hess_sum, lower: float, upper: float):
        """The clipped leaf value; elementwise for arrays of candidate sums."""
        return np.clip(-grad_sum / (hess_sum + REG_LAMBDA), lower, upper)

    def _build_node(
        self,
        features: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        depth: int,
        lower: float,
        upper: float,
    ) -> _Node:
        grad_sum = float(gradients.sum())
        hess_sum = float(hessians.sum())
        value = float(self._leaf_value(grad_sum, hess_sum, lower, upper))
        if depth >= MAX_DEPTH or len(gradients) < 2:
            return _Node(value)

        best = self._find_best_split(features, gradients, hessians, grad_sum, hess_sum, lower, upper)
        if best is None:
            return _Node(value)

        feature, threshold, _ = best
        go_left = features[:, feature] <= threshold
        if feature == self._monotone_feature:
            # Decreasing constraint: left (small p) >= mid >= right (large p).
            left_grad = float(gradients[go_left].sum())
            left_hess = float(hessians[go_left].sum())
            right_grad = grad_sum - left_grad
            right_hess = hess_sum - left_hess
            left_value = self._leaf_value(left_grad, left_hess, lower, upper)
            right_value = self._leaf_value(right_grad, right_hess, lower, upper)
            mid = 0.5 * (left_value + right_value)
            left_bounds = (mid, upper)
            right_bounds = (lower, mid)
        else:
            left_bounds = (lower, upper)
            right_bounds = (lower, upper)

        return _Node(
            value,
            feature,
            threshold,
            self._build_node(
                features[go_left], gradients[go_left], hessians[go_left],
                depth + 1, *left_bounds,
            ),
            self._build_node(
                features[~go_left], gradients[~go_left], hessians[~go_left],
                depth + 1, *right_bounds,
            ),
        )

    def _find_best_split(
        self,
        features: np.ndarray,
        gradients: np.ndarray,
        hessians: np.ndarray,
        grad_sum: float,
        hess_sum: float,
        lower: float,
        upper: float,
    ) -> tuple[int, float, float] | None:
        """The first split of largest gain in (feature, threshold) order,
        if one beats ``MIN_GAIN``: the prefix sums of each feature's sorted
        column score every threshold between two distinct values at once."""
        parent_score = grad_sum * grad_sum / (hess_sum + REG_LAMBDA)
        best_gain, best = MIN_GAIN, None
        for feature in range(features.shape[1]):
            order = np.argsort(features[:, feature], kind="stable")
            sorted_values = features[order, feature]
            left_grad = np.cumsum(gradients[order])[:-1]
            left_hess = np.cumsum(hessians[order])[:-1]
            right_grad = grad_sum - left_grad
            right_hess = hess_sum - left_hess
            gain = (
                left_grad * left_grad / (left_hess + REG_LAMBDA)
                + right_grad * right_grad / (right_hess + REG_LAMBDA)
                - parent_score
            )
            if feature == self._monotone_feature:
                # Children that violate the decreasing constraint.
                left_value = self._leaf_value(left_grad, left_hess, lower, upper)
                right_value = self._leaf_value(right_grad, right_hess, lower, upper)
                gain[left_value < right_value] = _NO_GAIN
            light = (left_hess < MIN_CHILD_WEIGHT) | (right_hess < MIN_CHILD_WEIGHT)
            gain[light | (sorted_values[:-1] == sorted_values[1:])] = _NO_GAIN
            i = int(np.argmax(gain))        # the first of the largest
            if gain[i] > best_gain:
                best_gain = gain[i]
                best = (feature, float(0.5 * (sorted_values[i] + sorted_values[i + 1])), best_gain)
        return best

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------

    @staticmethod
    def _predict_tree(tree: _Node, features: np.ndarray) -> np.ndarray:
        return np.array([tree.predict_one(row) for row in features])

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("model is not fitted")
        features = np.asarray(features, dtype=np.float64)
        scores = np.full(len(features), self._base_score)
        for tree in self._trees:
            scores += LEARNING_RATE * self._predict_tree(tree, features)
        return scores

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return sigmoid(self.decision_function(features))
