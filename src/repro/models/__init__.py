"""Fine-tuning prediction models M_f (paper §IV-B).

Lightweight classifiers over ``x = [h_v, p]`` (frozen GNN embedding plus a
candidate parallelism degree) predicting the bottleneck probability.  SVM
and GBDT enforce the paper's monotonic constraint — the probability of
being a bottleneck is non-increasing in p — which makes Algorithm 2's
binary search for the minimum feasible parallelism sound.  The plain
neural network deliberately lacks the constraint (the Fig. 11a ablation).
"""

from repro.models.svm import MonotonicSVM
from repro.models.gbdt import MonotonicGBDT
from repro.models.isotonic import IsotonicKNN
from repro.models.mlp import MLPClassifier

__all__ = [
    "IsotonicKNN",
    "MLPClassifier",
    "MonotonicGBDT",
    "MonotonicSVM",
]


def make_prediction_model(kind: str, seed: int = 11):
    """Factory for the fine-tuning layer: 'svm', 'xgboost', 'isotonic' or 'nn'.

    Delegates to the :data:`repro.api.MODELS` registry (imported lazily —
    the registry imports this package), so every registered model —
    including third-party registrations — is constructible here, and an
    unknown kind fails with the full list of alternatives.
    """
    from repro.api.registry import MODELS

    return MODELS.create(kind, seed=seed)
