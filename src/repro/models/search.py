"""Minimum-parallelism search (paper Algorithm 2, line 8).

``p_rec(v) = min { p <= p_max : M_f(h_v, p) = 0 }`` — thanks to the
monotonic constraint the feasible region is an up-closed interval, so the
minimum is found by binary search in O(log p_max) model evaluations.
There is one predicate: ``M_f(h, p) = 1`` (a bottleneck) means the
model's bottleneck probability is at or above a threshold the caller
chooses (the tuner's 0.35; the threshold ablation sweeps it).

The same routine is deliberately reused for the non-monotone NN ablation:
on a non-monotone predictor the bisection invariant breaks and the returned
degree can be wrong — that is the failure mode Fig. 11a quantifies.
"""

from __future__ import annotations

import numpy as np


def min_feasible_parallelism(
    model,
    embedding: np.ndarray,
    norms: np.ndarray,
    probability_threshold: float,
) -> int:
    """Smallest parallelism the model does not classify as a bottleneck.

    ``model`` is a fitted prediction layer over ``[h, p]``; ``norms[p - 1]``
    is the model's parallelism feature of degree ``p`` (usually
    :meth:`FeatureEncoder.normalize_parallelism`), so ``p_max`` is
    ``len(norms)``: a caller that searches many operators normalises the
    degrees once.  A degree is infeasible (a bottleneck) when
    ``predict_proba`` of its row is ``>= probability_threshold``.  Returns
    ``p_max`` when even the maximum is predicted to bottleneck.

    Implementation note: all ``p_max`` candidate rows are evaluated in one
    batched model call (models are vectorised; per-probe calls dominate
    tuning time otherwise), and the *binary search* of Algorithm 2 then
    runs over the precomputed predicate.  On a monotone model the result
    equals the true minimum; on a non-monotone model it reproduces exactly
    what bisection would do — the failure mode of the Fig. 11a NN ablation.
    Because the predicate is precomputed once, the outcome is a pure
    function of the model's predictions: repeated calls with identical
    inputs return identical degrees even for non-monotone models.
    """
    p_max = len(norms)
    if p_max < 1:
        raise ValueError("p_max must be >= 1")

    if hasattr(model, "proba_profile"):
        # Profile fast path: the model can sweep the parallelism axis for a
        # fixed embedding without materialising p_max duplicated rows (for
        # the kernel SVM this avoids p_max redundant feature lifts).
        probabilities = model.proba_profile(embedding, norms)
    else:
        rows = np.column_stack((np.tile(embedding, (p_max, 1)), norms))
        probabilities = model.predict_proba(rows)
    bottleneck = probabilities >= probability_threshold      # degree p at [p - 1]
    if bottleneck[-1]:
        return p_max
    low, high = 1, p_max
    while low < high:
        mid = (low + high) // 2
        if bottleneck[mid - 1]:
            low = mid + 1
        else:
            high = mid
    return low
