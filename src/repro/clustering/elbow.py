"""Elbow method for choosing k (paper §V-A, citing Ketchen & Shook).

Runs GED k-means for k = 1..k_max, and picks the elbow of their inertia
curve as the point of maximum distance to the chord between the curve's
endpoints (a standard parameter-free formulation of the visual elbow
heuristic).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.clustering.kmeans import ClusteringResult, GEDKMeans
from repro.ged.search import GEDCache


def choose_k_elbow(
    graphs: Sequence,
    k_max: int = 8,
    seed: int | None = None,
) -> tuple[int, list[ClusteringResult]]:
    """Return (best k, the k-means fit for each k = 1..k_max); the fits'
    inertias are the curve, and ``fits[k - 1]`` is the chosen clustering.
    The fits share one GED cache."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    cache = GEDCache()
    upper = min(k_max, len({g.structural_signature() for g in graphs}))
    fits = [GEDKMeans(k, seed=seed, cache=cache).fit(graphs) for k in range(1, upper + 1)]
    if len(fits) <= 2:
        return len(fits), fits

    curve = np.array([fit.inertia for fit in fits], dtype=float)
    ks = np.arange(1, len(curve) + 1, dtype=float)
    # Normalise both axes, then measure distance to the first-last chord.
    span = curve[0] - curve[-1]
    if span <= 0:
        return 1, fits
    x = (ks - ks[0]) / (ks[-1] - ks[0])
    y = (curve - curve[-1]) / span
    # Chord from (0, 1) to (1, 0): distance ~ |x + y - 1| / sqrt(2).
    distances = np.abs(x + y - 1.0)
    best_k = int(np.argmax(distances)) + 1
    return best_k, fits
