"""Elbow method for choosing k (paper §V-A, citing Ketchen & Shook).

Runs GED k-means for k = 1..k_max, records inertia, and picks the elbow as
the point of maximum distance to the chord between the curve's endpoints
(a standard parameter-free formulation of the visual elbow heuristic).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.clustering.kmeans import GEDKMeans
from repro.ged.search import GEDCache


def choose_k_elbow(
    graphs: Sequence,
    k_max: int = 8,
    seed: int | None = None,
    cache: GEDCache | None = None,
) -> tuple[int, list[float]]:
    """Return (best k, inertia curve for k = 1..k_max)."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    cache = cache if cache is not None else GEDCache()
    inertias: list[float] = []
    upper = min(k_max, len({g.structural_signature() for g in graphs}))
    for k in range(1, upper + 1):
        result = GEDKMeans(k, seed=seed, cache=cache).fit(graphs)
        inertias.append(result.inertia)
    if len(inertias) <= 2:
        return len(inertias), inertias

    curve = np.asarray(inertias, dtype=float)
    ks = np.arange(1, len(curve) + 1, dtype=float)
    # Normalise both axes, then measure distance to the first-last chord.
    span = curve[0] - curve[-1]
    if span <= 0:
        return 1, inertias
    x = (ks - ks[0]) / (ks[-1] - ks[0])
    y = (curve - curve[-1]) / span
    # Chord from (0, 1) to (1, 0): distance ~ |x + y - 1| / sqrt(2).
    distances = np.abs(x + y - 1.0)
    best_k = int(np.argmax(distances)) + 1
    return best_k, inertias
