"""Graph similarity search over DAG collections (paper Definition 1).

``Sim(q, tau) = { g in G | ged(q, g) <= tau }`` — implemented with
AStar+-LSa threshold verification, plus a signature-keyed distance cache so
repeated structures (ubiquitous in execution histories, where the same
query runs many times) cost one computation.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.dataflow.graph import LogicalDataflow
from repro.ged.astar_lsa import astar_lsa_ged
from repro.ged.bounds import combined_bound
from repro.ged.exact import exact_ged
from repro.ged.view import GraphView, as_view

#: Float slack used whenever an admissible bound gates an exact decision:
#: bounds are admissible in real arithmetic, and the margin keeps last-ulp
#: float drift in a bound from ever pruning a true nearest neighbour.
BOUND_SLACK = 1e-9


def nearest_center(cache, graph, centers) -> int:
    """Index of the nearest center by exact GED, with bound pruning.

    Bit-identical to the exhaustive
    ``min(range(len(centers)), key=[cache.distance(graph, c)].__getitem__)``
    — including the first-index tie-break — while skipping the exact
    A*-LSa search for every center whose *admissible lower bound* already
    exceeds the best exact distance found so far:

    * centers are verified in ascending lower-bound order (best-first), so
      the running best becomes tight as early as possible;
    * a center is skipped only when ``bound > best + BOUND_SLACK``; since
      ``ged >= bound`` (admissibility) its exact distance is then strictly
      greater than the running best, so it can be neither the minimum nor
      an earlier-index tie — and bounds being sorted, every remaining
      center is skipped with it;
    * exact ties are resolved by the original center index, matching the
      exhaustive argmin's first-occurrence rule;
    * cached exact distances serve as their own (tight) bound for free;
      cheap O(n) :func:`~repro.ged.bounds.combined_bound` covers the rest.

    ``cache`` is a :class:`GEDCache` or
    :class:`~repro.service.cache.SharedGEDCache` (anything with
    ``distance`` and an ``_exact`` store with ``get``).
    """
    if not centers:
        raise ValueError("nearest_center needs at least one center")
    query = as_view(graph)
    views = [as_view(center) for center in centers]
    bounds = []
    for view in views:
        known = cache._exact.get(cache._key(query, view), None)
        bounds.append(
            known if known is not None
            else combined_bound(query, view)
        )
    order = sorted(range(len(views)), key=lambda position: (bounds[position], position))
    best_index = -1
    best = float("inf")
    for position in order:
        if bounds[position] > best + BOUND_SLACK:
            break                        # sorted: every remaining bound is too
        value = cache.distance(query, views[position])
        if value < best or (value == best and position < best_index):
            best, best_index = value, position
    return best_index


class GEDCache:
    """Signature-keyed cache of exact GED values.

    Keys are unordered signature pairs (GED with symmetric costs is
    symmetric).  Threshold-pruned verifications are *not* cached as
    distances — only as one-sided bounds — so mixing verify and exact
    queries stays correct.
    """

    def __init__(self) -> None:
        self._exact: dict[tuple[str, str], float] = {}
        self._lower_bounds: dict[tuple[str, str], float] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(a: GraphView, b: GraphView) -> tuple[str, str]:
        return (a.signature, b.signature) if a.signature <= b.signature else (
            b.signature,
            a.signature,
        )

    def distance(self, graph1, graph2) -> float:
        """Exact GED with label-set acceleration, cached."""
        a, b = as_view(graph1), as_view(graph2)
        key = self._key(a, b)
        if key in self._exact:
            self.hits += 1
            return self._exact[key]
        self.misses += 1
        value = astar_lsa_ged(a, b)
        assert value is not None
        self._exact[key] = value
        return value

    def within(self, graph1, graph2, threshold: float) -> bool:
        """Cached threshold verification (Definition 1 predicate)."""
        a, b = as_view(graph1), as_view(graph2)
        key = self._key(a, b)
        if key in self._exact:
            self.hits += 1
            return self._exact[key] <= threshold + 1e-9
        bound = self._lower_bounds.get(key)
        if bound is not None and bound > threshold:
            self.hits += 1
            return False
        self.misses += 1
        # Cheap admissible pre-filter: ged >= combined_bound, so a bound
        # beyond the threshold decides the predicate without any search.
        cheap = combined_bound(a, b)
        if cheap > threshold + BOUND_SLACK:
            previous = self._lower_bounds.get(key, 0.0)
            self._lower_bounds[key] = max(previous, cheap)
            return False
        value = astar_lsa_ged(a, b, threshold=threshold)
        if value is None:
            # The search proves only ``ged > threshold + BOUND_SLACK``.
            previous = self._lower_bounds.get(key, 0.0)
            self._lower_bounds[key] = max(previous, threshold + BOUND_SLACK)
            return False
        self._exact[key] = value
        return True

    def nearest(self, graph, centers) -> int:
        """Bound-pruned nearest-center index (see :func:`nearest_center`)."""
        return nearest_center(self, graph, centers)


def similarity_search(
    query,
    dataset: Sequence,
    threshold: float,
    cache: GEDCache | None = None,
    use_lsa: bool = True,
) -> list[int]:
    """Indices of dataset graphs within GED ``threshold`` of ``query``.

    With ``use_lsa=False`` every pair is resolved by the direct exact GED
    baseline (no threshold pruning) — the slow path Fig. 11b compares
    against.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    matches: list[int] = []
    for index, graph in enumerate(dataset):
        if use_lsa:
            if cache is not None:
                hit = cache.within(query, graph, threshold)
            else:
                hit = astar_lsa_ged(query, graph, threshold=threshold) is not None
        else:
            hit = exact_ged(query, graph) <= threshold + 1e-9
        if hit:
            matches.append(index)
    return matches
