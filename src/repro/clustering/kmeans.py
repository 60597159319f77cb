"""K-means over dataflow DAGs with GED distances (paper §IV-C).

The three textbook steps — random initialisation, nearest-centroid
assignment, centroid update — with the paper's twist: graphs cannot be
averaged, so the update step recomputes each cluster's *similarity center*
(Definition 2) via AStar+-LSa-backed similarity search.

Execution histories contain many structurally identical DAGs (the same
query deployed repeatedly), so the implementation deduplicates by
structural signature and clusters weighted unique graphs; results are
mapped back to the full input.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.clustering.center import similarity_center
from repro.ged.search import GEDCache
from repro.utils.rng import seeded_rng

#: Assignment/update rounds of one restart, and the random restarts a fit
#: keeps the best of.
MAX_ITERATIONS = 20
N_INIT = 3


@dataclass
class ClusteringResult:
    """Outcome of GED k-means over a set of dataflow DAGs."""

    graphs: list                     # the original input graphs
    assignments: list[int]           # cluster id per input graph
    center_graphs: list              # one representative DAG per cluster
    inertia: float                   # sum of squared GED to assigned center
    n_iterations: int
    cache: GEDCache

    @property
    def n_clusters(self) -> int:
        return len(self.center_graphs)

    def members(self, cluster: int) -> list[int]:
        """Indices of input graphs in ``cluster``."""
        return [i for i, c in enumerate(self.assignments) if c == cluster]

    def predict(self, graph) -> int:
        """Nearest cluster for a new DAG (Algorithm 2, line 1).

        Delegates to the cache's bound-pruned ``nearest`` when it has one
        (:class:`~repro.ged.search.GEDCache` and the service's shared cache
        both do): admissible lower bounds skip the exact A*-LSa search for
        centers that provably cannot win, and the result is bit-identical
        to the exhaustive argmin below.
        """
        nearest = getattr(self.cache, "nearest", None)
        if nearest is not None:
            return nearest(graph, self.center_graphs)
        distances = [
            self.cache.distance(graph, center) for center in self.center_graphs
        ]
        return min(range(len(distances)), key=distances.__getitem__)


class GEDKMeans:
    """K-means clustering of dataflow DAGs under graph edit distance."""

    def __init__(
        self,
        n_clusters: int,
        seed: int | None = None,
        cache: GEDCache | None = None,
    ) -> None:
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        self.n_clusters = n_clusters
        self._rng = seeded_rng(seed)
        self.cache = cache if cache is not None else GEDCache()

    def fit(self, graphs: Sequence) -> ClusteringResult:
        """Cluster ``graphs``: best of ``N_INIT`` random restarts."""
        if not graphs:
            raise ValueError("cannot cluster an empty dataset")
        unique, weights, back_refs = self._deduplicate(graphs)
        best: ClusteringResult | None = None
        for _ in range(N_INIT):
            candidate = self._fit_once(graphs, unique, weights, back_refs)
            if best is None or candidate.inertia < best.inertia:
                best = candidate
        assert best is not None
        return best

    def _fit_once(
        self,
        graphs: Sequence,
        unique: list,
        weights: list[float],
        back_refs: list[int],
    ) -> ClusteringResult:
        k = min(self.n_clusters, len(unique))

        center_ids = list(
            self._rng.choice(len(unique), size=k, replace=False)
        )
        assignments = [0] * len(unique)
        n_iterations = 0
        for n_iterations in range(1, MAX_ITERATIONS + 1):
            assignments = self._assign(unique, center_ids)
            new_center_ids = self._update_centers(
                unique, weights, assignments, center_ids
            )
            if sorted(new_center_ids) == sorted(center_ids):
                center_ids = new_center_ids
                break
            center_ids = new_center_ids

        assignments = self._assign(unique, center_ids)
        inertia = 0.0
        for index, cluster in enumerate(assignments):
            distance = self.cache.distance(unique[index], unique[center_ids[cluster]])
            inertia += weights[index] * distance * distance

        full_assignments = [assignments[back_refs[i]] for i in range(len(graphs))]
        return ClusteringResult(
            graphs=list(graphs),
            assignments=full_assignments,
            center_graphs=[unique[c] for c in center_ids],
            inertia=inertia,
            n_iterations=n_iterations,
            cache=self.cache,
        )

    # ------------------------------------------------------------------
    # k-means internals
    # ------------------------------------------------------------------

    def _deduplicate(self, graphs: Sequence) -> tuple[list, list[float], list[int]]:
        """Collapse structurally identical graphs into weighted uniques."""
        unique: list = []
        weights: list[float] = []
        index_of: dict[str, int] = {}
        back_refs: list[int] = []
        for graph in graphs:
            signature = graph.structural_signature()
            position = index_of.get(signature)
            if position is None:
                position = len(unique)
                index_of[signature] = position
                unique.append(graph)
                weights.append(0.0)
            weights[position] += 1.0
            back_refs.append(position)
        return unique, weights, back_refs

    def _assign(self, unique: list, center_ids: list[int]) -> list[int]:
        centers = [unique[center] for center in center_ids]
        nearest = getattr(self.cache, "nearest", None)
        if nearest is not None:
            # Bound-pruned assignment: identical cluster ids, fewer exact
            # GED searches (see ClusteringResult.predict).
            return [nearest(graph, centers) for graph in unique]
        assignments = []
        for graph in unique:
            distances = [self.cache.distance(graph, center) for center in centers]
            assignments.append(min(range(len(distances)), key=distances.__getitem__))
        return assignments

    def _update_centers(
        self,
        unique: list,
        weights: list[float],
        assignments: list[int],
        center_ids: list[int],
    ) -> list[int]:
        new_centers: list[int] = []
        for cluster in range(len(center_ids)):
            member_ids = [i for i, c in enumerate(assignments) if c == cluster]
            if not member_ids:
                new_centers.append(self._reseed(unique, assignments, center_ids))
                continue
            members = [unique[i] for i in member_ids]
            member_weights = [weights[i] for i in member_ids]
            local = similarity_center(
                members, weights=member_weights, cache=self.cache
            )
            new_centers.append(member_ids[local])
        return new_centers

    def _reseed(self, unique: list, assignments: list[int], center_ids: list[int]) -> int:
        """Replace an empty cluster with the graph farthest from its center."""
        worst_index = 0
        worst_distance = -1.0
        for index, cluster in enumerate(assignments):
            distance = self.cache.distance(unique[index], unique[center_ids[cluster]])
            if distance > worst_distance:
                worst_distance = distance
                worst_index = index
        return worst_index
