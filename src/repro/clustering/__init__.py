"""GED-based clustering of dataflow DAGs (paper §IV-C).

K-means over graph edit distance with *similarity center* updates
(Definition 2) accelerated by AStar+-LSa threshold verification, plus the
elbow method (§V-A) for choosing the number of clusters.
"""

from repro.clustering.center import similarity_center
from repro.clustering.kmeans import ClusteringResult, GEDKMeans
from repro.clustering.elbow import choose_k_elbow

__all__ = [
    "ClusteringResult",
    "GEDKMeans",
    "choose_k_elbow",
    "similarity_center",
]
