"""Graph Edit Distance and graph similarity search (paper §IV-C).

GED between dataflow DAGs with the paper's extended edit-operation set
(node insert/delete, edge insert/delete, *operator type modification*,
*edge direction modification*), an exact A* solver used as the "directly
computing GED" baseline of Fig. 11b, and an AStar+-LSa-style best-first
search with label-set lower bounds and threshold pruning for fast
similarity search (Definition 1).
"""

from repro.ged.view import GraphView
from repro.ged.exact import exact_ged
from repro.ged.astar_lsa import astar_lsa_ged
from repro.ged.bounds import (
    combined_bound,
    degree_sequence_bound,
    label_multiset_bound,
)
from repro.ged.search import GEDCache, similarity_search

__all__ = [
    "GEDCache",
    "GraphView",
    "astar_lsa_ged",
    "combined_bound",
    "degree_sequence_bound",
    "exact_ged",
    "label_multiset_bound",
    "similarity_search",
]
