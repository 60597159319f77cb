"""Plain exact GED — the paper's "Directly Computing GED" baseline.

Uniform-cost mapping search with no lower bound and no threshold pruning.
It returns the same (exact) distances as AStar+-LSa but explores vastly
more states, which is precisely the gap Fig. 11b measures.
"""

from __future__ import annotations

from repro.dataflow.graph import LogicalDataflow
from repro.ged._core import ged_search
from repro.ged.view import GraphView, as_view


def exact_ged(
    graph1: LogicalDataflow | GraphView,
    graph2: LogicalDataflow | GraphView,
) -> float:
    """Exact graph edit distance via uniform-cost search (no heuristic)."""
    result = ged_search(as_view(graph1), as_view(graph2), use_label_set_bound=False)
    assert result is not None  # unbounded search always terminates at a goal
    return result
