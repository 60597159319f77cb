"""AStar+-LSa-style GED computation and verification (paper §IV-C).

The paper adopts AStar+-LSa [51] for graph similarity search because it is
**index-free** (no structure to rebuild as clusters evolve) and **fast**
(best-first search over partial node mappings with tight label-set lower
bounds and threshold pruning).  This module implements that algorithmic
recipe on the shared search core:

* partial mappings explored best-first,
* an admissible label-set bound on the unmapped remainder (node label
  multiset matching plus an edge-count term),
* branches whose lower bound exceeds the threshold are pruned, and the
  whole search aborts as soon as the threshold is provably exceeded.

The label-set bound here follows the LS family of bounds rather than the
exact LSa anchoring of the original paper; it preserves the properties the
paper relies on (admissibility, index-freeness, orders-of-magnitude pruning
versus direct GED — the ``fig11b/*`` claims of
:mod:`repro.experiments.fig11_ablation`).
"""

from __future__ import annotations

from repro.dataflow.graph import LogicalDataflow
from repro.ged._core import ged_search
from repro.ged.view import GraphView, as_view


def astar_lsa_ged(
    graph1: LogicalDataflow | GraphView,
    graph2: LogicalDataflow | GraphView,
    threshold: float | None = None,
) -> float | None:
    """GED with label-set lower bounds; ``None`` if above ``threshold``."""
    return ged_search(
        as_view(graph1), as_view(graph2), use_label_set_bound=True, threshold=threshold
    )
