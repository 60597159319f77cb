"""Edit-operation costs for dataflow-DAG GED (paper §IV-C).

Beyond the four standard operations, the paper introduces two operations
tailored to dataflow DAGs:

* **Operator Type Modification** — relabel a node (e.g. filter -> join);
* **Edge Direction Modification** — reverse an existing edge.

Unit costs make the direction modification (cost 1) strictly cheaper than
the delete+insert alternative (cost 2), so it is a genuine extra operation
rather than syntactic sugar.
"""

from __future__ import annotations

#: Costs of the six edit operations.  All are positive, and reversing an
#: edge costs no more than deleting and re-inserting it, otherwise the
#: operation is never optimal and GED is the 4-operation variant.
NODE_INSERT = 1.0
NODE_DELETE = 1.0
NODE_SUBSTITUTE = 1.0   # operator type modification
EDGE_INSERT = 1.0
EDGE_DELETE = 1.0
EDGE_REVERSE = 1.0      # edge direction modification


def edge_pair_cost(direction_a: int, direction_b: int) -> float:
    """Cost of reconciling one edge slot between two mapped node pairs.

    ``direction_*`` encodes the edge between the pair in each graph:
    0 = no edge, +1 = forward, -1 = backward.
    """
    if direction_a == direction_b:
        return 0.0
    if direction_a == 0:
        return EDGE_INSERT
    if direction_b == 0:
        return EDGE_DELETE
    return EDGE_REVERSE
