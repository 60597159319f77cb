"""Shared best-first GED search engine.

Both the exact baseline (h = 0, the paper's "directly computing GED") and
AStar+-LSa (label-set lower bounds + threshold pruning) run this mapping
search; they differ only in heuristic strength and pruning.

The search explores partial node mappings of g1 onto g2 in a fixed node
order.  Each expansion either maps the next g1 node onto an unused g2 node
or deletes it; edge costs are charged incrementally against previously
processed nodes, so every state's ``g`` value is the exact cost of the
partial edit script.  When all g1 nodes are processed, the remaining g2
nodes and their incident edges are inserted.

Each search computes what the heuristic reads once, in tables local to
it: the g1 side (label counts and edge count of the unprocessed suffix)
per depth, the g2 side (label counts, node count and edge count of the
unused part) per ``used_mask``, and h itself per (depth, ``used_mask``).
Every state gets the float a direct computation would give, so the
expansion order is that of the direct computation.  Labels are integer
ids, so a label multiset is a sequence of counts.
"""

from __future__ import annotations

import heapq

from repro.ged import costs
from repro.ged.view import GraphView


def ged_search(
    view1: GraphView,
    view2: GraphView,
    use_label_set_bound: bool = True,
    threshold: float | None = None,
) -> float | None:
    """Best-first GED between two graph views.

    Returns the exact GED, or ``None`` when ``threshold`` is given and the
    distance provably exceeds it.  ``use_label_set_bound`` selects the
    AStar+-LSa-style admissible heuristic; with ``False`` the search is the
    plain uniform-cost baseline.
    """
    if view1.signature == view2.signature:
        return 0.0
    # Put the larger graph on the mapping side: branching factor is n2 + 1.
    if view1.n_nodes < view2.n_nodes:
        view1, view2 = view2, view1

    n1, n2 = view1.n_nodes, view2.n_nodes
    order = sorted(
        range(n1),
        key=lambda u: (-len(view1.adjacency[u]), view1.labels[u]),
    )
    label_ids = {
        label: i
        for i, label in enumerate(dict.fromkeys(view1.labels + view2.labels))
    }
    labels2 = [label_ids[label] for label in view2.labels]

    # Precomputations keyed by search depth i (nodes order[:i] processed).
    counts = [0] * len(label_ids)
    suffix_counts = [tuple(counts)]
    for u in reversed(order):
        counts[label_ids[view1.labels[u]]] += 1
        suffix_counts.append(tuple(counts))
    suffix_counts.reverse()
    depth = {u: i for i, u in enumerate(order)}
    edge_depths = [max(depth[a], depth[b]) for a, b in view1.edges]
    remaining_g1_edges = [
        sum(1 for d in edge_depths if d >= i) for i in range(n1 + 1)
    ]
    # Edge directions from order[i] to each earlier order[j], and the cost
    # of deleting order[i] with its edges to them.
    directions = [
        [view1.direction(order[i], order[j]) for j in range(i)] for i in range(n1)
    ]
    delete_costs = []
    for row in directions:
        delete_cost = costs.NODE_DELETE
        for d1 in row:
            if d1 != 0:
                delete_cost += costs.EDGE_DELETE
        delete_costs.append(delete_cost)

    pair_costs = {
        (d1, d2): costs.edge_pair_cost(d1, d2) for d1 in (-1, 0, 1) for d2 in (-1, 0, 1)
    }
    min_edge_cost = min(costs.EDGE_INSERT, costs.EDGE_DELETE)
    mask_facts: dict[int, tuple[list[int], int, int]] = {}

    def unused_part(used_mask: int) -> tuple[list[int], int, int]:
        """(label counts, node count, edge count) of g2 outside the mask."""
        facts = mask_facts.get(used_mask)
        if facts is None:
            rem2 = [0] * len(label_ids)
            for v, label in enumerate(labels2):
                if not used_mask >> v & 1:
                    rem2[label] += 1
            r2 = n2 - bin(used_mask).count("1")
            e2r = sum(
                1
                for a, b in view2.edges
                if not (used_mask >> a & 1) or not (used_mask >> b & 1)
            )
            facts = mask_facts[used_mask] = (rem2, r2, e2r)
        return facts

    h_values: dict[tuple[int, int], float] = {}

    def heuristic(i: int, used_mask: int) -> float:
        if not use_label_set_bound:
            return 0.0
        h = h_values.get((i, used_mask))
        if h is None:
            rem2, r2, e2r = unused_part(used_mask)
            r1 = n1 - i
            matchable = sum(map(min, suffix_counts[i], rem2))
            m = min(r1, r2)
            node_h = (
                (m - matchable) * costs.NODE_SUBSTITUTE
                + (r1 - m) * costs.NODE_DELETE
                + (r2 - m) * costs.NODE_INSERT
            )
            edge_h = abs(remaining_g1_edges[i] - e2r) * min_edge_cost
            h = h_values[i, used_mask] = node_h + edge_h
        return h

    def completion_cost(used_mask: int) -> float:
        _, unused, e2r = unused_part(used_mask)
        return unused * costs.NODE_INSERT + e2r * costs.EDGE_INSERT

    # State: (f, tie, g, i, used_mask, mapping-tuple).  The transition into
    # depth n1 folds the completion cost (inserting unused g2 nodes and
    # their incident edges) into g, so popped goal states carry their exact
    # final cost and best-first order implies optimality.
    tie = 0

    def push(g_new: float, i_new: int, mask: int, mapping: tuple[int, ...]) -> None:
        nonlocal tie
        if i_new == n1:
            g_new += completion_cost(mask)
            h_new = 0.0
        else:
            h_new = heuristic(i_new, mask)
        if threshold is not None and g_new + h_new > threshold + 1e-9:
            return
        tie += 1
        heapq.heappush(frontier, (g_new + h_new, tie, g_new, i_new, mask, mapping))

    frontier: list[tuple[float, int, float, int, int, tuple[int, ...]]] = []
    if n1 == 0:
        push(0.0, 0, 0, ())
    else:
        start_h = heuristic(0, 0)
        if threshold is None or start_h <= threshold + 1e-9:
            frontier.append((start_h, tie, 0.0, 0, 0, ()))

    while frontier:
        f, _, g, i, used_mask, mapping = heapq.heappop(frontier)
        if threshold is not None and f > threshold + 1e-9:
            return None
        if i == n1:
            return g
        label_u = view1.labels[order[i]]
        row = directions[i]

        # Option 1: delete u (and its edges to already-processed nodes).
        push(g + delete_costs[i], i + 1, used_mask, mapping + (-1,))

        # Option 2: map u onto every unused g2 node.
        for w in range(n2):
            if used_mask >> w & 1:
                continue
            step = 0.0 if view2.labels[w] == label_u else costs.NODE_SUBSTITUTE
            # A deleted partner (-1) has no edges: its slot costs
            # edge_pair_cost(d1, 0), the deletion of any g1 edge.
            adjacent = view2.adjacency[w]
            for d1, partner in zip(row, mapping):
                step += pair_costs[d1, adjacent.get(partner, 0)]
            push(g + step, i + 1, used_mask | (1 << w), mapping + (w,))

    return None
