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
"""

from __future__ import annotations

import heapq
from collections import Counter

from repro.ged.costs import DEFAULT_COSTS, EditCosts
from repro.ged.view import GraphView


class SearchBudgetExceeded(RuntimeError):
    """Raised when a GED search exceeds its expansion budget."""


def ged_search(
    view1: GraphView,
    view2: GraphView,
    costs: EditCosts = DEFAULT_COSTS,
    use_label_set_bound: bool = True,
    threshold: float | None = None,
    max_expansions: int | None = None,
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

    # Precomputations keyed by search depth i (nodes order[:i] processed).
    suffix_labels: list[Counter] = [Counter() for _ in range(n1 + 1)]
    for i in range(n1 - 1, -1, -1):
        suffix_labels[i] = suffix_labels[i + 1].copy()
        suffix_labels[i][view1.labels[order[i]]] += 1
    processed_at: list[set[int]] = [set() for _ in range(n1 + 1)]
    for i in range(1, n1 + 1):
        processed_at[i] = processed_at[i - 1] | {order[i - 1]}
    remaining_g1_edges = [
        sum(
            1
            for a, b in view1.edges
            if a not in processed_at[i] or b not in processed_at[i]
        )
        for i in range(n1 + 1)
    ]

    all_labels2 = Counter(view2.labels)
    min_edge_cost = min(costs.edge_insert, costs.edge_delete)

    def heuristic(i: int, used_mask: int) -> float:
        if not use_label_set_bound:
            return 0.0
        rem1 = suffix_labels[i]
        r1 = n1 - i
        rem2 = all_labels2.copy()
        r2 = n2
        for v in range(n2):
            if used_mask >> v & 1:
                rem2[view2.labels[v]] -= 1
                r2 -= 1
        matchable = sum(min(rem1[label], rem2[label]) for label in rem1)
        m = min(r1, r2)
        node_h = (
            (m - matchable) * costs.node_substitute
            + (r1 - m) * costs.node_delete
            + (r2 - m) * costs.node_insert
        )
        e2r = sum(
            1
            for a, b in view2.edges
            if not (used_mask >> a & 1) or not (used_mask >> b & 1)
        )
        edge_h = abs(remaining_g1_edges[i] - e2r) * min_edge_cost
        return node_h + edge_h

    def completion_cost(used_mask: int) -> float:
        unused = n2 - bin(used_mask).count("1")
        cost = unused * costs.node_insert
        for a, b in view2.edges:
            if not (used_mask >> a & 1) or not (used_mask >> b & 1):
                cost += costs.edge_insert
        return cost

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
    expansions = 0

    while frontier:
        f, _, g, i, used_mask, mapping = heapq.heappop(frontier)
        if threshold is not None and f > threshold + 1e-9:
            return None
        if i == n1:
            return g
        expansions += 1
        if max_expansions is not None and expansions > max_expansions:
            raise SearchBudgetExceeded(
                f"GED search exceeded {max_expansions} expansions"
            )
        u = order[i]
        label_u = view1.labels[u]

        # Option 1: delete u (and its edges to already-processed nodes).
        delete_cost = costs.node_delete
        for j in range(i):
            if view1.direction(u, order[j]) != 0:
                delete_cost += costs.edge_delete
        push(g + delete_cost, i + 1, used_mask, mapping + (-1,))

        # Option 2: map u onto every unused g2 node.
        for w in range(n2):
            if used_mask >> w & 1:
                continue
            step = 0.0 if view2.labels[w] == label_u else costs.node_substitute
            for j in range(i):
                d1 = view1.direction(u, order[j])
                partner = mapping[j]
                if partner == -1:
                    if d1 != 0:
                        step += costs.edge_delete
                else:
                    step += costs.edge_pair_cost(d1, view2.direction(w, partner))
            push(g + step, i + 1, used_mask | (1 << w), mapping + (w,))

    return None
