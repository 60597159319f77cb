"""Cheap admissible GED lower bounds — the "filtering" phase.

The paper (§IV-C) describes the common filter-and-verification strategy
for graph similarity search: prune candidates with inexpensive lower
bounds before paying for GED verification.  StreamTune's chosen verifier,
AStar+-LSa, is index-free, but the O(n)-time bounds here still pay for
themselves as a pre-filter in front of it: a candidate whose *lower* bound
already exceeds tau can be rejected without any search at all.

Two classic bounds are provided, both admissible (never exceed true GED):

* :func:`label_multiset_bound` — compares node-label multisets and edge
  counts, ignoring structure.
* :func:`degree_sequence_bound` — compares sorted degree sequences; an
  edge edit perturbs at most two degree entries, so half the total
  variation lower-bounds the edge-edit count.

:func:`combined_bound` takes the best of both; the GED caches of
:mod:`repro.ged.search` and :mod:`repro.service.cache` put it in front of
every threshold verification.
"""

from __future__ import annotations

import math
from itertools import zip_longest

from repro.ged import costs
from repro.ged.view import GraphView, as_view


def label_multiset_bound(view1: GraphView, view2: GraphView) -> float:
    """Label-multiset lower bound on GED.

    Nodes: at most ``min(n1, n2)`` nodes can be mapped; mapped nodes with
    different labels cost a substitution, and the size difference costs
    deletions/insertions.  Edges: every unit of edge-count difference
    needs at least one edge insert or delete.
    """
    labels2 = view2.label_counts
    n1, n2 = view1.n_nodes, view2.n_nodes
    matchable = sum(
        min(count, labels2.get(label, 0))
        for label, count in view1.label_counts.items()
    )
    mapped = min(n1, n2)
    node_bound = (
        (mapped - matchable) * costs.NODE_SUBSTITUTE
        + (n1 - mapped) * costs.NODE_DELETE
        + (n2 - mapped) * costs.NODE_INSERT
    )
    # ``matchable`` can exceed ``mapped`` only when one multiset dominates;
    # clamp so the substitution term never goes negative.
    node_bound = max(
        node_bound,
        (n1 - mapped) * costs.NODE_DELETE + (n2 - mapped) * costs.NODE_INSERT,
    )
    edge_bound = abs(view1.n_edges - view2.n_edges) * min(
        costs.EDGE_INSERT, costs.EDGE_DELETE
    )
    return node_bound + edge_bound


def degree_sequence_bound(view1: GraphView, view2: GraphView) -> float:
    """Degree-sequence lower bound on the *edge-edit* portion of GED.

    Pad the shorter sorted (total-)degree sequence with zeros and take the
    total variation.  Any single edge insertion or deletion changes
    exactly two degree entries by one each, and node substitutions change
    none, so the optimal edit script performs at least ``ceil(TV / 2)``
    edge edits.  Sorting both sequences gives the pairing that minimises
    the total variation, which keeps the bound admissible for whatever
    node mapping the optimal script uses.
    """
    variation = sum(
        abs(a - b) for a, b in zip_longest(view1.degrees, view2.degrees, fillvalue=0)
    )
    min_edge_cost = min(costs.EDGE_INSERT, costs.EDGE_DELETE)
    return math.ceil(variation / 2) * min_edge_cost


def combined_bound(graph1, graph2) -> float:
    """The tighter of the two bounds (both are admissible, so max is too).

    The node-indel part of the label bound and the edge part of the degree
    bound count *disjoint* edit operations, but simply adding them is not
    admissible in general (a node deletion also deletes incident edges,
    moving degree mass); taking the maximum always is.
    """
    view1, view2 = as_view(graph1), as_view(graph2)
    return max(
        label_multiset_bound(view1, view2),
        degree_sequence_bound(view1, view2),
    )

