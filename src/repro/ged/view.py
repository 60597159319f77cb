"""Compact immutable graph view used by the GED solvers.

:class:`GraphView` extracts from a :class:`~repro.dataflow.graph.LogicalDataflow`
exactly what GED needs — integer-indexed nodes, structural labels (operator
types), and a direction-encoded adjacency table — so the inner search loop
touches only small tuples and dicts.
"""

from __future__ import annotations

import weakref
from collections import Counter
from dataclasses import dataclass

from repro.dataflow.graph import LogicalDataflow


@dataclass(frozen=True)
class GraphView:
    """Integer-indexed labelled digraph.

    ``adjacency[u]`` maps a neighbour ``v`` to +1 (edge u->v) or -1
    (edge v->u); absent entries mean no edge.  DAGs have no 2-cycles, so a
    single signed entry per pair is sufficient.  ``label_counts`` (the
    label multiset) and ``degrees`` (total degrees, sorted descending) are
    what the cheap lower bounds of :mod:`repro.ged.bounds` compare.
    """

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[dict[int, int], ...]
    signature: str
    label_counts: dict[str, int]
    degrees: tuple[int, ...]

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def direction(self, u: int, v: int) -> int:
        """+1 for u->v, -1 for v->u, 0 for no edge."""
        return self.adjacency[u].get(v, 0)

    @classmethod
    def from_dataflow(cls, flow: LogicalDataflow) -> "GraphView":
        order = flow.topological_order()
        index = {name: i for i, name in enumerate(order)}
        labels = tuple(flow.operator(name).structural_label() for name in order)
        edges = tuple((index[u], index[v]) for u, v in flow.edges)
        adjacency: list[dict[int, int]] = [{} for _ in order]
        for u, v in edges:
            adjacency[u][v] = 1
            adjacency[v][u] = -1
        return cls(
            labels=labels,
            edges=edges,
            adjacency=tuple(adjacency),
            signature=flow.structural_signature(),
            label_counts=Counter(labels),
            degrees=tuple(sorted((len(row) for row in adjacency), reverse=True)),
        )


_VIEW_CACHE: "weakref.WeakKeyDictionary[LogicalDataflow, GraphView]" = (
    weakref.WeakKeyDictionary()
)


def as_view(graph: LogicalDataflow | GraphView) -> GraphView:
    """Coerce to a :class:`GraphView`, caching per dataflow object."""
    if isinstance(graph, GraphView):
        return graph
    cached = _VIEW_CACHE.get(graph)
    if cached is None:
        cached = GraphView.from_dataflow(graph)
        _VIEW_CACHE[graph] = cached
    return cached
