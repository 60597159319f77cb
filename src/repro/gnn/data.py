"""Graph samples: the GNN-ready form of one execution-history record."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataflow.features import FeatureEncoder
from repro.dataflow.graph import LogicalDataflow
from repro.gnn.mpnn import normalized_adjacency


@dataclass
class GraphSample:
    """One dataflow execution as GNN input.

    ``labels`` follow Algorithm 1: 1 bottleneck, 0 not, -1 unlabelled;
    ``mask`` selects the labelled operators that contribute to the loss.
    ``parallelism`` is normalised to [0, 1] for the FUSE layer.
    """

    name: str
    node_names: list[str]
    features: np.ndarray          # (n, d) initial feature vectors h^(0)
    agg_in: np.ndarray            # (n, n) row-normalised in-aggregation
    agg_out: np.ndarray           # (n, n) row-normalised out-aggregation
    parallelism: np.ndarray       # (n,) normalised degrees
    labels: np.ndarray            # (n,) in {-1, 0, 1}
    mask: np.ndarray              # (n,) bool: labels != -1

    @property
    def n_nodes(self) -> int:
        return len(self.node_names)

    @property
    def n_labelled(self) -> int:
        return int(self.mask.sum())


def build_sample(
    flow: LogicalDataflow,
    source_rates: dict[str, float],
    parallelisms: dict[str, int],
    labels: dict[str, int],
    encoder: FeatureEncoder,
    max_parallelism: int,
    name: str | None = None,
) -> GraphSample:
    """Assemble a :class:`GraphSample` from an execution record.

    ``labels`` may omit operators (treated as unlabelled, -1).
    """
    features, order = encoder.encode_dataflow(flow, source_rates)
    index = {node: i for i, node in enumerate(order)}
    edges = [(index[u], index[v]) for u, v in flow.edges]
    agg_in, agg_out = normalized_adjacency(len(order), edges)
    parallelism = np.array(
        [
            encoder.normalize_parallelism(parallelisms[node], max_parallelism)
            for node in order
        ]
    )
    label_array = np.array([labels.get(node, -1) for node in order], dtype=np.int64)
    return GraphSample(
        name=name if name is not None else flow.name,
        node_names=order,
        features=features,
        agg_in=agg_in,
        agg_out=agg_out,
        parallelism=parallelism,
        labels=label_array,
        mask=label_array >= 0,
    )
