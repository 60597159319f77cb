"""Batched GNN inference over many graph samples at once.

The message-passing layers operate on an ``(n, n)`` aggregation matrix and
an ``(n, d)`` feature matrix; since dataflow DAGs have no cross-graph
edges, a *batch* of samples is just one big graph whose aggregation matrix
is block-diagonal.  Stacking ``k`` samples therefore turns ``k`` encoder
forward passes into one — the warm-up dataset construction of
:mod:`repro.core.finetune` and the service layer's bulk embedding requests
use this to amortise the per-call Python and BLAS dispatch overhead.

The batched result is numerically equivalent to per-sample encoding (the
extra off-block coefficients are exact zeros), though the larger matrix
shapes may change BLAS accumulation order in the last ulp; callers that
require bit-identical results to the per-sample path should keep using
:meth:`BottleneckGNN.encode` sample by sample.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.gnn.data import GraphSample

#: The most nodes :func:`encode_samples` packs into one batch.
MAX_BATCH_NODES = 128

@dataclass
class BatchedSamples:
    """Several :class:`GraphSample` objects merged into one block graph."""

    merged: GraphSample
    offsets: list[int]          # start row of each sample, plus total length

    @property
    def n_samples(self) -> int:
        return len(self.offsets) - 1

    def split(self, matrix: np.ndarray) -> list[np.ndarray]:
        """Slice a per-node result matrix back into per-sample blocks."""
        return [
            matrix[self.offsets[i]:self.offsets[i + 1]]
            for i in range(self.n_samples)
        ]


def merge_samples(samples: Sequence[GraphSample]) -> BatchedSamples:
    """Assemble the block-diagonal batch graph of ``samples``."""
    if not samples:
        raise ValueError("cannot batch zero samples")
    sizes = [sample.n_nodes for sample in samples]
    total = sum(sizes)
    offsets = [0]
    for size in sizes:
        offsets.append(offsets[-1] + size)
    features = np.concatenate([sample.features for sample in samples], axis=0)
    agg_in = np.zeros((total, total))
    agg_out = np.zeros((total, total))
    for sample, start in zip(samples, offsets):
        stop = start + sample.n_nodes
        agg_in[start:stop, start:stop] = sample.agg_in
        agg_out[start:stop, start:stop] = sample.agg_out
    merged = GraphSample(
        name="batch:" + ",".join(sample.name for sample in samples),
        node_names=[
            f"{index}:{name}"
            for index, sample in enumerate(samples)
            for name in sample.node_names
        ],
        features=features,
        agg_in=agg_in,
        agg_out=agg_out,
        parallelism=np.concatenate([sample.parallelism for sample in samples]),
        labels=np.concatenate([sample.labels for sample in samples]),
        mask=np.concatenate([sample.mask for sample in samples]),
    )
    return BatchedSamples(merged=merged, offsets=offsets)


def encode_samples(
    encoder,
    samples: Sequence[GraphSample],
    parallelism_aware: bool = False,
) -> list[np.ndarray]:
    """Parallelism-agnostic embeddings for many samples in few passes.

    ``encoder`` is a :class:`repro.gnn.model.BottleneckGNN` (or anything
    exposing ``encode``).  Samples are greedily packed into block-diagonal
    batches of at most ``MAX_BATCH_NODES`` nodes (the dense block matrix is
    O(total²), so unbounded packing would swamp the saved dispatch
    overhead); each batch costs one encoder pass.  The cap sits at
    the empirical crossover for this model's dataflow-sized graphs — the
    ``gnn_encode_*`` benchmarks of ``repro perf`` measure it: around
    64–128 nodes the batched pass is ~2x the per-sample loop, while
    multi-hundred-node dense blocks fall *behind* it (the O(total²) zero
    blocks outweigh the saved dispatch).
    """
    results: list[np.ndarray] = []
    chunk: list[GraphSample] = []
    chunk_nodes = 0

    def flush() -> None:
        nonlocal chunk, chunk_nodes
        if not chunk:
            return
        if len(chunk) == 1:
            results.append(encoder.encode(chunk[0], parallelism_aware))
        else:
            batch = merge_samples(chunk)
            merged = encoder.encode(batch.merged, parallelism_aware)
            results.extend(batch.split(merged))
        chunk = []
        chunk_nodes = 0

    for sample in samples:
        if chunk and chunk_nodes + sample.n_nodes > MAX_BATCH_NODES:
            flush()
        chunk.append(sample)
        chunk_nodes += sample.n_nodes
    flush()
    return results
