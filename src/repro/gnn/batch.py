"""Padded minibatches: many graph samples as one stack of arrays.

The layers of :mod:`repro.gnn.layers` take a leading batch axis, so a
batch of ``B`` samples is their arrays zero-padded to a common node count
``n_max`` and stacked: features ``(B, n_max, d)``, aggregation matrices
``(B, n_max, n_max)``, degrees ``(B, n_max)``, plus each graph's node
count.  Pre-training packs a cluster once and gathers each minibatch from
the pack; the warm-up dataset of :mod:`repro.core.finetune` and the
service layer's bulk embedding requests encode a whole pack in one pass.

A pass over the pack is byte-identical to one pass per sample.  Each
product is still one BLAS GEMM per graph, and a GEMM accumulates every
output element along its inner dimension in order, so the extra padding
rows change no real row and the padding columns of an aggregation matrix
add exact zeros after the real terms.  Padding rows never feed a real
row: their aggregation weights are zero.  The exception is a one-node
graph packed with wider ones: on its own, its products are matrix-vector
products, which BLAS rounds differently, so it agrees only to the last
ulp.  No corpus dataflow has a single operator.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.gnn.data import GraphSample


class PaddedGraphs(NamedTuple):
    """Graph samples zero-padded to one node count, stacked on axis 0.

    The encoder reads it as it reads one :class:`GraphSample`."""

    features: np.ndarray      # (B, n_max, d)
    agg_in: np.ndarray        # (B, n_max, n_max)
    agg_out: np.ndarray       # (B, n_max, n_max)
    parallelism: np.ndarray   # (B, n_max)
    sizes: np.ndarray         # (B,) node count of each graph

    def take(self, index: np.ndarray) -> PaddedGraphs:
        """The graphs at ``index``, in that order, at the same padding."""
        return PaddedGraphs(*(array[index] for array in self))


def pad_samples(samples: Sequence[GraphSample]) -> PaddedGraphs:
    """Pack ``samples`` padded to the widest of them."""
    if not samples:
        raise ValueError("cannot pack zero samples")
    sizes = np.array([sample.n_nodes for sample in samples])
    width, n = int(sizes.max()), len(samples)
    features = np.zeros((n, width, samples[0].features.shape[1]))
    agg_in, agg_out = np.zeros((n, width, width)), np.zeros((n, width, width))
    parallelism = np.zeros((n, width))
    for index, (sample, size) in enumerate(zip(samples, sizes)):
        features[index, :size] = sample.features
        agg_in[index, :size, :size] = sample.agg_in
        agg_out[index, :size, :size] = sample.agg_out
        parallelism[index, :size] = sample.parallelism
    return PaddedGraphs(features, agg_in, agg_out, parallelism, sizes)


def encode_samples(
    encoder,
    samples: Sequence[GraphSample],
    parallelism_aware: bool = False,
) -> list[np.ndarray]:
    """Node embeddings of many samples in one encoder pass.

    ``encoder`` is a :class:`repro.gnn.model.BottleneckGNN` (or anything
    exposing ``encode``).  Each result equals ``encoder.encode(sample)``
    byte for byte (see the module docstring for one-node graphs).  The
    pack costs ``len(samples) * n_max**2`` per aggregation matrix.
    """
    if not samples:
        return []
    pack = pad_samples(samples)
    embedded = encoder.encode(pack, parallelism_aware)
    return [rows[:size] for rows, size in zip(embedded, pack.sizes)]
