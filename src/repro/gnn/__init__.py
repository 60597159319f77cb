"""Numpy GNN micro-framework for operator-level bottleneck prediction.

Implements the paper's §IV-A model family from scratch (no torch/DGL in
this offline environment): directed message passing (Eq. 1-2), the FUSE
parallelism-injection layer (Eq. 3), a two-layer MLP + sigmoid prediction
head, binary cross-entropy on labelled operators, and Adam.  Graphs here
are tiny (< 20 nodes), so dense per-graph matrices with handwritten
backward passes are both simple and fast.
"""

from repro.gnn.data import GraphSample, build_sample
from repro.gnn.layers import Linear, Parameter, ReLU
from repro.gnn.model import BottleneckGNN, EncoderConfig
from repro.gnn.optim import Adam
from repro.gnn.train import TrainingReport, train_bottleneck_gnn

__all__ = [
    "Adam",
    "BottleneckGNN",
    "EncoderConfig",
    "GraphSample",
    "Linear",
    "Parameter",
    "ReLU",
    "TrainingReport",
    "build_sample",
    "train_bottleneck_gnn",
]
