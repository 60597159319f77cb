"""Directed message passing and FUSE layers (paper Eq. 1-3).

Dataflow edges carry meaning in both directions — an operator's bottleneck
status depends on what its *upstreams* feed it and on what its
*downstreams* can absorb — so aggregation is split into in-neighbour and
out-neighbour means with separate weights:

    m_in(v)  = mean{ h(u) : u -> v },     m_out(v) = mean{ h(w) : v -> w }
    h'(v)    = ReLU( h(v) W_self + m_in(v) W_in + m_out(v) W_out + b )

The FUSE layer implements Eq. 3: it concatenates the (normalised)
parallelism degree onto each node representation and applies a non-linear
transform that restores the hidden dimensionality, so the fused vector can
"seamlessly participate in subsequent message-passing iterations".
"""

from __future__ import annotations

import numpy as np

from repro.gnn.layers import Linear, Parameter, ReLU, bias_gradient, glorot, weight_gradient


class MessagePassingLayer:
    """One directed mean-aggregation message-passing step.

    Rank-generic like :mod:`repro.gnn.layers`: a padded minibatch carries
    zero rows and columns in its aggregation matrices, so a padding node
    sends nothing to a real one and receives a zero gradient."""

    def __init__(self, rng: np.random.Generator, hidden_dim: int) -> None:
        self.w_self = Parameter(glorot(rng, hidden_dim, hidden_dim))
        self.w_in = Parameter(glorot(rng, hidden_dim, hidden_dim))
        self.w_out = Parameter(glorot(rng, hidden_dim, hidden_dim))
        self.bias = Parameter(np.zeros(hidden_dim))
        self._cache: tuple | None = None

    def forward(
        self,
        h: np.ndarray,
        agg_in: np.ndarray,
        agg_out: np.ndarray,
    ) -> np.ndarray:
        """``agg_in``/``agg_out`` are row-normalised n x n aggregation mats
        (one per graph on a batch)."""
        m_in = agg_in @ h
        m_out = agg_out @ h
        z = (
            h @ self.w_self.value
            + m_in @ self.w_in.value
            + m_out @ self.w_out.value
            + self.bias.value
        )
        mask = z > 0
        self._cache = (h, m_in, m_out, agg_in, agg_out, mask)
        return np.where(mask, z, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        assert self._cache is not None, "backward before forward"
        h, m_in, m_out, agg_in, agg_out, mask = self._cache
        self._cache = None
        dz = np.where(mask, grad_output, 0.0)
        self.w_self.grad += weight_gradient(h, dz)
        self.w_in.grad += weight_gradient(m_in, dz)
        self.w_out.grad += weight_gradient(m_out, dz)
        self.bias.grad += bias_gradient(dz)
        dh = dz @ self.w_self.value.T
        dh += agg_in.swapaxes(-1, -2) @ (dz @ self.w_in.value.T)
        dh += agg_out.swapaxes(-1, -2) @ (dz @ self.w_out.value.T)
        return dh

    def parameters(self) -> list[Parameter]:
        return [self.w_self, self.w_in, self.w_out, self.bias]


class FuseLayer:
    """Eq. 3: h'' = FUSE(h' || p), preserving the hidden dimension."""

    def __init__(self, rng: np.random.Generator, hidden_dim: int) -> None:
        self._linear = Linear(rng, hidden_dim + 1, hidden_dim)
        self._relu = ReLU()

    def forward(self, h: np.ndarray, parallelism: np.ndarray) -> np.ndarray:
        """``parallelism`` holds the normalised degree of each row of ``h``,
        as a trailing column or without it."""
        if parallelism.ndim < h.ndim:
            parallelism = parallelism[..., None]
        fused = np.concatenate([h, parallelism], axis=-1)
        return self._relu.forward(self._linear.forward(fused))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Returns the gradient w.r.t. h (the parallelism column is input)."""
        grad_fused = self._linear.backward(self._relu.backward(grad_output))
        return grad_fused[..., :-1]

    def parameters(self) -> list[Parameter]:
        return self._linear.parameters()


def normalized_adjacency(
    n_nodes: int,
    edges: list[tuple[int, int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalised in/out aggregation matrices for mean aggregation.

    ``agg_in[v, u] = 1/|in(v)|`` for each edge u -> v, and symmetrically
    ``agg_out[v, w] = 1/|out(v)|`` for each edge v -> w.
    """
    agg_in = np.zeros((n_nodes, n_nodes))
    agg_out = np.zeros((n_nodes, n_nodes))
    for u, v in edges:
        agg_in[v, u] = 1.0
        agg_out[u, v] = 1.0
    for matrix in (agg_in, agg_out):
        degree = matrix.sum(axis=1, keepdims=True)
        np.divide(matrix, degree, out=matrix, where=degree > 0)
    return agg_in, agg_out
