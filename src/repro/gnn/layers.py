"""Dense layers with explicit forward/backward passes.

Each layer caches what its backward pass needs from the most recent
forward call, so a training step runs forward -> loss -> backward on one
input before the next forward; the backward releases the cache, so a
trained model keeps none of its last minibatch.  The layers are
rank-generic: an input is either one graph's ``(n, d)`` rows or a padded
minibatch ``(B, n_max, d)`` with a leading batch axis.  A 2-D input runs
exactly the per-graph BLAS calls; on a batch, every product is still one
matrix product per graph, and a weight or bias gradient sums its
per-graph terms over the batch axis in batch order -- the order in which
per-graph ``+=`` calls would have accumulated them -- so a batched step
is byte-identical to the per-graph loop.  The first layer of a stack
calls :meth:`Linear.accumulate`, which skips the input gradient nobody
reads.
"""

from __future__ import annotations

import numpy as np


class Parameter:
    """A trainable tensor with an accumulated gradient buffer.

    An :class:`~repro.gnn.optim.Adam` built over a parameter rebinds both
    arrays to views of its flat buffers; update them in place.
    """

    def __init__(self, value: np.ndarray) -> None:
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialisation."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def weight_gradient(x: np.ndarray, grad_output: np.ndarray) -> np.ndarray:
    """``x^T @ grad_output`` of each graph, summed over the batch axis in
    batch order.  One product over all stacked rows would change the
    summation order, and so the last ulp of the gradient."""
    return np.add.reduce(x.swapaxes(-1, -2) @ grad_output, axis=tuple(range(x.ndim - 2)))


def bias_gradient(grad_output: np.ndarray) -> np.ndarray:
    """Each graph's row sum of ``grad_output``, summed in batch order."""
    return np.add.reduce(grad_output.sum(axis=-2), axis=tuple(range(grad_output.ndim - 2)))


class Linear:
    """Affine map y = x W + b."""

    def __init__(self, rng: np.random.Generator, in_dim: int, out_dim: int) -> None:
        self.weight = Parameter(glorot(rng, in_dim, out_dim))
        self.bias = Parameter(np.zeros(out_dim))
        self._input: np.ndarray | None = None
        self._sizes: np.ndarray | None = None

    def forward(self, x: np.ndarray, sizes: np.ndarray | None = None) -> np.ndarray:
        """``sizes``, a padded batch's node counts, runs the map graph by
        graph on the real rows only (padding rows come out zero).  A
        product with one output column is a GEMV, whose rounding depends
        on its row count, so padding would change its last ulp."""
        self._input, self._sizes = x, sizes
        if sizes is None:
            return x @ self.weight.value + self.bias.value
        out = np.zeros(x.shape[:-1] + self.bias.shape)
        for rows, graph, n in zip(out, x, sizes):
            rows[:n] = graph[:n] @ self.weight.value + self.bias.value
        return out

    def accumulate(self, grad_output: np.ndarray) -> None:
        """Add the parameter gradients only; the input gradient is skipped."""
        assert self._input is not None, "backward before forward"
        x, sizes, self._input, self._sizes = self._input, self._sizes, None, None
        if sizes is None:
            self.weight.grad += weight_gradient(x, grad_output)
            self.bias.grad += bias_gradient(grad_output)
            return
        for graph, grad, n in zip(x, grad_output, sizes):
            self.weight.grad += graph[:n].T @ grad[:n]
            self.bias.grad += grad[:n].sum(axis=0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self.accumulate(grad_output)
        return grad_output @ self.weight.value.T

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]


class ReLU:
    """Elementwise rectifier."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        assert self._mask is not None, "backward before forward"
        mask, self._mask = self._mask, None
        return np.where(mask, grad_output, 0.0)

    def parameters(self) -> list[Parameter]:
        return []
