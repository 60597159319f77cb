"""Dense layers with explicit forward/backward passes.

Each layer caches what its backward pass needs from the most recent
forward call; the training loop therefore runs forward -> loss -> backward
per graph before touching the next one (gradients accumulate across a
mini-batch in the parameters' ``grad`` buffers).  The first layer of a
stack calls :meth:`Linear.accumulate`, which skips the input gradient
nobody reads.
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


class Linear:
    """Affine map y = x W + b."""

    def __init__(self, rng: np.random.Generator, in_dim: int, out_dim: int) -> None:
        self.weight = Parameter(glorot(rng, in_dim, out_dim))
        self.bias = Parameter(np.zeros(out_dim))
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = x
        return x @ self.weight.value + self.bias.value

    def accumulate(self, grad_output: np.ndarray) -> None:
        """Add the parameter gradients only; the input gradient is skipped."""
        assert self._input is not None, "backward before forward"
        self.weight.grad += self._input.T @ grad_output
        self.bias.grad += grad_output.sum(axis=0)

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
        return np.where(self._mask, grad_output, 0.0)

    def parameters(self) -> list[Parameter]:
        return []
