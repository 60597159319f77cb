"""Adam optimiser over :class:`~repro.gnn.layers.Parameter` lists."""

from __future__ import annotations

import numpy as np

from repro.gnn.layers import Parameter

#: Adam's moment decay rates and the denominator guard.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Standard Adam with optional decoupled weight decay.

    The optimiser owns its parameters' storage.  Construction copies every
    parameter into one flat value buffer and one flat gradient buffer and
    rebinds each ``Parameter.value``/``.grad`` to a reshaped view of its
    slice, so the update, the weight decay, :meth:`zero_grad` and
    :meth:`scale_gradients` are each a few whole-buffer numpy operations.
    All of them are element-wise, so the result is bit-identical to
    updating parameter by parameter.  Write into a parameter in place
    (``grad[...] =``, ``+=``): rebinding ``value`` or ``grad`` detaches it.
    """

    def __init__(
        self,
        parameters: list[Parameter],
        learning_rate: float = 1e-2,
        weight_decay: float = 0.0,
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self._step = 0
        total = sum(parameter.value.size for parameter in parameters)
        self._values, self._grads = np.empty(total), np.empty(total)
        offset = 0
        for parameter in parameters:
            stop = offset + parameter.value.size
            self._values[offset:stop] = parameter.value.reshape(-1)
            self._grads[offset:stop] = parameter.grad.reshape(-1)
            parameter.value = self._values[offset:stop].reshape(parameter.shape)
            parameter.grad = self._grads[offset:stop].reshape(parameter.shape)
            offset = stop
        self._m, self._v = np.zeros(total), np.zeros(total)

    def zero_grad(self) -> None:
        self._grads.fill(0.0)

    def scale_gradients(self, factor: float) -> None:
        """Multiply every accumulated gradient by ``factor``."""
        self._grads *= factor

    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - BETA1 ** self._step
        bias2 = 1.0 - BETA2 ** self._step
        grad = self._grads
        if self.weight_decay > 0:
            self._values *= 1.0 - self.learning_rate * self.weight_decay
        self._m = BETA1 * self._m + (1.0 - BETA1) * grad
        self._v = BETA2 * self._v + (1.0 - BETA2) * grad * grad
        m_hat = self._m / bias1
        v_hat = self._v / bias2
        self._values -= self.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)
