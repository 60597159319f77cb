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
    :meth:`scale_gradients` are each a few whole-buffer numpy operations,
    written in place into preallocated buffers.  All of them are
    element-wise and keep each element's operation order, so the result is
    bit-identical to updating parameter by parameter, out of place.  Write
    into a parameter in place (``grad[...] =``, ``+=``): rebinding
    ``value`` or ``grad`` detaches it.
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
        self._scratch, self._update = np.empty(total), np.empty(total)

    def zero_grad(self) -> None:
        self._grads.fill(0.0)

    def scale_gradients(self, factor: float) -> None:
        """Multiply every accumulated gradient by ``factor``."""
        self._grads *= factor

    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - BETA1 ** self._step
        bias2 = 1.0 - BETA2 ** self._step
        grad, scratch, update = self._grads, self._scratch, self._update
        if self.weight_decay > 0:
            self._values *= 1.0 - self.learning_rate * self.weight_decay
        # m = BETA1 * m + (1 - BETA1) * grad
        self._m *= BETA1
        self._m += np.multiply(grad, 1.0 - BETA1, out=scratch)
        # v = BETA2 * v + (1 - BETA2) * grad * grad
        self._v *= BETA2
        self._v += np.multiply(np.multiply(grad, 1.0 - BETA2, out=scratch), grad, out=scratch)
        # values -= learning_rate * (m / bias1) / (sqrt(v / bias2) + EPSILON)
        denominator = np.sqrt(np.divide(self._v, bias2, out=scratch), out=scratch)
        denominator += EPSILON
        np.multiply(np.divide(self._m, bias1, out=update), self.learning_rate, out=update)
        self._values -= np.divide(update, denominator, out=update)
