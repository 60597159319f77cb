"""Minimal 1-D Gaussian process regression (ContTune's surrogate model).

RBF kernel with observation noise, constant mean, solved with numpy against
the noisy kernel matrix (at most a few dozen points).  ContTune
models each operator's per-instance processing rate as a GP over the
parallelism degree and acts on a conservative lower confidence bound
``mu(p) - alpha * sigma(p)`` (paper §V-A sets alpha = 3).
"""

from __future__ import annotations

import numpy as np

#: The observation noise variance as a share of the signal variance.
NOISE_SHARE = 0.05


class GaussianProcess1D:
    """GP regression on scalar inputs with an RBF kernel."""

    def __init__(self, length_scale: float = 10.0) -> None:
        if length_scale <= 0:
            raise ValueError("length_scale must be positive")
        self.length_scale = length_scale
        self.signal_variance: float | None = None
        self._x: np.ndarray | None = None
        self._mean = 0.0
        self._noisy_kernel: np.ndarray | None = None
        self._alpha: np.ndarray | None = None

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        assert self.signal_variance is not None
        diff = a[:, None] - b[None, :]
        return self.signal_variance * np.exp(-0.5 * (diff / self.length_scale) ** 2)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "GaussianProcess1D":
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if len(x) != len(y) or len(x) == 0:
            raise ValueError("x and y must be equal-length and non-empty")
        self._x = x
        self._mean = float(y.mean())
        centered = y - self._mean
        self.signal_variance = max(float(centered.var()), 1e-12 + 0.01 * self._mean**2)
        noise_variance = NOISE_SHARE * self.signal_variance + 1e-12
        self._noisy_kernel = self._kernel(x, x) + noise_variance * np.eye(len(x))
        self._alpha = np.linalg.solve(self._noisy_kernel, centered)
        return self

    def predict(self, x_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at ``x_new``."""
        if self._x is None:
            raise RuntimeError("GP is not fitted")
        x_new = np.asarray(x_new, dtype=np.float64).reshape(-1)
        k_star = self._kernel(x_new, self._x)
        mean = self._mean + k_star @ self._alpha
        v = np.linalg.solve(self._noisy_kernel, k_star.T)
        prior = self._kernel(x_new, x_new).diagonal()
        variance = np.maximum(prior - np.einsum("ij,ji->i", k_star, v), 1e-12)
        return mean, np.sqrt(variance)

    def lower_confidence_bound(self, x_new: np.ndarray, alpha: float) -> np.ndarray:
        """mu(x) - alpha * sigma(x): ContTune's conservative estimate."""
        mean, std = self.predict(x_new)
        return mean - alpha * std
