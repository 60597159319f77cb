"""Deterministic random-number helpers.

Every stochastic component in the library (history generation, measurement
noise, model initialisation, clustering restarts) draws from an explicitly
seeded :class:`numpy.random.Generator`.  Experiments are therefore exactly
reproducible from their seed.
"""

from __future__ import annotations

import numpy as np

_DEFAULT_SEED = 20250711


def stable_hash(text: str, modulus: int = 2**31 - 1) -> int:
    """Deterministic string hash (``hash()`` is salted per process)."""
    import zlib

    return zlib.crc32(text.encode("utf-8")) % modulus


def seeded_rng(seed: int | None = None) -> np.random.Generator:
    """Return a fresh generator seeded with ``seed`` (library default if None)."""
    if seed is None:
        seed = _DEFAULT_SEED
    return np.random.default_rng(seed)
