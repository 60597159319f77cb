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


def spawn_rng(rng: np.random.Generator, key: str) -> np.random.Generator:
    """Derive an independent child generator from ``rng`` and a string key.

    The key is folded into the child seed so that two subsystems spawned from
    the same parent do not share a stream, and re-ordering unrelated draws in
    one subsystem cannot perturb another.
    """
    key_digest = np.frombuffer(key.encode("utf-8"), dtype=np.uint8).sum()
    child_seed = int(rng.integers(0, 2**31 - 1)) ^ (int(key_digest) * 2654435761 % 2**31)
    return np.random.default_rng(child_seed)
