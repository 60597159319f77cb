"""Concurrency-safe lookaside caches for the tuning service.

Three layers:

* :class:`ConcurrentLRUCache` — a bounded, single-flight
  ``get_or_compute`` LRU cache safe under threads (a lock, a condition
  and an ordered dict); it pickles as a snapshot under a fresh lock with
  zeroed hit/miss counters and nothing in flight.
* :class:`TuningCacheSet` — the kind-routed facade the tuner consults
  (``assign`` / ``warmup`` / ``distill`` / ``embed`` sections, one cache
  each) via ``get_or_compute(kind, key, builder)``.
* :class:`SharedGEDCache` — a :class:`repro.ged.search.GEDCache`-compatible
  wrapper that funnels pairwise GED distances and threshold verifications
  through a concurrency-safe store, so one service run never computes the
  same graph pair twice even across campaigns.

All cached values are pure functions of their key, so a cache hit is
*bit-identical* to a recomputation — concurrent campaigns stay exactly
reproducible no matter which worker populated an entry first.
"""

from __future__ import annotations

import pickle
import threading
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.core.finetune import PredictionDataset
from repro.ged.astar_lsa import astar_lsa_ged
from repro.ged.bounds import combined_bound
from repro.ged.search import BOUND_SLACK, nearest_center
from repro.ged.view import as_view

class SnapshotError(ValueError):
    """A :meth:`TuningCacheSet.load` snapshot is unreadable or incompatible.

    A ``ValueError`` subclass so existing ``except ValueError`` callers
    keep working; the message always names the file and — for version
    mismatches — both the snapshot's version and the version this build
    reads.
    """


class ConcurrentLRUCache:
    """A bounded, thread-safe LRU cache with single-flight ``get_or_compute``.

    Builders run *outside* the lock, so an expensive miss never serialises
    other keys' hits.  A key is built once: a miss on a key another thread
    is building waits for that build and counts as a hit, so ``misses``
    counts builder calls.  A builder that raises clears its in-flight mark
    and wakes the waiters; the first of them to look again builds the key
    itself.
    """

    def __init__(self, maxsize: int = 65536) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self._init_sync()
        self.hits = 0
        self.misses = 0

    def _init_sync(self) -> None:
        self._lock = threading.RLock()
        self._built = threading.Condition(self._lock)
        self._building: set = set()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    # A lock cannot be pickled.  A pickled cache (e.g. inside a copied
    # pretrained artifact) is a snapshot of the data under a fresh lock of
    # its own; a build in flight here is not one there.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in ("_lock", "_built", "_building"):
            del state[name]
        with self._lock:
            state["_data"] = OrderedDict(self._data)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._init_sync()
        # A pickled copy starts its own accounting: the copy's CacheStats
        # count only the traffic it serves.
        self.hits = 0
        self.misses = 0

    def get(self, key, default=None):
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                return default
            self._data.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def get_or_compute(self, key, builder):
        """Return the cached value for ``key``, computing it on a miss
        unless another thread already is (then wait for its value)."""
        with self._lock:
            while key in self._building and key not in self._data:
                self._built.wait()
            if key in self._data:
                self.hits += 1
                self._data.move_to_end(key)
                return self._data[key]
            self.misses += 1
            self._building.add(key)
        try:
            value = builder()
            self.put(key, value)
        finally:
            with self._lock:
                self._building.discard(key)
                self._built.notify_all()
        return value

    def items_snapshot(self) -> list[tuple]:
        """Every ``(key, value)`` pair, least recently used first — what
        snapshot persistence iterates."""
        with self._lock:
            return list(self._data.items())

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "size": len(self._data), "hits": self.hits, "misses": self.misses
            }


#: Cache sections the tuner consults, with per-section capacity defaults.
#: ``assign`` entries are a handful of bytes; ``warmup`` datasets are the
#: largest (hundreds of rows), so their section is kept deliberately small.
CACHE_SECTIONS: dict[str, int] = {
    "assign": 65536,
    "warmup": 64,
    "distill": 4096,
    "embed": 4096,
}


class TuningCacheSet:
    """Kind-routed cache facade shared by every campaign of a service run."""

    def __init__(self, sections: dict[str, int] | None = None) -> None:
        sections = dict(CACHE_SECTIONS if sections is None else sections)
        self._caches = {
            kind: ConcurrentLRUCache(maxsize=size)
            for kind, size in sections.items()
        }

    def get_or_compute(self, kind: str, key, builder):
        cache = self._caches.get(kind)
        if cache is None:
            # Unknown section: compute without caching rather than failing —
            # the tuner may grow new sections before every deployment of the
            # service learns about them.
            return builder()
        return cache.get_or_compute(key, builder)

    def stats(self) -> dict[str, dict[str, int]]:
        return {kind: cache.stats() for kind, cache in self._caches.items()}

    def clear(self) -> None:
        for cache in self._caches.values():
            cache.clear()

    # -- persistence ----------------------------------------------------
    #
    # Every cached value is a pure function of its key, so a snapshot
    # taken after one service run warms the next run *exactly*: a loaded
    # entry returns bit-identically what a recomputation would.

    #: On-disk snapshot format version; bump on incompatible layout change.
    #: v3: numpy payloads are stored as ``(dtype, shape, bytes)`` records,
    #: ``distill``/``embed`` are keyed by the cross-query structure
    #: signature and ``warmup`` by the cluster *history signature*.  Other
    #: versions are rejected.
    SNAPSHOT_VERSION = 3
    _SNAPSHOT_FORMAT = "repro.service.TuningCacheSet"

    @staticmethod
    def _encode_snapshot_value(value):
        """One cache value -> a self-describing snapshot record.

        ``("array", dtype, shape, bytes)`` for a bare matrix (``embed``);
        ``("dataset", dtype, shape, bytes, labels)`` for a
        :class:`PredictionDataset` (``warmup``/``distill``): its stacked
        feature matrix plus its labels as a list of ints; anything else —
        a scalar, an empty or ragged dataset — is ``("pickled", value)``
        and the surrounding pickle handles it.
        """
        extras: tuple = ()
        if isinstance(value, np.ndarray):
            kind, head = "array", value
        elif isinstance(value, PredictionDataset) and value.labels:
            try:
                head, labels = value.matrices()
            except ValueError:          # ragged rows do not stack
                return ("pickled", value)
            kind, extras = "dataset", (labels.tolist(),)
        else:
            return ("pickled", value)
        head = np.ascontiguousarray(head)
        return (kind, str(head.dtype), tuple(head.shape), head.tobytes(), *extras)

    @staticmethod
    def _decode_snapshot_value(record):
        """Inverse of :meth:`_encode_snapshot_value`.

        A dataset's rows are views into its one feature matrix — cached
        pure values are never mutated, and every row carries exactly the
        bytes that were encoded.
        """
        if record[0] == "pickled":
            return record[1]
        kind, dtype, shape, data, *extras = record
        head = np.frombuffer(data, dtype=np.dtype(dtype)).reshape(shape).copy()
        if kind == "array":
            return head
        if kind != "dataset":
            raise ValueError(f"unknown cache value kind {kind!r}")
        (labels,) = extras
        dataset = PredictionDataset()
        dataset.features = [head[index] for index in range(len(labels))]
        dataset.labels = [int(label) for label in labels]
        return dataset

    def save(self, path: str | Path) -> None:
        """Write a versioned snapshot of every section's entries.

        The write is atomic (temp file + rename), so a crash mid-save
        never corrupts an existing snapshot.  Hit/miss counters are
        service-run accounting and are deliberately not persisted.
        """
        sections = {}
        for kind, cache in self._caches.items():
            entries = [
                (key, self._encode_snapshot_value(value))
                for key, value in cache.items_snapshot()
            ]
            sections[kind] = {"maxsize": cache.maxsize, "entries": entries}
        payload = {
            "format": self._SNAPSHOT_FORMAT,
            "version": self.SNAPSHOT_VERSION,
            "sections": sections,
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = path.with_name(path.name + ".tmp")
        with open(temp, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        temp.replace(path)

    @classmethod
    def load(cls, path: str | Path) -> "TuningCacheSet":
        """Rebuild a cache set from a :meth:`save` snapshot.

        Raises :class:`SnapshotError` (a ``ValueError``) with the file
        named when the bytes are not a snapshot at all or its layout is
        damaged (nothing is returned half-filled), and — for any
        version but :attr:`SNAPSHOT_VERSION` — a message naming *both* the
        snapshot's version and the version this build reads, checked
        before any section entry is touched so an incompatible layout
        never fails deep in unpickling.

        A v3 snapshot written before ``warmup`` keys lost their fourth
        (encoding-path) element still loads: its 4-tuple warm-up keys
        match no 3-tuple lookup, so they are never served and age out of
        the section's LRU bound — stale-free without a version bump.
        """
        path = Path(path)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except (pickle.UnpicklingError, EOFError, AttributeError, ImportError,
                IndexError) as error:
            # Everything the pickle machinery throws on corrupt/foreign
            # bytes, surfaced as one clear error naming the file.
            raise SnapshotError(
                f"{path} is not a TuningCacheSet snapshot (unreadable "
                f"pickle: {error})"
            ) from None
        if (
            not isinstance(payload, dict)
            or payload.get("format") != cls._SNAPSHOT_FORMAT
        ):
            raise SnapshotError(f"{path} is not a TuningCacheSet snapshot")
        version = payload.get("version")
        if version != cls.SNAPSHOT_VERSION:
            raise SnapshotError(
                f"{path} has snapshot version {version!r}; this build reads "
                f"version {cls.SNAPSHOT_VERSION} — regenerate the cache file"
            )
        # ``cache_path`` is outside input: a right-versioned file whose
        # layout is damaged (no ``sections``, a truncated array record, an
        # unhashable key) is the same one-line error, not a traceback.
        try:
            sections = payload["sections"]
            caches = cls(
                sections={kind: meta["maxsize"] for kind, meta in sections.items()}
            )
            for kind, meta in sections.items():
                section = caches._caches[kind]
                for key, record in meta["entries"]:
                    section.put(key, cls._decode_snapshot_value(record))
        except (KeyError, IndexError, TypeError, ValueError, AttributeError) as error:
            raise SnapshotError(
                f"{path} is a damaged TuningCacheSet snapshot "
                f"({type(error).__name__}: {error}) — regenerate the cache file"
            ) from None
        return caches


class SharedGEDCache:
    """Drop-in replacement for :class:`repro.ged.search.GEDCache`.

    Same public surface (``distance`` / ``within`` / ``hits`` / ``misses``)
    but both the exact-distance table and the threshold lower bounds live in
    :class:`ConcurrentLRUCache` stores, so cluster assignment — which calls
    ``distance`` against every cluster center — is safe from concurrent
    campaigns and never repeats a pairwise computation.  A cache hit
    returns exactly the float the first computation produced.
    """

    def __init__(self) -> None:
        self._exact = ConcurrentLRUCache()
        self._bounds = ConcurrentLRUCache()

    @property
    def hits(self) -> int:
        return self._exact.hits + self._bounds.hits

    @property
    def misses(self) -> int:
        return self._exact.misses + self._bounds.misses

    @staticmethod
    def _key(a, b) -> tuple[str, str]:
        return (a.signature, b.signature) if a.signature <= b.signature else (
            b.signature,
            a.signature,
        )

    def distance(self, graph1, graph2) -> float:
        a, b = as_view(graph1), as_view(graph2)
        key = self._key(a, b)

        def compute() -> float:
            value = astar_lsa_ged(a, b)
            assert value is not None
            return value

        return self._exact.get_or_compute(key, compute)

    def within(self, graph1, graph2, threshold: float) -> bool:
        a, b = as_view(graph1), as_view(graph2)
        key = self._key(a, b)
        known = self._exact.get(key, None)
        if known is not None:
            self._exact.hits += 1
            return known <= threshold + 1e-9
        bound = self._bounds.get(key, None)
        if bound is not None and bound > threshold:
            self._bounds.hits += 1
            return False
        self._bounds.misses += 1
        # Cheap admissible pre-filter (see GEDCache.within): a lower bound
        # beyond the threshold settles the predicate without any search.
        cheap = combined_bound(a, b)
        if cheap > threshold + BOUND_SLACK:
            self._bounds.put(key, max(bound or 0.0, cheap))
            return False
        value = astar_lsa_ged(a, b, threshold=threshold)
        if value is None:
            previous = self._bounds.get(key, 0.0)
            self._bounds.put(key, max(previous, threshold + BOUND_SLACK))
            return False
        self._exact.put(key, value)
        return True

    def nearest(self, graph, centers) -> int:
        """Bound-pruned nearest-center index, bit-identical to the
        exhaustive argmin (see :func:`repro.ged.search.nearest_center`);
        the hot path of concurrent cluster assignment."""
        return nearest_center(self, graph, centers)
