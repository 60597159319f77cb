"""Cache-plane value handling: the snapshot codec and v3 layout.

Covers the value codec a :class:`~repro.service.cache.TuningCacheSet`
snapshot carries (arrays, datasets and pickled values round-trip
bit-identically), the v3 snapshot layout (older versions are rejected),
counter isolation of a pickled cache, LRU eviction, and the warm-up
cache key's cluster history signature.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core.finetune import (
    PredictionDataset,
    cluster_history_signature,
    warmup_cache_key,
)
from repro.service.cache import (
    ConcurrentLRUCache,
    SnapshotError,
    TuningCacheSet,
)
from tests.conftest import cached_entry


def _dataset(seed: int, rows: int = 5, dim: int = 3) -> PredictionDataset:
    rng = np.random.default_rng(seed)
    ds = PredictionDataset()
    for i in range(rows):
        ds.append(rng.normal(size=dim), int(i % 2))
    return ds


# ----------------------------------------------------------------------
# value codec
# ----------------------------------------------------------------------

def _ragged_dataset() -> PredictionDataset:
    ds = PredictionDataset()
    ds.features = [np.zeros(3), np.zeros(5)]   # unstackable
    ds.labels = [0, 1]
    return ds


def _same_value(mine, theirs) -> bool:
    """Bit-for-bit equality of two cache values."""
    if isinstance(mine, np.ndarray):
        return mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()
    if isinstance(mine, PredictionDataset):
        return (
            isinstance(theirs, PredictionDataset)
            and mine.labels == theirs.labels
            and len(mine.features) == len(theirs.features)
            and all(map(_same_value, mine.features, theirs.features))
        )
    return mine == theirs


class TestSectionCodec:
    @pytest.mark.parametrize(
        "make, kind",
        [
            pytest.param(
                lambda: np.random.default_rng(7).normal(size=(4, 6)), "array",
                id="array",
            ),
            pytest.param(lambda: _dataset(21), "dataset", id="dataset"),
            pytest.param(_ragged_dataset, "pickled", id="ragged-dataset"),
            pytest.param(lambda: {"cluster": 3}, "pickled", id="scalar"),
        ],
    )
    def test_codec_roundtrip(self, make, kind, tmp_path):
        # The snapshot's codec records the value's kind and its round trip
        # returns exactly the bytes that went in.
        value = make()
        assert TuningCacheSet._encode_snapshot_value(value)[0] == kind
        caches = TuningCacheSet()
        caches.get_or_compute("embed", ("k",), lambda: value)
        caches.save(tmp_path / "caches.pkl")
        loaded = TuningCacheSet.load(tmp_path / "caches.pkl")
        assert _same_value(value, cached_entry(loaded, "embed", ("k",)))

# ----------------------------------------------------------------------
# S1: a pickled copy's counters start at zero
# ----------------------------------------------------------------------

class TestCounterIsolation:
    def test_pickled_cache_zeroes_hit_miss_counters(self):
        cache = ConcurrentLRUCache(maxsize=8)
        cache.get_or_compute("a", lambda: 1)   # miss
        cache.get_or_compute("a", lambda: 1)   # hit
        assert (cache.hits, cache.misses) == (1, 1)
        copy = pickle.loads(pickle.dumps(cache))
        assert (copy.hits, copy.misses) == (0, 0)
        assert copy.get("a") == 1              # data still travelled


# ----------------------------------------------------------------------
# S3: eviction order
# ----------------------------------------------------------------------

class TestProxiedEviction:
    def test_local_cache_evicts_least_recently_used(self):
        cache = ConcurrentLRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")                         # refresh a
        cache.put("c", 3)                      # evicts b
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3


# ----------------------------------------------------------------------
# S2: v3 snapshots
# ----------------------------------------------------------------------

class TestSnapshotV3:
    def _populated(self) -> TuningCacheSet:
        caches = TuningCacheSet()
        entries = {
            "assign": (("sig",), 1),
            "embed": (("e", 0), np.random.default_rng(1).normal(size=(4, 3))),
            "warmup": (("w", 300, 17, True), _dataset(41)),
            "distill": (("d", 0), _dataset(42)),
        }
        for kind, (key, value) in entries.items():
            caches.get_or_compute(kind, key, lambda value=value: value)
        return caches

    def test_save_load_roundtrip_bit_identical(self, tmp_path):
        caches = self._populated()
        path = tmp_path / "caches.pkl"
        caches.save(path)
        loaded = TuningCacheSet.load(path)
        embedded = cached_entry(loaded, "embed", ("e", 0))
        assert embedded.tobytes() == cached_entry(caches, "embed", ("e", 0)).tobytes()
        warm = cached_entry(loaded, "warmup", ("w", 300, 17, True))
        original = cached_entry(caches, "warmup", ("w", 300, 17, True))
        assert warm.labels == original.labels
        for mine, theirs in zip(original.features, warm.features):
            assert mine.tobytes() == theirs.tobytes()
        assert cached_entry(loaded, "assign", ("sig",)) == 1

    def test_snapshot_written_by_the_parent_commit_loads_with_no_miss(self):
        # tests/data/cache_snapshot_v3.pkl was saved by the commit before
        # the value codec moved next to PredictionDataset; format v3 did
        # not change, so every entry is served, bit-identical.
        loaded = TuningCacheSet.load(
            Path(__file__).parent / "data" / "cache_snapshot_v3.pkl"
        )
        expected = {
            "assign": {("sig",): 1},
            "embed": {("e", 0): np.random.default_rng(1).normal(size=(4, 3))},
            "warmup": {("w", 300, 17): _dataset(41)},
            "distill": {("d", 0): _dataset(42), ("d", 1): _ragged_dataset()},
        }

        def missed():
            raise AssertionError("a recorded entry was not served")

        for kind, entries in expected.items():
            for key, value in entries.items():
                assert _same_value(value, loaded.get_or_compute(kind, key, missed))
        stats = loaded.stats()
        assert {kind: stats[kind]["size"] for kind in expected} == {
            kind: len(entries) for kind, entries in expected.items()
        }
        assert all(section["misses"] == 0 for section in stats.values())

    def test_reencoding_the_committed_snapshot_gives_its_records(self):
        # Every record of the committed v3 file, decoded and encoded again,
        # comes back byte for byte: the layout did not move.
        path = Path(__file__).parent / "data" / "cache_snapshot_v3.pkl"
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        records = 0
        for meta in payload["sections"].values():
            for _, record in meta["entries"]:
                value = TuningCacheSet._decode_snapshot_value(record)
                again = TuningCacheSet._encode_snapshot_value(value)
                assert pickle.dumps(again) == pickle.dumps(record)
                records += 1
        assert records == 5

    def _stale_snapshot(self, tmp_path, version: int) -> Path:
        stale = tmp_path / f"v{version}.pkl"
        stale.write_bytes(pickle.dumps({
            "format": "repro.service.TuningCacheSet",
            "version": version,
            "sections": {},
        }))
        return stale

    def test_v2_snapshot_is_rejected_naming_both_versions(self, tmp_path):
        with pytest.raises(SnapshotError, match="version 2.*version 3.*regenerate"):
            TuningCacheSet.load(self._stale_snapshot(tmp_path, 2))

    def test_v1_snapshot_is_a_targeted_migration_error(self, tmp_path):
        with pytest.raises(SnapshotError, match="version 1.*version 3.*regenerate"):
            TuningCacheSet.load(self._stale_snapshot(tmp_path, 1))


# ----------------------------------------------------------------------
# warm-up signature sharing
# ----------------------------------------------------------------------

class TestWarmupSignature:
    def test_signature_is_stable_and_memoized(self, tiny_pretrained):
        first = cluster_history_signature(tiny_pretrained, 0)
        second = cluster_history_signature(tiny_pretrained, 0)
        assert first == second
        assert len(first) == 64               # sha256 hex
        assert tiny_pretrained._cluster_signatures[0] == first

    def test_distinct_clusters_distinct_signatures(self, tiny_pretrained):
        assert cluster_history_signature(
            tiny_pretrained, 0
        ) != cluster_history_signature(tiny_pretrained, 1)

    def test_warmup_cache_key_carries_no_cluster_id(self, tiny_pretrained):
        key = warmup_cache_key(tiny_pretrained, 0, 300, 17)
        assert key == (cluster_history_signature(tiny_pretrained, 0), 300, 17)
