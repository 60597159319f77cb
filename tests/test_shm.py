"""The shared-memory cache plane and the cache-plane bugfix sweep.

Covers :mod:`repro.service.shm` (descriptor publication, zero-copy
attach, parent-owned lifecycle, leak-free exits), the v3 snapshot layout
(older versions are rejected), worker counter isolation, LRU eviction,
and bit-identical campaign results across start methods.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core.finetune import (
    PredictionDataset,
    cluster_history_signature,
    value_to_arrays,
    warmup_cache_key,
)
from repro.faults.invariants import shm_segments
from repro.service import CampaignSpec, TuningService
from repro.service.cache import (
    ConcurrentLRUCache,
    SnapshotError,
    TuningCacheSet,
)
from repro.service.shm import (
    SEGMENT_PREFIX,
    SharedArrayRef,
    SharedArrayStore,
    attach_sections,
    decode_value,
    publish_sections,
)
from repro.workloads import nexmark_query


def _dataset(seed: int, rows: int = 5, dim: int = 3) -> PredictionDataset:
    rng = np.random.default_rng(seed)
    ds = PredictionDataset()
    for i in range(rows):
        ds.append(rng.normal(size=dim), int(i % 2))
    return ds


def _spec(name: str, multipliers=(3,), seed: int = 41) -> CampaignSpec:
    return CampaignSpec(
        query=nexmark_query(name, "flink"),
        multipliers=tuple(multipliers),
        engine_seed=31,
        seed=seed,
    )


def _steps(outcome):
    return [
        [step.parallelisms for step in process.steps]
        for process in outcome.result.processes
    ]


# ----------------------------------------------------------------------
# SharedArrayStore
# ----------------------------------------------------------------------

class TestSharedArrayStore:
    def test_share_attach_roundtrip_is_bit_identical(self):
        source = np.random.default_rng(3).normal(size=(7, 5))
        with SharedArrayStore() as store:
            ref = store.share_all([source])[0]
            worker = SharedArrayStore()
            view = worker.attach(ref)
            np.testing.assert_array_equal(view, source)
            assert view.tobytes() == source.tobytes()
            assert not view.flags.writeable
            worker.close()
        assert shm_segments() == []

    def test_descriptor_is_pickle_cheap(self):
        big = np.zeros((512, 512))
        with SharedArrayStore() as store:
            ref = store.share_all([big])[0]
            shipped = pickle.dumps(ref, pickle.HIGHEST_PROTOCOL)
            assert len(shipped) < 512          # descriptor, not payload
            back = pickle.loads(shipped)
            assert back == ref
            assert ref.nbytes == big.nbytes

    def test_share_all_packs_one_segment(self):
        arrays = [np.full((4, 4), float(i)) for i in range(9)]
        with SharedArrayStore() as store:
            refs = store.share_all(arrays)
            assert len({ref.name for ref in refs}) == 1
            assert len(store._owned) + len(store._attached) == 1
            worker = SharedArrayStore()
            for ref, source in zip(refs, arrays):
                np.testing.assert_array_equal(worker.attach(ref), source)
            worker.close()
        assert shm_segments() == []

    def test_share_dedupes_by_identity(self):
        array = np.ones((3, 3))
        with SharedArrayStore() as store:
            first = store.share_all([array])[0]
            second = store.share_all([array])[0]
            assert first == second
            assert len(store._owned) + len(store._attached) == 1

    def test_close_unlinks_owned_segments_and_is_idempotent(self):
        store = SharedArrayStore()
        store.share_all([np.zeros(16)])
        assert shm_segments() != []
        store.close()
        assert shm_segments() == []
        store.close()                         # second close is a no-op
        with pytest.raises(ValueError, match="closed"):
            store.share_all([np.zeros(4)])
        with pytest.raises(ValueError, match="closed"):
            store.attach(SharedArrayRef("nope", "float64", (1,)))

    def test_fork_inherited_store_never_unlinks(self):
        from multiprocessing import shared_memory

        store = SharedArrayStore()
        ref = store.share_all([np.arange(8.0)])[0]
        try:
            # Simulate the fork-inherited copy: same state, foreign pid.
            store._owner_pid = os.getpid() + 1
            store.close()
            assert shm_segments() == [ref.name]   # parent's segment survived
        finally:
            orphan = shared_memory.SharedMemory(name=ref.name)
            orphan.close()
            orphan.unlink()
        assert shm_segments() == []

    def test_close_with_live_views_still_unlinks_names(self):
        # A caller-held view cannot pin the name: close() unlinks and
        # unmaps regardless (the view is invalid afterwards — same
        # contract as SharedMemory itself).
        store = SharedArrayStore()
        view = store.attach(store.share_all([np.arange(4.0)])[0])
        copied = np.array(view)               # read before close: fine
        store.close()
        assert shm_segments() == []           # name gone regardless
        np.testing.assert_array_equal(copied, np.arange(4.0))

    def test_atexit_cleans_up_an_abandoned_store(self):
        # A store the caller forgot to close must not leak past process
        # exit: the atexit hook unlinks owned segments.
        script = textwrap.dedent(
            """
            import numpy as np
            from repro.service.shm import SharedArrayStore
            store = SharedArrayStore()
            ref = store.share_all([np.zeros((64, 64))])[0]
            print(ref.name)
            """
        )
        env = dict(os.environ, PYTHONPATH="src")
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env,
            cwd=Path(__file__).parent.parent, check=True,
        )
        name = result.stdout.strip()
        assert name.startswith(SEGMENT_PREFIX)
        assert not (Path("/dev/shm") / name).exists()


# ----------------------------------------------------------------------
# value codec + section publication
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
        # One codec (core.finetune.value_to_arrays), two carriers: the
        # cache snapshot and the shared-memory plane both return exactly
        # the bytes that went in.
        value = make()
        assert value_to_arrays(value)[0] == kind
        caches = TuningCacheSet()
        caches.section("embed").put(("k",), value)
        caches.save(tmp_path / "caches.pkl")
        loaded = TuningCacheSet.load(tmp_path / "caches.pkl")
        assert _same_value(value, loaded.section("embed").get(("k",)))
        with SharedArrayStore() as store:
            payload = publish_sections({"embed": [(("k",), value)]}, store)
            assert payload["embed"][0][1][0] == kind
            worker = SharedArrayStore()
            ((key, back),) = attach_sections(payload, worker)["embed"]
            assert key == ("k",)
            assert _same_value(value, back)
            worker.close()
        assert shm_segments() == []

    def test_unknown_encoding_rejected(self):
        with SharedArrayStore() as store:
            with pytest.raises(ValueError, match="unknown"):
                decode_value(("mystery", b""), store)

    def test_publish_attach_sections_roundtrip(self):
        entries = {
            "embed": [(("k", i), np.full((3, 3), float(i))) for i in range(4)],
            "warmup": [(("w", 0), _dataset(31))],
            "assign": [(("sig",), 2)],
        }
        with SharedArrayStore() as store:
            payload = publish_sections(entries, store)
            # One arena for the whole publication.
            assert len(store._owned) + len(store._attached) == 1
            worker = SharedArrayStore()
            back = attach_sections(payload, worker)
            assert back["assign"] == [(("sig",), 2)]
            for (_, mine), (_, theirs) in zip(entries["embed"], back["embed"]):
                assert mine.tobytes() == theirs.tobytes()
            assert back["warmup"][0][1].labels == entries["warmup"][0][1].labels
            worker.close()
        assert shm_segments() == []


# ----------------------------------------------------------------------
# S1: worker counters start at zero + stats merging
# ----------------------------------------------------------------------

class TestCounterIsolation:
    def test_pickled_cache_zeroes_hit_miss_counters(self):
        cache = ConcurrentLRUCache(maxsize=8)
        cache.get_or_compute("a", lambda: 1)   # miss
        cache.get_or_compute("a", lambda: 1)   # hit
        assert (cache.hits, cache.misses) == (1, 1)
        worker = pickle.loads(pickle.dumps(cache))
        assert (worker.hits, worker.misses) == (0, 0)
        assert worker.get("a") == 1            # data still travelled


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
# S2 + tentpole: v3 snapshots, shared-memory loading
# ----------------------------------------------------------------------

class TestSnapshotV3:
    def _populated(self) -> TuningCacheSet:
        caches = TuningCacheSet()
        caches.section("assign").put(("sig",), 1)
        caches.section("embed").put(("e", 0), np.random.default_rng(1).normal(size=(4, 3)))
        caches.section("warmup").put(("w", 300, 17, True), _dataset(41))
        caches.section("distill").put(("d", 0), _dataset(42))
        return caches

    def test_save_load_roundtrip_bit_identical(self, tmp_path):
        caches = self._populated()
        path = tmp_path / "caches.pkl"
        caches.save(path)
        loaded = TuningCacheSet.load(path)
        embedded = loaded.section("embed").get(("e", 0))
        assert embedded.tobytes() == caches.section("embed").get(("e", 0)).tobytes()
        warm = loaded.section("warmup").get(("w", 300, 17, True))
        original = caches.section("warmup").get(("w", 300, 17, True))
        assert warm.labels == original.labels
        for mine, theirs in zip(original.features, warm.features):
            assert mine.tobytes() == theirs.tobytes()
        assert loaded.section("assign").get(("sig",)) == 1

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


# ----------------------------------------------------------------------
# S5 + tentpole: process fleets over the shared plane
# ----------------------------------------------------------------------

class TestProcessFleetSharedPlane:
    def test_process_results_bit_identical_and_leak_free(self, tiny_pretrained):
        specs = [_spec("q1")]
        reference = TuningService(tiny_pretrained, backend="sequential").run(specs)
        service = TuningService(tiny_pretrained, backend="process", max_workers=2)
        outcomes = service.run(specs)
        assert _steps(outcomes[0]) == _steps(reference[0])
        assert service.last_prewarm["warmup"] >= 1
        assert shm_segments() == []

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_start_methods_agree_bit_for_bit(
        self, tiny_pretrained, start_method, monkeypatch
    ):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        reference = TuningService(tiny_pretrained, backend="sequential").run(
            [_spec("q1")]
        )
        monkeypatch.setattr(TuningService, "start_method", start_method)
        service = TuningService(tiny_pretrained, backend="process", max_workers=2)
        outcomes = service.run([_spec("q1")])
        assert _steps(outcomes[0]) == _steps(reference[0])
        assert shm_segments() == []

    def test_injected_store_is_caller_owned(self, tiny_pretrained):
        store = SharedArrayStore()
        try:
            service = TuningService(
                tiny_pretrained, backend="process", max_workers=2,
                shm_store=store,
            )
            service.run([_spec("q1")])
            # The service must not have closed the injected store.
            store.share_all([np.zeros(4)])[0]
        finally:
            store.close()
        assert shm_segments() == []

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="patched worker reaches the pool only under fork",
    )
    def test_killed_worker_leaks_no_segments(self, tiny_pretrained, monkeypatch):
        # A worker dying outright (no atexit in the child) must not
        # strand segments: the parent owns them and cleans up in the
        # stream's finally.
        import repro.service.tuning as tuning
        from repro.api.events import CampaignFailed

        def _die_without_reporting(spec, unit, relay):
            os._exit(13)

        monkeypatch.setattr(tuning, "_run_unit", _die_without_reporting)
        service = TuningService(tiny_pretrained, backend="process", max_workers=1)
        service.poll_seconds = 0.05
        events = list(service.stream([_spec("q1")]))   # must terminate
        assert any(isinstance(e, CampaignFailed) for e in events)
        assert shm_segments() == []
