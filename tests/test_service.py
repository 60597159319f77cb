"""Tests for the concurrent tuning service: caches, scheduler, service."""

from __future__ import annotations

import threading

import pytest

from repro.service import (
    BackpressureScheduler,
    CampaignSpec,
    ConcurrentLRUCache,
    FifoScheduler,
    TuningCacheSet,
    TuningService,
)
from repro.service.cache import SharedGEDCache
from repro.workloads import nexmark_query


# ----------------------------------------------------------------------
# ConcurrentLRUCache
# ----------------------------------------------------------------------

class TestConcurrentLRUCache:
    def test_get_or_compute_caches(self):
        cache = ConcurrentLRUCache(maxsize=4)
        calls = []

        def build():
            calls.append(1)
            return 42

        assert cache.get_or_compute("k", build) == 42
        assert cache.get_or_compute("k", build) == 42
        assert len(calls) == 1
        assert cache.stats() == {"size": 1, "hits": 1, "misses": 1}

    def test_lru_eviction_order(self):
        cache = ConcurrentLRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1          # refresh a; b is now oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            ConcurrentLRUCache(maxsize=0)

    def test_concurrent_get_or_compute_single_value(self):
        cache = ConcurrentLRUCache()
        seen = []

        def worker():
            seen.append(cache.get_or_compute("key", lambda: 7))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen == [7] * 8

    def test_clear(self):
        cache = ConcurrentLRUCache()
        cache.put("a", 1)
        cache.clear()
        assert cache.get("a") is None
        assert cache.stats()["size"] == 0


class TestTuningCacheSet:
    def test_sections_routed_independently(self):
        caches = TuningCacheSet()
        assert caches.get_or_compute("distill", ("k",), lambda: "d") == "d"
        assert caches.get_or_compute("embed", ("k",), lambda: "e") == "e"
        assert caches.section("distill").stats()["size"] == 1
        assert caches.section("embed").stats()["size"] == 1

    def test_unknown_section_computes_without_caching(self):
        caches = TuningCacheSet()
        calls = []

        def build():
            calls.append(1)
            return 1

        caches.get_or_compute("novel-section", "k", build)
        caches.get_or_compute("novel-section", "k", build)
        assert len(calls) == 2


# ----------------------------------------------------------------------
# scheduler
# ----------------------------------------------------------------------

def _spec(name: str, multiplier: float, seed: int = 7) -> CampaignSpec:
    return CampaignSpec(
        query=nexmark_query(name, "flink"),
        multipliers=(multiplier,),
        engine_seed=seed,
        seed=seed,
    )


class TestScheduler:
    def test_backpressured_campaigns_dispatch_first(self):
        # At parallelism 1, a 10x-Wu rate backpressures while a tiny
        # fraction of one rate unit cannot.
        hot = _spec("q5", 10.0)
        cold = _spec("q1", 0.01)
        scheduler = BackpressureScheduler()
        assert scheduler.probe(hot).backpressured
        assert not scheduler.probe(cold).backpressured
        order = scheduler.order([cold, hot])
        assert order[0] == 1

    def test_order_is_deterministic(self):
        specs = [_spec("q1", 3.0), _spec("q2", 3.0), _spec("q5", 3.0)]
        scheduler = BackpressureScheduler()
        assert scheduler.order(specs) == scheduler.order(specs)

    def test_fifo_preserves_submission_order(self):
        specs = [_spec("q5", 10.0), _spec("q1", 0.01)]
        assert FifoScheduler().order(specs) == [0, 1]

    def test_empty_multipliers_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(query=nexmark_query("q1", "flink"), multipliers=())


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------

class TestTuningService:
    def _specs(self):
        return [
            CampaignSpec(
                query=nexmark_query(name, "flink"),
                multipliers=(3, 7),
                engine_seed=31,
                seed=41,
            )
            for name in ("q1", "q5")
        ]

    def test_outcomes_in_input_order(self, tiny_pretrained):
        service = TuningService(tiny_pretrained, backend="thread", max_workers=2)
        outcomes = service.run(self._specs())
        assert [o.spec_name for o in outcomes] == [
            "nexmark_q1_flink", "nexmark_q5_flink"
        ]
        for outcome in outcomes:
            assert outcome.backend == "thread"
            assert outcome.result.n_processes == 2
            assert outcome.wall_seconds > 0

    def test_duplicate_names_rejected(self, tiny_pretrained):
        service = TuningService(tiny_pretrained, backend="sequential")
        specs = self._specs() + self._specs()[:1]
        with pytest.raises(ValueError, match="unique"):
            service.run(specs)

    def test_unknown_backend_rejected(self, tiny_pretrained):
        with pytest.raises(ValueError, match="backend"):
            TuningService(tiny_pretrained, backend="fibers")

    def test_empty_run(self, tiny_pretrained):
        assert TuningService(tiny_pretrained, backend="sequential").run([]) == []

    def test_shared_ged_cache_installed_and_counted(self, tiny_pretrained):
        service = TuningService(tiny_pretrained, backend="sequential")
        assert isinstance(tiny_pretrained.clustering.cache, SharedGEDCache)
        service.run(self._specs())
        stats = service.cache_stats()
        assert "ged" in stats
        assert stats["warmup"]["misses"] >= 1
        # The second campaign's iterations reuse distilled rows/embeddings.
        assert stats["distill"]["misses"] >= 1

    def test_cache_reuse_across_runs(self, tiny_pretrained):
        service = TuningService(tiny_pretrained, backend="sequential")
        service.run(self._specs())
        warm_misses = service.caches.section("warmup").stats()["misses"]
        service.run(self._specs())
        # No new warm-up datasets were built on the repeat run.
        assert service.caches.section("warmup").stats()["misses"] == warm_misses


class TestServiceCampaigns:
    def test_grid_runs_and_caches(self, tiny_pretrained, monkeypatch):
        from repro.experiments import context
        from repro.experiments.campaigns import service_campaigns
        from repro.experiments.scale import SMOKE
        from dataclasses import replace

        scale = replace(SMOKE, name="svc-test", n_rate_changes=2)
        monkeypatch.setattr(
            context, "pretrained_model", lambda engine, s: tiny_pretrained
        )
        results = service_campaigns(
            "flink", ["q1", "q5"], scale, backend="thread", max_workers=2
        )
        assert set(results) == {"q1", "q5"}
        for group, campaigns in results.items():
            assert len(campaigns) == 1
            assert campaigns[0].n_processes == 2
            assert campaigns[0].method == "StreamTune"
        # Cached under a service-specific key, not the figures grid.
        key = ("service-campaign", "flink", ("q1", "q5"), "svc-test", "thread")
        assert context._CACHE[key] is results
        assert ("campaign", "flink", "StreamTune", "q1", "svc-test") not in context._CACHE
        again = service_campaigns(
            "flink", ["q1", "q5"], scale, backend="thread", max_workers=2
        )
        assert again is results
        del context._CACHE[key]


class TestShardBounds:
    def test_even_split(self):
        from repro.service import shard_bounds

        assert shard_bounds(4, 2) == [(0, 2), (2, 4)]
        assert shard_bounds(6, 3) == [(0, 2), (2, 4), (4, 6)]

    def test_remainder_goes_to_early_shards(self):
        from repro.service import shard_bounds

        assert shard_bounds(5, 2) == [(0, 3), (3, 5)]
        assert shard_bounds(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_more_shards_than_steps_clamps(self):
        from repro.service import shard_bounds

        assert shard_bounds(2, 5) == [(0, 1), (1, 2)]
        assert shard_bounds(1, 1) == [(0, 1)]

    def test_never_emits_empty_or_degenerate_shards(self):
        # Regression: n_shards > n_steps must clamp to at most n_steps
        # non-empty shards, never pad with empty ones.
        from repro.service import shard_bounds

        for n_steps in range(0, 9):
            for n_shards in range(1, 12):
                bounds = shard_bounds(n_steps, n_shards)
                assert len(bounds) == min(n_steps, n_shards)
                assert all(stop > start for start, stop in bounds)

    def test_zero_steps_yields_no_shards(self):
        from repro.service import shard_bounds

        assert shard_bounds(0, 1) == []
        assert shard_bounds(0, 7) == []

    def test_single_shard_is_identity(self):
        from repro.service import shard_bounds

        for n_steps in range(1, 9):
            assert shard_bounds(n_steps, 1) == [(0, n_steps)]

    def test_bounds_cover_exactly(self):
        from repro.service import shard_bounds

        for n_steps in range(1, 12):
            for n_shards in range(1, 6):
                bounds = shard_bounds(n_steps, n_shards)
                covered = [i for start, stop in bounds for i in range(start, stop)]
                assert covered == list(range(n_steps))
                assert all(stop > start for start, stop in bounds)

    def test_invalid_inputs(self):
        from repro.service import shard_bounds

        with pytest.raises(ValueError):
            shard_bounds(-1, 1)
        with pytest.raises(ValueError):
            shard_bounds(3, 0)


class TestTraceSharding:
    def _spec(self, multipliers=(3, 7, 4)):
        return CampaignSpec(
            query=nexmark_query("q1", "flink"),
            multipliers=tuple(float(m) for m in multipliers),
            engine_seed=31,
            seed=41,
        )

    @staticmethod
    def _steps(outcome):
        return [
            [step.parallelisms for step in process.steps]
            for process in outcome.result.processes
        ]

    @pytest.mark.parametrize("backend", ["sequential", "thread"])
    def test_merged_results_bit_identical(self, tiny_pretrained, backend):
        spec = self._spec()
        reference = TuningService(tiny_pretrained, backend="sequential").run([spec])[0]
        service = TuningService(tiny_pretrained, backend=backend, max_workers=4)
        sharded = service.run([spec], trace_shards=3)[0]
        assert sharded.result.multipliers == reference.result.multipliers
        assert self._steps(sharded) == self._steps(reference)
        assert sharded.backend == backend

    def test_sharded_stream_contract(self, tiny_pretrained):
        from repro.api.events import CampaignFinished, CampaignStarted, StepCompleted

        service = TuningService(tiny_pretrained, backend="thread", max_workers=4)
        events = list(service.stream([self._spec()], trace_shards=2))
        started = [e for e in events if isinstance(e, CampaignStarted)]
        finished = [e for e in events if isinstance(e, CampaignFinished)]
        assert len(started) == 1 and len(finished) == 1
        assert started[0].shards == 2
        steps = [e for e in events if isinstance(e, StepCompleted)]
        assert [e.step_index for e in steps] == [0, 1, 2]

    def test_execute_campaign_shard_keeps_only_its_chunk(self, tiny_pretrained):
        from repro.service import execute_campaign

        spec = self._spec()
        whole = execute_campaign(spec, tiny_pretrained, TuningCacheSet())
        tail = execute_campaign(
            spec, tiny_pretrained, TuningCacheSet(), keep_from=1, stop_at=3
        )
        assert tail.result.multipliers == [7.0, 4.0]
        assert self._steps(tail) == self._steps(whole)[1:]

    def test_bad_trace_shards_rejected(self, tiny_pretrained):
        service = TuningService(tiny_pretrained, backend="sequential")
        with pytest.raises(ValueError, match="trace_shards"):
            list(service.stream(self._specs_one(), trace_shards=0))

    def _specs_one(self):
        return [self._spec((3,))]


class TestBaselineCampaigns:
    def _spec(self, tuner):
        return CampaignSpec(
            query=nexmark_query("q1", "flink"),
            multipliers=(3.0, 7.0),
            engine_seed=31,
            seed=41,
            tuner=tuner,
        )

    def test_ds2_campaign_runs_without_pretrained(self):
        service = TuningService(None, backend="sequential")
        outcome = service.run([self._spec("ds2")])[0]
        assert outcome.result.method == "DS2"
        assert outcome.result.n_processes == 2
        assert "ged" not in service.cache_stats()

    def test_backend_identity_for_baselines(self):
        sequential = TuningService(None, backend="sequential").run([self._spec("ds2")])
        threaded = TuningService(None, backend="thread", max_workers=2).run(
            [self._spec("ds2")]
        )
        steps = lambda o: [  # noqa: E731
            [step.parallelisms for step in process.steps]
            for process in o.result.processes
        ]
        assert steps(sequential[0]) == steps(threaded[0])

    def test_streamtune_without_pretrained_fails_clearly(self):
        service = TuningService(None, backend="sequential")
        with pytest.raises(ValueError, match="pre-trained"):
            service.run([self._spec("streamtune")])


def _exit_without_reporting(spec, unit, relay):
    """A process worker killed outright (OOM, signal): no relay item."""
    import os

    os._exit(13)


class TestFaultTolerance:
    """A dead worker surfaces as CampaignFailed; the fleet finishes."""

    def _specs(self, tuner="ds2"):
        return [
            CampaignSpec(
                query=nexmark_query(name, "flink"),
                multipliers=(3.0, 7.0),
                engine_seed=31,
                seed=41,
                tuner=tuner,
            )
            for name in ("q1", "q5")
        ]

    def _poison(self, monkeypatch, victim="nexmark_q1_flink"):
        import repro.service.tuning as tuning

        original = tuning.execute_campaign

        def poisoned(spec, *args, **kwargs):
            if spec.name == victim:
                raise RuntimeError("worker exploded mid-campaign")
            return original(spec, *args, **kwargs)

        monkeypatch.setattr(tuning, "execute_campaign", poisoned)

    @pytest.mark.parametrize("backend", ["sequential", "thread"])
    def test_worker_exception_fails_campaign_not_fleet(self, monkeypatch, backend):
        from repro.api.events import CampaignFailed, CampaignFinished, CampaignStarted

        self._poison(monkeypatch)
        service = TuningService(None, backend=backend, max_workers=2)
        events = list(service.stream(self._specs()))
        failed = [e for e in events if isinstance(e, CampaignFailed)]
        assert [e.campaign for e in failed] == ["nexmark_q1_flink"]
        assert failed[0].error_type == "RuntimeError"
        assert "worker exploded" in failed[0].error_message
        assert "worker exploded" in failed[0].traceback   # full text survives
        assert failed[0].cell_key
        # the failed campaign still opened with a CampaignStarted
        started = [e for e in events if isinstance(e, CampaignStarted)]
        assert sorted(e.campaign for e in started) == [
            "nexmark_q1_flink", "nexmark_q5_flink"
        ]
        # ... and the surviving campaign completed normally
        finished = [e for e in events if isinstance(e, CampaignFinished)]
        assert [e.campaign for e in finished] == ["nexmark_q5_flink"]
        assert [e.seq for e in events] == list(range(len(events)))

    def test_run_raises_after_the_fleet_drained(self, monkeypatch):
        from repro.service import CampaignExecutionError

        self._poison(monkeypatch)
        service = TuningService(None, backend="thread", max_workers=2)
        with pytest.raises(CampaignExecutionError, match="worker exploded") as info:
            service.run(self._specs())
        error = info.value
        assert [e.campaign for e in error.failures] == ["nexmark_q1_flink"]
        # the surviving campaign's outcome was not lost
        assert [o.spec_name for o in error.outcomes.values()] == ["nexmark_q5_flink"]

    def test_sharded_campaign_fails_once(self, monkeypatch):
        from repro.api.events import CampaignFailed

        self._poison(monkeypatch)
        service = TuningService(None, backend="thread", max_workers=4)
        events = list(service.stream(self._specs(), trace_shards=2))
        failed = [e for e in events if isinstance(e, CampaignFailed)]
        assert [e.campaign for e in failed] == ["nexmark_q1_flink"]

    def test_silent_worker_death_does_not_hang_the_stream(self, monkeypatch):
        # Satellite regression: a worker that exits without posting its
        # sentinel (the hang case) must resolve via the liveness check.
        from repro.api.events import CampaignFailed, CampaignFinished

        import repro.service.tuning as tuning

        original = tuning._run_unit

        def leaky(spec, unit, relay, state=None):
            if spec.name == "nexmark_q1_flink":
                return              # dies silently: no event, no sentinel
            original(spec, unit, relay, state)

        monkeypatch.setattr(tuning, "_run_unit", leaky)
        service = TuningService(None, backend="thread", max_workers=2)
        service.poll_seconds = 0.05
        service.sentinel_grace = 0.2
        events = list(service.stream(self._specs()))   # must terminate
        failed = [e for e in events if isinstance(e, CampaignFailed)]
        assert [e.campaign for e in failed] == ["nexmark_q1_flink"]
        assert "without posting its result" in failed[0].error_message
        finished = [e for e in events if isinstance(e, CampaignFinished)]
        assert [e.campaign for e in finished] == ["nexmark_q5_flink"]

    @pytest.mark.skipif(
        __import__("multiprocessing").get_start_method() != "fork",
        reason="patched worker reaches the pool only under fork",
    )
    def test_killed_process_worker_yields_failed_without_hanging(self, monkeypatch):
        from repro.api.events import CampaignFailed

        import repro.service.tuning as tuning

        monkeypatch.setattr(tuning, "_run_unit", _exit_without_reporting)
        service = TuningService(None, backend="process", max_workers=1)
        service.poll_seconds = 0.05
        events = list(service.stream(self._specs()[:1]))   # must terminate
        failed = [e for e in events if isinstance(e, CampaignFailed)]
        assert [e.campaign for e in failed] == ["nexmark_q1_flink"]
        assert failed[0].error_type   # BrokenProcessPool (by any name)
        assert failed[0].error_message or failed[0].traceback

    def test_streamtune_without_pretrained_fails_before_dispatch(self):
        # Spec validation stays an eager ValueError, not a CampaignFailed.
        service = TuningService(None, backend="thread", max_workers=2)
        with pytest.raises(ValueError, match="pre-trained"):
            list(service.stream(self._specs(tuner="streamtune")))


class TestSnapshotErrors:
    def test_version_mismatch_names_both_versions(self, tmp_path):
        import pickle

        from repro.service import SnapshotError

        stale = tmp_path / "stale.pkl"
        stale.write_bytes(
            pickle.dumps(
                {
                    "format": "repro.service.TuningCacheSet",
                    "version": 999,
                    "sections": {},
                }
            )
        )
        with pytest.raises(SnapshotError) as excinfo:
            TuningCacheSet.load(stale)
        message = str(excinfo.value)
        assert "999" in message                       # the snapshot's version
        assert str(TuningCacheSet.SNAPSHOT_VERSION) in message   # ours
        assert "stale.pkl" in message
        assert isinstance(excinfo.value, ValueError)  # back-compat contract

    def test_truncated_snapshot_is_a_clear_error(self, tmp_path):
        from repro.service import SnapshotError

        broken = tmp_path / "broken.pkl"
        saved = tmp_path / "ok.pkl"
        TuningCacheSet().save(saved)
        broken.write_bytes(saved.read_bytes()[:10])   # cut mid-pickle
        with pytest.raises(SnapshotError, match="broken.pkl"):
            TuningCacheSet.load(broken)

    def test_non_pickle_bytes_are_a_clear_error(self, tmp_path):
        from repro.service import SnapshotError

        garbage = tmp_path / "garbage.pkl"
        garbage.write_bytes(b"definitely not a pickle")
        with pytest.raises(SnapshotError, match="not a TuningCacheSet"):
            TuningCacheSet.load(garbage)


class TestWorkerCacheCollection:
    """Process workers snapshot fresh cache entries back to the parent."""

    def _specs(self):
        return [
            CampaignSpec(
                query=nexmark_query(name, "flink"),
                multipliers=(3, 7),
                engine_seed=31,
                seed=41,
            )
            for name in ("q1", "q5")
        ]

    def test_process_workers_report_entries_back(self, tiny_pretrained):
        # prewarm=False so the parent computes nothing itself: a warm-up
        # dataset can then only appear in the parent plane via the
        # post-drain worker collection.
        service = TuningService(
            tiny_pretrained, backend="process", max_workers=2, prewarm=False
        )
        service.run(self._specs())
        assert service.caches.section("warmup").stats()["size"] >= 1

    def test_collection_can_be_disabled(self, tiny_pretrained):
        service = TuningService(
            tiny_pretrained, backend="process", max_workers=2, prewarm=False,
            collect_worker_caches=False,
        )
        service.run(self._specs())
        assert service.caches.section("warmup").stats()["size"] == 0

    def test_collected_entries_warm_the_next_process_run(self, tiny_pretrained):
        service = TuningService(
            tiny_pretrained, backend="process", max_workers=2, prewarm=False
        )
        service.run(self._specs())
        first_size = service.caches.section("warmup").stats()["size"]
        assert first_size >= 1
        # The next run ships the collected entries to its (fresh) workers,
        # which then compute no new warm-up datasets to report back.
        service.run(self._specs())
        assert service.caches.section("warmup").stats()["size"] == first_size
