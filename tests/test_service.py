"""Tests for the concurrent tuning service: caches, scheduler, service."""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.service import (
    BackpressureScheduler,
    CampaignSpec,
    ConcurrentLRUCache,
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

    @staticmethod
    def _join(threads) -> None:
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads), "hung"

    def test_racing_threads_build_a_cold_key_once(self):
        # Eight threads hit one cold key together; the build is slow
        # enough that the rest arrive while it is in flight.  They wait
        # for it instead of building again, and all get the one object.
        import time

        cache = ConcurrentLRUCache()
        calls = []
        seen = []
        gate = threading.Barrier(8)

        def build():
            calls.append(1)
            time.sleep(0.2)
            return object()

        def worker():
            gate.wait()
            seen.append(cache.get_or_compute("key", build))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        self._join(threads)
        assert len(calls) == 1
        assert len(seen) == 8 and all(value is seen[0] for value in seen)
        assert cache.stats() == {"size": 1, "hits": 7, "misses": 1}

    def test_a_raising_builder_releases_its_waiters(self):
        # The builder fails while another thread waits on its key: the
        # waiter wakes, finds nothing in flight and builds the key itself.
        cache = ConcurrentLRUCache()
        entered, release = threading.Event(), threading.Event()
        results = {}

        def failing():
            entered.set()
            release.wait(timeout=30)
            raise RuntimeError("builder failed")

        def first():
            try:
                cache.get_or_compute("key", failing)
            except RuntimeError as error:
                results["first"] = error

        def second():
            results["second"] = cache.get_or_compute("key", lambda: 5)

        threads = [threading.Thread(target=first)]
        threads[0].start()
        assert entered.wait(timeout=30)
        threads.append(threading.Thread(target=second))
        threads[1].start()
        release.set()
        self._join(threads)
        assert isinstance(results["first"], RuntimeError)
        assert results["second"] == 5
        assert cache.stats() == {"size": 1, "hits": 0, "misses": 2}
        assert cache.get_or_compute("key", lambda: 6) == 5

    def test_a_raising_builder_leaves_no_in_flight_mark(self):
        cache = ConcurrentLRUCache()

        def failing():
            raise KeyError("no")

        with pytest.raises(KeyError):
            cache.get_or_compute("key", failing)
        assert cache.get_or_compute("key", lambda: 1) == 1   # no wait, no hang

    def test_a_pickled_cache_carries_no_in_flight_state(self):
        # Pickled while a key is being built: the copy holds no mark for
        # it, so its own lookup builds at once instead of waiting for a
        # build that will never reach it.
        import pickle

        cache = ConcurrentLRUCache()
        cache.put("done", 0)
        entered, release = threading.Event(), threading.Event()

        def slow():
            entered.set()
            release.wait(timeout=30)
            return 1

        builder = threading.Thread(target=cache.get_or_compute, args=("key", slow))
        builder.start()
        assert entered.wait(timeout=30)
        try:
            copy = pickle.loads(pickle.dumps(cache))
        finally:
            release.set()
            self._join([builder])
        assert copy._building == set()
        assert copy.get_or_compute("key", lambda: 2) == 2
        assert copy.get("done") == 0
        assert cache.get("key") == 1

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
        assert caches.stats()["distill"]["size"] == 1
        assert caches.stats()["embed"]["size"] == 1

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

    def test_empty_multipliers_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(query=nexmark_query("q1", "flink"), multipliers=())

    def test_one_pending_campaign_is_not_probed(self, monkeypatch):
        # A spool cell is a one-campaign plan: an ordering of one needs no
        # second engine, deployment and measurement.
        built = []
        make_engine = CampaignSpec.make_engine
        monkeypatch.setattr(
            CampaignSpec, "make_engine",
            lambda spec: built.append(spec.name) or make_engine(spec),
        )
        specs = [
            dataclasses.replace(_spec(name, 3.0), tuner="ds2") for name in ("q1", "q5")
        ]
        service = TuningService(None, backend="sequential")
        service.run(specs[:1])
        assert built == [specs[0].name]                 # the campaign's own engine
        del built[:]
        service.run(specs)
        assert sorted(built) == sorted(spec.name for spec in specs * 2)  # + probes


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
        warm_misses = service.caches.stats()["warmup"]["misses"]
        service.run(self._specs())
        # No new warm-up datasets were built on the repeat run.
        assert service.caches.stats()["warmup"]["misses"] == warm_misses


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

    def _poison_step(self, monkeypatch, step, victim="nexmark_q1_flink"):
        """The victim's tuner raises inside its ``step``-th tuning process."""
        import itertools

        import repro.service.tuning as tuning

        original = tuning._build_campaign_tuner

        def build(spec, *args, **kwargs):
            tuner = original(spec, *args, **kwargs)
            if spec.name == victim:
                tune, calls = tuner.tune, itertools.count()

                def exploding(*tune_args, **tune_kwargs):
                    if next(calls) == step:
                        raise RuntimeError("worker exploded mid-trace")
                    return tune(*tune_args, **tune_kwargs)

                tuner.tune = exploding
            return tuner

        monkeypatch.setattr(tuning, "_build_campaign_tuner", build)

    def test_mid_trace_failure_streams_identically_on_every_backend(
        self, monkeypatch
    ):
        # One emitter behind every backend: a campaign that dies in its
        # step-1 tuning process has already streamed CampaignStarted and
        # step 0, then fails — on the sequential loop as on a pool.
        from repro.api.events import CampaignFailed, CampaignStarted, StepCompleted

        self._poison_step(monkeypatch, step=1)
        blocks = {}
        for backend in ("sequential", "thread"):
            service = TuningService(None, backend=backend, max_workers=2)
            events = list(service.stream(self._specs()))
            assert [e.seq for e in events] == list(range(len(events)))
            victim = [
                e for e in events
                if getattr(e, "campaign", None) == "nexmark_q1_flink"
            ]
            assert isinstance(victim[0], CampaignStarted)
            assert isinstance(victim[-1], CampaignFailed)
            steps = [e for e in victim if isinstance(e, StepCompleted)]
            assert [e.step_index for e in steps] == [0]
            blocks[backend] = [
                (e.kind, getattr(e, "step_index", None), getattr(e, "parallelisms", None))
                for e in victim
            ]
        assert blocks["sequential"] == blocks["thread"]

    def test_sequential_stream_is_live(self, monkeypatch):
        # The sequential loop yields a campaign's events as they happen:
        # the consumer sees step 0 complete while the engine still has
        # step 1 to measure, not one burst at campaign end.
        from repro.api.events import StepCompleted
        from repro.engines.base import EngineCluster

        journal = []
        measure = EngineCluster.measure

        def journalled(engine, deployment):
            journal.append("measure")
            return measure(engine, deployment)

        monkeypatch.setattr(EngineCluster, "measure", journalled)
        service = TuningService(None, backend="sequential")
        for event in service.stream(self._specs()[:1]):
            if isinstance(event, StepCompleted):
                journal.append("step")
        assert journal.count("step") == 2
        last_measure = len(journal) - 1 - journal[::-1].index("measure")
        assert journal.index("step") < last_measure

    def test_keyboard_interrupt_stops_a_sequential_run(self, monkeypatch):
        # No pool border on the sequential backend: Ctrl-C must stop the
        # run, not be reported as one campaign's failure.
        import repro.service.tuning as tuning

        def interrupted(spec, *args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(tuning, "execute_campaign", interrupted)
        service = TuningService(None, backend="sequential")
        with pytest.raises(KeyboardInterrupt):
            list(service.stream(self._specs()))

    def test_pool_worker_relays_any_base_exception(self, monkeypatch):
        # ...while a pool worker relays even a BaseException as data, so
        # one bad campaign fails alone.
        from repro.api.events import CampaignFailed, CampaignFinished

        import repro.service.tuning as tuning

        original = tuning.execute_campaign

        def exiting(spec, *args, **kwargs):
            if spec.name == "nexmark_q1_flink":
                raise SystemExit(3)
            return original(spec, *args, **kwargs)

        monkeypatch.setattr(tuning, "execute_campaign", exiting)
        service = TuningService(None, backend="thread", max_workers=2)
        events = list(service.stream(self._specs()))
        failed = [e for e in events if isinstance(e, CampaignFailed)]
        assert [(e.campaign, e.error_type) for e in failed] == [
            ("nexmark_q1_flink", "SystemExit")
        ]
        finished = [e for e in events if isinstance(e, CampaignFinished)]
        assert [e.campaign for e in finished] == ["nexmark_q5_flink"]

    def test_silent_worker_death_does_not_hang_the_stream(self, monkeypatch):
        # Satellite regression: a worker that exits without posting its
        # sentinel (the hang case) must resolve via the liveness check.
        from repro.api.events import CampaignFailed, CampaignFinished

        import repro.service.tuning as tuning

        original = tuning._run_unit

        def leaky(spec, unit, relay, state):
            if spec.name == "nexmark_q1_flink":
                return              # dies silently: no event, no sentinel
            original(spec, unit, relay, state)

        monkeypatch.setattr(tuning, "_run_unit", leaky)
        service = TuningService(None, backend="thread", max_workers=2)
        events = list(service.stream(self._specs()))   # must terminate
        failed = [e for e in events if isinstance(e, CampaignFailed)]
        assert [e.campaign for e in failed] == ["nexmark_q1_flink"]
        assert "without posting its result" in failed[0].error_message
        finished = [e for e in events if isinstance(e, CampaignFinished)]
        assert [e.campaign for e in finished] == ["nexmark_q5_flink"]

    def test_a_task_that_raises_before_its_first_put_fails_its_campaign(
        self, monkeypatch
    ):
        # The exception escapes the pool task itself, outside the unit
        # body: the task's exit item carries it, with no timer involved.
        from repro.api.events import CampaignFailed, CampaignFinished, CampaignStarted

        import repro.service.tuning as tuning

        original = tuning._run_unit

        def broken(spec, unit, relay, state):
            if spec.name == "nexmark_q1_flink":
                raise MemoryError("task died before its first put")
            original(spec, unit, relay, state)

        monkeypatch.setattr(tuning, "_run_unit", broken)
        service = TuningService(None, backend="thread", max_workers=2)
        events = list(service.stream(self._specs()))
        failed = [e for e in events if isinstance(e, CampaignFailed)]
        assert [(e.campaign, e.error_type) for e in failed] == [
            ("nexmark_q1_flink", "MemoryError")
        ]
        assert "before its first put" in failed[0].error_message
        assert "MemoryError" in failed[0].traceback
        started = [e.campaign for e in events if isinstance(e, CampaignStarted)]
        assert sorted(started) == ["nexmark_q1_flink", "nexmark_q5_flink"]
        finished = [e for e in events if isinstance(e, CampaignFinished)]
        assert [e.campaign for e in finished] == ["nexmark_q5_flink"]
        assert [e.seq for e in events] == list(range(len(events)))

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

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda payload: payload.pop("sections"), id="no-sections"),
            pytest.param(
                lambda payload: payload["sections"]["embed"]["entries"].append(
                    (("e", 1), ("array", "float64", (2, 2), b"\x00" * 7))
                ),
                id="truncated-array-record",
            ),
            pytest.param(
                lambda payload: payload["sections"]["embed"]["entries"].append(
                    (("e", 1), ("mystery",))
                ),
                id="unknown-record-kind",
            ),
            pytest.param(
                lambda payload: payload["sections"]["embed"].pop("maxsize"),
                id="no-maxsize",
            ),
            pytest.param(
                lambda payload: payload["sections"]["embed"]["entries"].append(
                    (["unhashable"], ("pickled", 1))
                ),
                id="unhashable-key",
            ),
        ],
    )
    def test_damaged_layout_is_a_clear_error(self, tmp_path, damage):
        # cache_path is outside input: a right-versioned pickle whose
        # layout is damaged names the file instead of raising a bare
        # KeyError / numpy ValueError from inside the loader.
        import pickle

        import numpy as np

        from repro.service import SnapshotError

        caches = TuningCacheSet()
        caches.get_or_compute("embed", ("e", 0), lambda: np.zeros((2, 2)))
        saved = tmp_path / "ok.pkl"
        caches.save(saved)
        payload = pickle.loads(saved.read_bytes())
        damage(payload)
        damaged = tmp_path / "damaged.pkl"
        damaged.write_bytes(pickle.dumps(payload))
        with pytest.raises(SnapshotError, match="damaged.pkl"):
            TuningCacheSet.load(damaged)

    def test_non_pickle_bytes_are_a_clear_error(self, tmp_path):
        from repro.service import SnapshotError

        garbage = tmp_path / "garbage.pkl"
        garbage.write_bytes(b"definitely not a pickle")
        with pytest.raises(SnapshotError, match="not a TuningCacheSet"):
            TuningCacheSet.load(garbage)
