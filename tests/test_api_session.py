"""Tests for TuningSession and the CLI plan shell."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    CampaignPlan,
    PlanError,
    SessionResult,
    TuningPlan,
    TuningSession,
)
from repro.service import CampaignSpec, TuningService
from repro.service.cache import TuningCacheSet
from repro.workloads import nexmark_query


def _canonical(step) -> tuple:
    """A TuningStep minus ``recommendation_seconds`` (wall-clock, not
    deterministic); everything else must be bit-identical."""
    return (
        step.parallelisms,
        step.reconfigured,
        step.backpressure_after,
        step.mean_cpu_utilisation,
    )


def _steps(result: SessionResult) -> list:
    """Flatten every TuningStep of every process of every campaign."""
    return [
        _canonical(step)
        for campaign in result.results
        for process in campaign.processes
        for step in process.steps
    ]


def _smoke_plan(**overrides) -> CampaignPlan:
    defaults = dict(
        queries=("q1", "q5"),
        rates=(3, 7),
        backend="sequential",
        scale="smoke",
        seed=41,
    )
    defaults.update(overrides)
    return CampaignPlan(**defaults)


class TestTuningSessionCampaigns:
    def test_smoke_campaign_runs(self, tiny_pretrained):
        session = TuningSession(pretrained=tiny_pretrained)
        result = session.run(_smoke_plan())
        assert [o.spec_name for o in result.outcomes] == [
            "nexmark_q1_flink", "nexmark_q5_flink"
        ]
        assert result.backend == "sequential"
        for campaign in result.results:
            assert campaign.n_processes == 2
        assert result.cache_stats["warmup"]["misses"] >= 1
        assert result.outcome("nexmark_q5_flink").result.method == "StreamTune"
        with pytest.raises(KeyError, match="nexmark_q1_flink"):
            result.outcome("nope")

    def test_matches_pre_redesign_service_invocation(self, tiny_pretrained):
        """A CampaignPlan must reproduce the legacy construction bit-for-bit."""
        plan = _smoke_plan(backend="thread", workers=2)
        session_result = TuningSession(pretrained=tiny_pretrained).run(plan)

        # The pre-redesign path: hand-built specs straight into the service
        # (exactly what the fleet lifecycle runs).
        specs = [
            CampaignSpec(
                query=nexmark_query(name, "flink"),
                multipliers=(3.0, 7.0),
                engine="flink",
                engine_seed=41,
                seed=41,
                model_kind="svm",
            )
            for name in ("q1", "q5")
        ]
        service = TuningService(tiny_pretrained, backend="thread", max_workers=2)
        legacy = service.run(specs)

        for ours, theirs in zip(session_result.outcomes, legacy):
            assert ours.spec_name == theirs.spec_name
            assert ours.result.multipliers == theirs.result.multipliers
            for mine, reference in zip(ours.result.processes, theirs.result.processes):
                assert list(map(_canonical, mine.steps)) == list(
                    map(_canonical, reference.steps)
                )
                assert mine.converged == reference.converged

    def test_backend_identity_sequential_vs_thread(self, tiny_pretrained):
        sequential = TuningSession(pretrained=tiny_pretrained).run(_smoke_plan())
        threaded = TuningSession(pretrained=tiny_pretrained).run(
            _smoke_plan(backend="thread", workers=2)
        )
        assert _steps(sequential) == _steps(threaded)

    def test_backend_identity_process_then_thread_on_one_session(
        self, tiny_pretrained
    ):
        # Regression: a process plan used to leave proxies of a Manager it
        # had already shut down inside the pre-trained artifact, so the
        # next StreamTune plan (here: the sweep's second cell, then a
        # thread plan over new queries) died with BrokenPipeError.
        from repro.api import SweepPlan

        grid = dict(
            queries=("q1", "q5"),
            tuners=("streamtune",),
            rate_traces=((3, 7), (4, 2)),
            scale="smoke",
            seed=41,
        )
        session = TuningSession(pretrained=tiny_pretrained)
        reference = TuningSession(pretrained=tiny_pretrained)
        swept = session.run(SweepPlan(backend="process", workers=2, **grid))
        expected = reference.run(SweepPlan(backend="sequential", **grid))
        assert len(swept.results) == 2
        assert [_steps(cell) for cell in swept.results] == [
            _steps(cell) for cell in expected.results
        ]
        threaded = session.run(
            _smoke_plan(queries=("q2", "q3"), backend="thread", workers=2)
        )
        assert _steps(threaded) == _steps(
            reference.run(_smoke_plan(queries=("q2", "q3")))
        )

    def test_run_rejects_non_plans(self, tiny_pretrained):
        with pytest.raises(PlanError, match="TuningPlan, "):
            TuningSession(pretrained=tiny_pretrained).run({"queries": ["q1"]})

    def test_ablation_tuner_spelling_selects_the_model(self, tiny_pretrained, monkeypatch):
        import repro.service.tuning as service_tuning

        plan = TuningPlan(
            query="q1", rates=(3,), tuner="streamtune-isotonic",
            scale="smoke", seed=5,
        )
        session = TuningSession(pretrained=tiny_pretrained)
        captured = {}
        original = service_tuning.StreamTuneTuner

        class Spy(original):
            def __init__(self, *args, **kwargs):
                captured["model_kind"] = kwargs.get("model_kind")
                captured["loose_tolerances"] = kwargs.get("loose_tolerances")
                super().__init__(*args, **kwargs)

        # The service builds every campaign's tuner, a tuning plan's too.
        monkeypatch.setattr(service_tuning, "StreamTuneTuner", Spy)
        session.run(plan)
        assert captured == {"model_kind": "isotonic", "loose_tolerances": False}


class TestCachePersistence:
    def test_snapshot_round_trip(self, tmp_path):
        caches = TuningCacheSet()
        caches.get_or_compute("assign", ("sig",), lambda: 3)
        caches.get_or_compute("embed", ("k",), lambda: [1.0, 2.0])
        path = tmp_path / "caches.pkl"
        caches.save(path)
        loaded = TuningCacheSet.load(path)
        assert loaded.get_or_compute("assign", ("sig",), lambda: 99) == 3
        assert loaded.get_or_compute("embed", ("k",), lambda: None) == [1.0, 2.0]
        # counters are run-local accounting, not persisted state
        assert loaded.section("warmup").stats()["misses"] == 0

    def test_snapshot_rejects_garbage_and_bad_version(self, tmp_path):
        import pickle

        garbage = tmp_path / "garbage.pkl"
        garbage.write_bytes(pickle.dumps({"anything": 1}))
        with pytest.raises(ValueError, match="not a TuningCacheSet"):
            TuningCacheSet.load(garbage)

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
        with pytest.raises(ValueError, match="version"):
            TuningCacheSet.load(stale)

    def test_snapshot_with_four_tuple_warmup_keys_loads_and_never_hits(
        self, tiny_pretrained, tmp_path
    ):
        # What a v3 snapshot written before PR 19 holds: warm-up keys with
        # a trailing encoding-path flag.  It loads without error, and the
        # stale-shaped entry is not what a run gets back.
        from repro.core.finetune import warmup_cache_key
        from repro.core.tuner import DEFAULT_WARMUP_ROWS

        path = tmp_path / "parent-written.pkl"
        stale = object()
        old = TuningCacheSet()
        for cluster in range(tiny_pretrained.n_clusters):
            key = warmup_cache_key(tiny_pretrained, cluster, DEFAULT_WARMUP_ROWS, 41)
            old.get_or_compute("warmup", key + (True,), lambda: stale)
        old.save(path)
        result = TuningSession(pretrained=tiny_pretrained).run(
            _smoke_plan(queries=("q1",), rates=(3,), cache_path=str(path))
        )
        assert result.cache_stats["warmup"]["hits"] == 0
        assert result.cache_stats["warmup"]["misses"] == 1

    def test_session_cache_path_warms_next_run(self, tiny_pretrained, tmp_path):
        path = tmp_path / "service-caches.pkl"
        plan = _smoke_plan(cache_path=str(path))
        first = TuningSession(pretrained=tiny_pretrained).run(plan)
        assert path.exists()
        assert first.cache_stats["warmup"]["misses"] >= 1
        # A brand-new session (fresh service, fresh cache set) starts from
        # the snapshot: nothing is recomputed, results are identical.
        second = TuningSession(pretrained=tiny_pretrained).run(plan)
        assert second.cache_stats["warmup"]["misses"] == 0
        assert second.cache_stats["distill"]["misses"] == 0
        assert _steps(second) == _steps(first)


class TestCliPlanShell:
    """``serve_campaigns`` in a test name means the fleet lifecycle: a
    campaign plan file through ``run-plan``."""

    @staticmethod
    def _run_campaign_file(tmp_path, **fields):
        from repro.cli import main

        path = tmp_path / "campaign.json"
        path.write_text(json.dumps({"scale": "smoke", **fields}))
        return main(["run-plan", str(path), "--backend", "sequential"])

    def test_serve_campaigns_malformed_rates_fails_fast(self, tmp_path, capsys):
        # `3,,7` as a shell would have passed it, and with the hole spelled out
        for rates in ("3,,7", [3, None, 7]):
            assert self._run_campaign_file(tmp_path, queries=["q1"], rates=rates) == 2
            err = capsys.readouterr().err
            assert "rates must be a sequence of numbers" in err
            assert "Traceback" not in err

    def test_serve_campaigns_unknown_query_fails_fast(self, tmp_path, capsys):
        code = self._run_campaign_file(tmp_path, queries=["q1", "q9"], rates=[3])
        assert code == 2
        assert "q9" in capsys.readouterr().err

    def test_run_plan_campaign_file(self, tiny_pretrained, tmp_path, capsys, monkeypatch):
        from repro import cli
        from repro.experiments import context

        monkeypatch.setattr(
            context, "pretrained_model", lambda engine, scale: tiny_pretrained
        )
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "queries": ["q1", "q5"],
            "rates": [3, 7],
            "backend": "sequential",
            "scale": "smoke",
            "seed": 41,
        }))
        assert cli.main(["run-plan", str(path)]) == 0
        out = capsys.readouterr().out
        assert "nexmark_q1_flink" in out and "nexmark_q5_flink" in out
        assert "cache hits/misses" in out

    def test_run_plan_backend_override_rejected_for_tuning_plans(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"query": "q1", "scale": "smoke"}))
        code = main(["run-plan", str(path), "--backend", "thread"])
        assert code == 2
        assert "campaign and sweep plans only" in capsys.readouterr().err


class TestSessionStreaming:
    def test_stream_contract_and_result_identity(self, tiny_pretrained):
        from repro.api import CacheStats, CampaignFinished, CampaignStarted, StepCompleted

        session = TuningSession(pretrained=tiny_pretrained)
        plan = _smoke_plan(backend="thread", workers=2)
        stream = session.stream(plan)
        events = []
        while True:
            try:
                events.append(next(stream))
            except StopIteration as stop:
                streamed_result = stop.value
                break
        seqs = [event.seq for event in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        names = ("nexmark_q1_flink", "nexmark_q5_flink")
        for name in names:
            scoped = [e for e in events if getattr(e, "campaign", None) == name]
            assert isinstance(scoped[0], CampaignStarted)
            assert isinstance(scoped[-1], CampaignFinished)
            steps = [e for e in scoped if isinstance(e, StepCompleted)]
            assert [e.step_index for e in steps] == [0, 1]
        assert sum(isinstance(e, CacheStats) for e in events) == 1
        # the stream's return value is the same result run() produces
        assert _steps(streamed_result) == _steps(
            TuningSession(pretrained=tiny_pretrained).run(_smoke_plan())
        )
        assert [o.spec_name for o in streamed_result.outcomes] == list(names)

    def test_run_publishes_to_bus(self, tiny_pretrained):
        from repro.api import EventBus, MetricsAggregator

        metrics = MetricsAggregator()
        bus = EventBus(metrics)
        result = TuningSession(pretrained=tiny_pretrained).run(_smoke_plan(), bus=bus)
        assert metrics.counts["CampaignStarted"] == 2
        assert metrics.counts["CampaignFinished"] == 2
        assert sum(metrics.steps.values()) == 4
        assert not bus.errors
        assert len(result.outcomes) == 2

    def test_tuning_plan_streams_events(self, tiny_pretrained):
        from repro.api import CampaignFinished, CampaignStarted, StepCompleted

        plan = TuningPlan(query="q1", rates=(3, 8), scale="smoke", seed=5)
        events = list(TuningSession(pretrained=tiny_pretrained).stream(plan))
        kinds = [event.kind for event in events]
        assert kinds[0] == "CampaignStarted" and kinds[-1] == "CacheStats"
        assert [event.seq for event in events] == list(range(len(events)))
        steps = [e for e in events if isinstance(e, StepCompleted)]
        assert [e.step_index for e in steps] == [0, 1]
        assert [e for e in events if isinstance(e, CampaignStarted)][0].backend == "sequential"
        finished = [e for e in events if isinstance(e, CampaignFinished)]
        assert len(finished) == 1 and finished[0].outcome is not None

    def test_tuning_plan_is_a_one_campaign_sequential_fleet(self, tiny_pretrained):
        import dataclasses
        import pickle

        from repro.api import CampaignFinished

        def timeless(event):
            clocks = {"recommendation_seconds", "wall_seconds"}
            return dataclasses.replace(
                event,
                **{spec.name: 0.0 for spec in dataclasses.fields(event)
                   if spec.name in clocks},
            )

        def steps(events):
            return [
                (event.outcome.backend, [
                    _canonical(step)
                    for process in event.outcome.result.processes
                    for step in process.steps
                ])
                for event in events if isinstance(event, CampaignFinished)
            ]

        # Each side gets its own copy of the artifact, so both start from
        # the same GED cache and their CacheStats counters compare too.
        def artifact():
            return pickle.loads(pickle.dumps(tiny_pretrained))

        plan = TuningPlan(query="q5", rates=(3, 8), scale="smoke", seed=5)
        session_events = list(TuningSession(pretrained=artifact()).stream(plan))
        service = TuningService(artifact(), backend="sequential")
        service_events = list(service.stream(plan.specs()))
        assert list(map(timeless, session_events)) == list(map(timeless, service_events))
        assert steps(session_events) == steps(service_events)
        assert steps(session_events)[0][0] == "sequential"
        assert session_events[-1].kind == "CacheStats"
        assert session_events[-1].stats["warmup"]["misses"] >= 1
        result = TuningSession(pretrained=artifact()).run(plan)
        assert result.backend == "sequential"


class TestSweepExecution:
    def _sweep_plan(self, **overrides):
        from repro.api import SweepPlan

        defaults = dict(
            queries=("q1", "q5"),
            tuners=("streamtune", "ds2"),
            rate_traces=((3, 7),),
            backend="sequential",
            scale="smoke",
            seed=41,
        )
        defaults.update(overrides)
        return SweepPlan(**defaults)

    def test_sweep_runs_every_cell(self, tiny_pretrained):
        from repro.api import SweepResult

        result = TuningSession(pretrained=tiny_pretrained).run(self._sweep_plan())
        assert isinstance(result, SweepResult)
        assert len(result.results) == 2 and result.n_campaigns == 4
        labels = [label for label, _ in result.scenarios]
        assert labels == ["streamtune@flink/x3-7", "ds2@flink/x3-7"]
        streamtune_cell = result.scenario("streamtune@flink/x3-7")
        ds2_cell = result.scenario("ds2@flink/x3-7")
        assert streamtune_cell.outcomes[0].result.method == "StreamTune"
        assert ds2_cell.outcomes[0].result.method == "DS2"
        with pytest.raises(KeyError, match="streamtune@flink"):
            result.scenario("nope")

    def test_sweep_events_are_scenario_labelled(self, tiny_pretrained):
        from repro.api import SweepFinished

        events = list(
            TuningSession(pretrained=tiny_pretrained).stream(self._sweep_plan())
        )
        assert isinstance(events[-1], SweepFinished)
        assert events[-1].n_scenarios == 2 and events[-1].n_campaigns == 4
        labelled = [e for e in events if not isinstance(e, SweepFinished)]
        assert all(e.scenario for e in labelled)
        assert {e.scenario for e in labelled} == {
            "streamtune@flink/x3-7", "ds2@flink/x3-7"
        }
        seqs = [e.seq for e in labelled]
        assert seqs == sorted(seqs)

    def test_sweep_streamtune_matches_plain_campaign(self, tiny_pretrained):
        """A sweep's streamtune cell is bit-identical to the same CampaignPlan."""
        sweep = TuningSession(pretrained=tiny_pretrained).run(
            self._sweep_plan(tuners=("streamtune",))
        )
        direct = TuningSession(pretrained=tiny_pretrained).run(_smoke_plan())
        assert _steps(sweep.results[0]) == _steps(direct)


class TestSessionSharedCaches:
    """The daemon's session-level cache plane: ``TuningSession(caches=)``."""

    def test_session_caches_warm_across_runs(self, tiny_pretrained):
        caches = TuningCacheSet()
        session = TuningSession(pretrained=tiny_pretrained, caches=caches)
        first = session.run(_smoke_plan())
        warm_misses = caches.section("warmup").stats()["misses"]
        assert warm_misses >= 1
        second = session.run(_smoke_plan())
        # The repeat run built no new warm-up datasets: the second job of
        # a daemon starts warm.
        assert caches.section("warmup").stats()["misses"] == warm_misses
        assert _steps(first) == _steps(second)

    def test_campaign_then_tuning_plan_share_one_warmup_entry(self, tiny_pretrained):
        # A campaign and a tuning plan ask for the same warm-up key, so
        # a daemon's second job for a query starts warm whatever its kind.
        caches = TuningCacheSet()
        session = TuningSession(pretrained=tiny_pretrained, caches=caches)
        session.run(_smoke_plan(queries=("q1",), rates=(3,)))
        assert caches.section("warmup").stats()["misses"] == 1
        session.run(TuningPlan(query="q1", rates=(3,), scale="smoke", seed=41))
        assert caches.section("warmup").stats()["misses"] == 1

    def test_plan_cache_path_keeps_private_snapshot_semantics(
        self, tiny_pretrained, tmp_path
    ):
        # A plan that asks for its own snapshot must not leak into (or
        # read from) the session's shared plane.
        caches = TuningCacheSet()
        snapshot = tmp_path / "private.pkl"
        session = TuningSession(pretrained=tiny_pretrained, caches=caches)
        session.run(_smoke_plan(cache_path=str(snapshot)))
        assert snapshot.exists()
        assert caches.section("warmup").stats()["size"] == 0

    def test_cache_path_with_process_backend_snapshots_worker_entries(
        self, tiny_pretrained, tmp_path
    ):
        """The lifted restriction: worker-local cache sections snapshot
        back to the parent on pool shutdown, so the saved file holds the
        entries the workers computed."""
        snapshot = tmp_path / "process.pkl"
        plan = _smoke_plan(backend="process", workers=2, cache_path=str(snapshot))
        result = TuningSession(pretrained=tiny_pretrained).run(plan)
        assert [o.spec_name for o in result.outcomes] == [
            "nexmark_q1_flink", "nexmark_q5_flink"
        ]
        assert snapshot.exists()
        loaded = TuningCacheSet.load(snapshot)
        assert loaded.section("warmup").stats()["size"] >= 1
