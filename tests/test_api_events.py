"""Tests for repro.api.events and the streaming execution contract."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.events import (
    EVENT_TYPES,
    CacheStats,
    CampaignFailed,
    CampaignFinished,
    CampaignSkipped,
    CampaignStarted,
    ChaosInjected,
    EventBus,
    JsonlRecorder,
    MetricsAggregator,
    ProgressPrinter,
    Reconfigured,
    StepCompleted,
    SweepFinished,
    campaign_cell_key,
    event_from_dict,
)


class TestEventRecords:
    def test_kind_is_class_name(self):
        assert CampaignStarted(campaign="c").kind == "CampaignStarted"
        assert SweepFinished().kind == "SweepFinished"

    def test_to_dict_is_json_serialisable(self):
        event = StepCompleted(
            campaign="c", step_index=1, n_steps=2, multiplier=3.0,
            parallelisms={"src": 2, "sink": 1}, reconfigurations=1,
            converged=True, seq=7,
        )
        data = event.to_dict()
        assert data["event"] == "StepCompleted"
        assert data["seq"] == 7
        assert json.loads(json.dumps(data)) == data

    def test_finished_outcome_not_serialised(self):
        event = CampaignFinished(campaign="c", outcome=object())
        assert "outcome" not in event.to_dict()
        assert event.outcome is not None

    def test_step_total_parallelism(self):
        event = StepCompleted(parallelisms={"a": 2, "b": 3})
        assert event.total_parallelism == 5

    def test_events_are_frozen(self):
        event = CampaignStarted(campaign="c")
        with pytest.raises(AttributeError):
            event.campaign = "other"


class TestCellKey:
    def test_deterministic_and_readable(self):
        key = campaign_cell_key("q1", "flink", "ds2", (3.0, 7.5), 17)
        assert key == "flink:ds2:q1:x3.0-7.5:s17"
        assert key == campaign_cell_key("q1", "flink", "ds2", [3, 7.5], 17)

    def test_optional_axes(self):
        assert campaign_cell_key("q1", "flink", "ds2", (3,)) == "flink:ds2:q1:x3.0"
        key = campaign_cell_key(
            "q1", "flink", "streamtune", (3,), 17, layer="svm", engine_seed=31
        )
        assert key == "flink:streamtune:q1:x3.0:lsvm:s17:e31"

    def test_distinguishes_every_axis(self):
        base = dict(query="q1", engine="flink", tuner="ds2",
                    rates=(3.0, 7.0), seed=17, layer="svm", engine_seed=31)
        variants = [
            {**base, "query": "q5"},
            {**base, "engine": "timely"},
            {**base, "tuner": "streamtune"},
            {**base, "rates": (3.0, 7.0, 4.0)},
            {**base, "seed": 18},
            {**base, "layer": "nn"},
            {**base, "engine_seed": 32},
        ]
        keys = {campaign_cell_key(**kwargs) for kwargs in [base] + variants}
        assert len(keys) == len(variants) + 1

    def test_close_rate_traces_never_collide(self):
        # repr-exact floats: %g-style rounding must not merge two cells.
        near = campaign_cell_key("q1", "flink", "ds2", (1.0000001,), 17)
        nearer = campaign_cell_key("q1", "flink", "ds2", (1.0000002,), 17)
        assert near != nearer


# ----------------------------------------------------------------------
# to_dict() round-trip: the contract --resume depends on
# ----------------------------------------------------------------------

_FINITE_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_JSON_DICTS = st.dictionaries(
    st.text(max_size=8), st.integers(min_value=0, max_value=512), max_size=4
)


def _field_strategy(spec: dataclasses.Field):
    """A value strategy for one event dataclass field, by annotation."""
    annotation = str(spec.type)
    if "dict" in annotation:
        return _JSON_DICTS
    if "bool" in annotation:
        return st.booleans()
    if "float" in annotation:
        return _FINITE_FLOATS
    if "int" in annotation:
        return st.integers(min_value=-(10 ** 6), max_value=10 ** 6)
    if "None" in annotation:
        return st.none() | st.text(max_size=12)
    return st.text(max_size=12)


@st.composite
def _events(draw):
    cls = draw(
        st.sampled_from(sorted(EVENT_TYPES.values(), key=lambda c: c.__name__))
    )
    kwargs = {
        spec.name: draw(_field_strategy(spec))
        for spec in dataclasses.fields(cls)
        if spec.metadata.get("serialise", True)
    }
    return cls(**kwargs)


class TestEventRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(_events())
    def test_every_event_type_round_trips_through_json(self, event):
        data = json.loads(json.dumps(event.to_dict(), sort_keys=True))
        restored = event_from_dict(data)
        assert restored == event
        assert restored.to_dict() == event.to_dict()

    def test_every_event_type_is_covered(self):
        # The sampling strategy above draws from EVENT_TYPES; this pins the
        # registry so a new event class cannot dodge the property test.
        assert set(EVENT_TYPES) == {
            "CacheStats", "CampaignFailed", "CampaignFinished",
            "CampaignSkipped", "CampaignStarted", "ChaosInjected",
            "JobStateChanged", "JobSubmitted", "Reconfigured",
            "StepCompleted", "SweepFinished",
        }

    @settings(max_examples=50, deadline=None)
    @given(
        steps=st.lists(
            st.builds(
                dict,
                parallelisms=_JSON_DICTS,
                reconfigured=st.booleans(),
                backpressure_after=st.booleans(),
                recommendation_seconds=_FINITE_FLOATS,
                mean_cpu_utilisation=_FINITE_FLOATS,
            ),
            min_size=1,
            max_size=3,
        ),
        multipliers=st.lists(_FINITE_FLOATS, min_size=1, max_size=3),
        converged=st.booleans(),
    )
    def test_finished_result_payload_round_trips(self, steps, multipliers, converged):
        from repro.baselines.api import TuningResult, TuningStep
        from repro.experiments.campaigns import CampaignResult
        from repro.service.tuning import CampaignOutcome

        result = CampaignResult(query_name="q", method="DS2")
        result.multipliers = list(multipliers)
        result.processes = [
            TuningResult(
                query_name="q",
                tuner_name="DS2",
                converged=converged,
                steps=[TuningStep(**step) for step in steps],
            )
        ]
        outcome = CampaignOutcome(
            spec_name="q", result=result, wall_seconds=1.25, backend="thread"
        )
        event = CampaignFinished(
            campaign="q", index=0, backend="thread", n_steps=1,
            wall_seconds=1.25, outcome=outcome, seq=3, cell_key="k",
        )
        data = json.loads(json.dumps(event.to_dict(), sort_keys=True))
        restored = event_from_dict(data)
        assert restored == event
        assert restored.outcome.result == result
        assert restored.outcome.spec_name == "q"
        assert restored.outcome.wall_seconds == 1.25
        assert restored.to_dict() == event.to_dict()

    def test_finished_without_outcome_has_no_result_payload(self):
        event = CampaignFinished(campaign="c")
        assert "result" not in event.to_dict()
        assert event_from_dict(event.to_dict()).outcome is None

    def test_unknown_kind_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_dict({"event": "CampaignImploded"})
        with pytest.raises(ValueError, match="kind"):
            event_from_dict({"campaign": "c"})
        with pytest.raises(ValueError, match="mapping"):
            event_from_dict(["CampaignStarted"])

    def test_jsonl_recorder_lines_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = [
            CampaignStarted(campaign="c", seq=0, cell_key="k"),
            StepCompleted(campaign="c", seq=1, parallelisms={"a": 1}),
            CampaignFailed(campaign="c", seq=2, error_type="OSError",
                           error_message="boom", traceback="tb"),
            CampaignSkipped(campaign="c", seq=3, resumed_from="old.jsonl"),
            CacheStats(stats={}, seq=4),
        ]
        with JsonlRecorder(path) as recorder:
            for event in events:
                recorder(event)
        restored = [
            event_from_dict(json.loads(line))
            for line in path.read_text().splitlines()
        ]
        assert restored == events


class TestEventBus:
    def test_publishes_to_every_subscriber(self):
        seen_a, seen_b = [], []
        bus = EventBus(seen_a.append, seen_b.append)
        event = CampaignStarted(campaign="c")
        bus.publish(event)
        assert seen_a == [event] and seen_b == [event]

    def test_broken_subscriber_is_isolated(self):
        def broken(event):
            raise RuntimeError("printer on fire")

        seen = []
        bus = EventBus(broken, seen.append)
        event = CacheStats(stats={})
        bus.publish(event)                    # must not raise
        assert seen == [event]
        assert len(bus.errors) == 1
        assert bus.errors[0][1] is event
        assert isinstance(bus.errors[0][2], RuntimeError)

    def test_constructor_subscribers(self):
        seen = []
        EventBus(seen.append).publish(SweepFinished())
        assert len(seen) == 1


class TestJsonlRecorder:
    def test_records_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlRecorder(path) as recorder:
            recorder(CampaignStarted(campaign="c", seq=0))
            recorder(StepCompleted(campaign="c", seq=1, parallelisms={"a": 1}))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2 and recorder.n_events == 2
        first, second = (json.loads(line) for line in lines)
        assert first["event"] == "CampaignStarted"
        assert second["parallelisms"] == {"a": 1}

    def test_lazy_open(self, tmp_path):
        recorder = JsonlRecorder(tmp_path / "sub" / "events.jsonl")
        assert not recorder.path.exists()
        recorder(CacheStats(stats={"warmup": {"hits": 1}}))
        recorder.close()
        assert recorder.path.exists()


class TestMetricsAggregator:
    def test_aggregates_steps_and_walls(self):
        metrics = MetricsAggregator()
        metrics(CampaignStarted(campaign="c"))
        metrics(StepCompleted(campaign="c", reconfigurations=2))
        metrics(StepCompleted(campaign="c", reconfigurations=1))
        metrics(CampaignFinished(campaign="c", wall_seconds=1.5))
        metrics(CacheStats(stats={"warmup": {"hits": 3}}))
        assert sum(metrics.steps.values()) == 2
        assert sum(metrics.reconfigurations.values()) == 3
        assert len(metrics.wall_seconds) == 1
        assert metrics.cache_stats == {"warmup": {"hits": 3}}
        assert metrics.n_events == 5

    def test_scenario_scopes_campaign_keys(self):
        metrics = MetricsAggregator()
        metrics(StepCompleted(campaign="c", scenario="a"))
        metrics(StepCompleted(campaign="c", scenario="b"))
        assert set(metrics.steps) == {"a/c", "b/c"}

    def test_failures_surface_counts_and_cell_keys(self):
        metrics = MetricsAggregator()
        metrics(CampaignFinished(campaign="ok", wall_seconds=1.0))
        metrics(CampaignFailed(
            campaign="boom", error_type="OSError", cell_key="flink:s:boom:x3.0"
        ))
        metrics(CampaignFailed(campaign="anon", error_type="ValueError"))
        # Cell keys are what --resume retries; a failure without one falls
        # back to its campaign label so it is never silently dropped.
        assert metrics.failed_cell_keys == ["flink:s:boom:x3.0", "anon"]
        assert len(metrics.wall_seconds) == 1

    def test_no_failures_reads_as_empty(self):
        metrics = MetricsAggregator()
        metrics(CampaignFinished(campaign="ok", wall_seconds=1.0))
        assert metrics.failed_cell_keys == []


class TestProgressPrinter:
    def test_one_line_per_event(self, capsys):
        printer = ProgressPrinter(stream=None)
        import sys

        printer.stream = sys.stderr
        for event in (
            CampaignStarted(campaign="c", n_steps=2, tuner="ds2"),
            StepCompleted(campaign="c", step_index=0, n_steps=2,
                          multiplier=3.0, parallelisms={"a": 4}),
            CampaignFinished(campaign="c", n_steps=2, converged_steps=2),
            CacheStats(stats={"warmup": {"hits": 1, "misses": 2}}),
            SweepFinished(n_scenarios=2, n_campaigns=4),
        ):
            printer(event)
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 5
        assert "ds2" in err and "1h/2m" in err

    def test_reconfigured_prints_nothing(self, capsys):
        event = Reconfigured(campaign="c", parallelisms={"a": 2})
        import sys

        ProgressPrinter(stream=sys.stderr)(event)
        assert capsys.readouterr().err == ""

    def test_chaos_lines_name_what_each_effect_did(self, capsys):
        import sys

        printer = ProgressPrinter(stream=sys.stderr)
        printer(ChaosInjected(campaign="c", step_index=1,
                              effect="trace-dropout", factor=0.4))
        printer(ChaosInjected(campaign="c", step_index=0,
                              effect="operator-loss", operator="map", count=2))
        dropout, loss = capsys.readouterr().err.strip().splitlines()
        assert "chaos trace-dropout (source rate x0.4 survives)" in dropout
        assert "telemetry" not in dropout
        assert "chaos operator-loss (lost 2 instance(s) of map)" in loss

    def test_scenario_prefix(self, capsys):
        import sys

        printer = ProgressPrinter(stream=sys.stderr)
        printer(CampaignStarted(campaign="c", scenario="ds2@flink/x3-7"))
        assert capsys.readouterr().err.startswith("[ds2@flink/x3-7] ")


# ----------------------------------------------------------------------
# the streaming contract on a real (smoke-sized) fleet
# ----------------------------------------------------------------------

def _contract(events, expected_campaigns, expected_steps):
    """Assert the documented stream shape and return events per campaign."""
    seqs = [event.seq for event in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
    assert isinstance(events[-1], CacheStats)
    started = [e for e in events if isinstance(e, CampaignStarted)]
    finished = [e for e in events if isinstance(e, CampaignFinished)]
    assert sorted(e.campaign for e in started) == sorted(expected_campaigns)
    assert sorted(e.campaign for e in finished) == sorted(expected_campaigns)
    for name in expected_campaigns:
        scoped = [e for e in events if getattr(e, "campaign", None) == name]
        assert isinstance(scoped[0], CampaignStarted)
        assert isinstance(scoped[-1], CampaignFinished)
        steps = [e for e in scoped if isinstance(e, StepCompleted)]
        assert [e.step_index for e in steps] == list(range(expected_steps))
    return started, finished


@pytest.mark.parametrize("backend", ["sequential", "thread", "process"])
def test_service_stream_contract(tiny_pretrained, backend):
    from repro.service import CampaignSpec, TuningService
    from repro.workloads import nexmark_query

    specs = [
        CampaignSpec(
            query=nexmark_query(name, "flink"),
            multipliers=(3.0, 7.0),
            engine_seed=41,
            seed=41,
        )
        for name in ("q1", "q5")
    ]
    service = TuningService(tiny_pretrained, backend=backend, max_workers=2)
    events = list(service.stream(specs))
    names = [spec.name for spec in specs]
    started, finished = _contract(events, names, expected_steps=2)
    assert all(event.backend == backend for event in started + finished)
    # every finished event carries the outcome run() would have returned
    assert {event.outcome.spec_name for event in finished} == set(names)
    # campaign-scoped events carry the deterministic resume identity
    assert all(event.cell_key == spec.cell_key
               for spec, event in zip(specs, sorted(started, key=lambda e: e.index)))


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_seq_monotonic_across_merged_shard_streams(tiny_pretrained, backend):
    # Two campaigns running concurrently on their own workers: the
    # consumer re-stamps seq, so the merged stream must be strictly
    # monotonic from 0 no matter how worker events interleave.
    from repro.service import CampaignSpec, TuningService
    from repro.workloads import nexmark_query

    specs = [
        CampaignSpec(
            query=nexmark_query(name, "flink"),
            multipliers=(3.0, 7.0, 4.0),
            engine_seed=41,
            seed=41,
        )
        for name in ("q1", "q5")
    ]
    service = TuningService(tiny_pretrained, backend=backend, max_workers=2)
    events = list(service.stream(specs))
    assert [event.seq for event in events] == list(range(len(events)))
    _contract(events, [spec.name for spec in specs], expected_steps=3)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_step_events_are_live_mid_campaign(tiny_pretrained, backend, monkeypatch):
    # The acceptance contract: a campaign's StepCompleted
    # events reach the consumer while its worker is still executing the
    # rest of the trace — not replayed after CampaignFinished.  At the
    # moment the first of three steps arrives, the campaign's worker
    # still owes two full tuning processes, so its future cannot be done.
    from repro.service import CampaignSpec, TuningService
    from repro.workloads import nexmark_query

    spec = CampaignSpec(
        query=nexmark_query("q5", "flink"),
        multipliers=(3.0, 7.0, 4.0),
        engine_seed=41,
        seed=41,
    )
    # The worker futures, as the stream's drain loop receives them.
    futures: dict = {}
    drain = TuningService._drain

    def spying_drain(self, specs, submitted, get_event):
        futures.update(submitted)
        return drain(self, specs, submitted, get_event)

    monkeypatch.setattr(TuningService, "_drain", spying_drain)
    service = TuningService(tiny_pretrained, backend=backend, max_workers=1)
    live_checks = []
    finished_seen = False
    for event in service.stream([spec]):
        if isinstance(event, StepCompleted) and event.step_index == 0:
            assert not finished_seen
            live_checks.append(any(not f.done() for f in futures.values()))
        elif isinstance(event, CampaignFinished):
            finished_seen = True
    assert finished_seen
    assert live_checks == [True]


def test_stream_results_match_run(tiny_pretrained):
    from repro.service import CampaignSpec, TuningService
    from repro.workloads import nexmark_query

    specs = [
        CampaignSpec(
            query=nexmark_query(name, "flink"),
            multipliers=(3.0, 7.0),
            engine_seed=41,
            seed=41,
        )
        for name in ("q1", "q5")
    ]
    via_run = TuningService(tiny_pretrained, backend="sequential").run(specs)
    events = TuningService(tiny_pretrained, backend="sequential").stream(specs)
    via_stream = {
        event.index: event.outcome
        for event in events
        if isinstance(event, CampaignFinished)
    }
    for index, outcome in enumerate(via_run):
        streamed = via_stream[index]
        assert streamed.spec_name == outcome.spec_name
        assert [
            [step.parallelisms for step in process.steps]
            for process in streamed.result.processes
        ] == [
            [step.parallelisms for step in process.steps]
            for process in outcome.result.processes
        ]


def test_empty_spec_list_streams_only_cache_stats(tiny_pretrained):
    from repro.service import TuningService

    events = list(TuningService(tiny_pretrained, backend="sequential").stream([]))
    assert len(events) == 1 and isinstance(events[0], CacheStats)
    assert TuningService(tiny_pretrained, backend="sequential").run([]) == []
