"""Unit tests for the Flink and Timely engine adapters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engines.base import STABILIZATION_MINUTES, EngineError
from repro.engines import flink
from repro.engines.flink import FlinkCluster
from repro.engines.timely import (
    STATEFUL_SPIN_INFLATION,
    STATELESS_SPIN_INFLATION,
    WORKERS,
    TimelyCluster,
    aggregate_message_rates,
)
from repro.engines.perf import PerformanceModel
from tests.conftest import build_diamond_flow, build_linear_flow


class TestLifecycle:
    def test_deploy_requires_all_parallelisms(self, flink, linear_flow):
        with pytest.raises(EngineError, match="no parallelism"):
            flink.deploy(linear_flow, {"src": 1}, {"src": 1e3})

    def test_deploy_rejects_out_of_range(self, flink, linear_flow):
        with pytest.raises(EngineError, match="outside"):
            flink.deploy(
                linear_flow, {"src": 1, "filter": 101, "sink": 1}, {"src": 1e3}
            )

    def test_deploy_rejects_non_integer(self, flink, linear_flow):
        with pytest.raises(EngineError, match="int"):
            flink.deploy(
                linear_flow, {"src": 1, "filter": 2.5, "sink": 1}, {"src": 1e3}
            )

    def test_reconfigure_counts_and_waits(self, flink, linear_flow):
        deployment = flink.deploy(
            linear_flow, {"src": 1, "filter": 1, "sink": 1}, {"src": 1e3}
        )
        flink.reconfigure(deployment, {"src": 1, "filter": 4, "sink": 1})
        flink.reconfigure(deployment, {"src": 1, "filter": 4, "sink": 1})
        assert deployment.n_reconfigurations == 2
        assert deployment.sim_minutes == pytest.approx(2 * STABILIZATION_MINUTES)

    def test_set_source_rates_validates_names(self, flink, linear_flow):
        deployment = flink.deploy(
            linear_flow, {"src": 1, "filter": 1, "sink": 1}, {"src": 1e3}
        )
        with pytest.raises(EngineError, match="non-source"):
            flink.set_source_rates(deployment, {"filter": 1e3})

    def test_stopped_job_rejects_operations(self, flink, linear_flow):
        deployment = flink.deploy(
            linear_flow, {"src": 1, "filter": 1, "sink": 1}, {"src": 1e3}
        )
        flink.stop(deployment)
        with pytest.raises(EngineError, match="not running"):
            flink.measure(deployment)

    def test_max_parallelism_from_slots(self, monkeypatch):
        assert FlinkCluster().max_parallelism == 100
        monkeypatch.setattr(flink, "TASK_MANAGERS", 10)
        monkeypatch.setattr(flink, "SLOTS_PER_TASK_MANAGER", 4)
        assert FlinkCluster().max_parallelism == 40


class TestFlinkBackpressureRule:
    def test_flags_backpressured_upstream(self, linear_flow):
        engine = FlinkCluster(seed=8)
        capacity = engine.perf.processing_ability(linear_flow.operator("filter"), 1)
        deployment = engine.deploy(
            linear_flow, {"src": 10, "filter": 1, "sink": 10},
            {"src": 3 * capacity},
        )
        telemetry = engine.measure(deployment)
        assert telemetry.has_backpressure
        assert telemetry["src"].is_backpressured       # stalled by the filter
        assert not telemetry["filter"].is_backpressured  # the bottleneck itself

    def test_no_flags_when_healthy(self, linear_flow):
        engine = FlinkCluster(seed=8)
        deployment = engine.deploy(
            linear_flow, {"src": 4, "filter": 50, "sink": 10}, {"src": 1e6}
        )
        telemetry = engine.measure(deployment)
        assert not telemetry.has_backpressure
        assert not any(m.is_backpressured for m in telemetry.operators.values())

    def test_small_overload_below_ten_percent_not_flagged(self, linear_flow, noiseless):
        """theta > 0.9 keeps backPressuredTime under the 10% rule."""
        engine = FlinkCluster(seed=8)
        capacity = engine.perf.processing_ability(linear_flow.operator("filter"), 10)
        deployment = engine.deploy(
            linear_flow, {"src": 10, "filter": 10, "sink": 10},
            {"src": capacity * 1.05},
        )
        telemetry = engine.measure(deployment)
        assert telemetry.has_backpressure           # truth: saturated
        assert not telemetry["src"].is_backpressured  # but below the 10% rule


class TestTimely:
    def test_spin_inflation_by_statefulness(self, timely, diamond_flow):
        join_spec = diamond_flow.operator("join")
        filter_spec = diamond_flow.operator("left")
        assert timely.busy_inflation(join_spec) == STATEFUL_SPIN_INFLATION
        assert timely.busy_inflation(filter_spec) == STATELESS_SPIN_INFLATION

    def test_85_percent_rule_flags_bottleneck_itself(self, linear_flow, noiseless):
        engine = TimelyCluster(seed=5)
        capacity = engine.perf.processing_ability(linear_flow.operator("filter"), 1)
        deployment = engine.deploy(
            linear_flow, {"src": 10, "filter": 1, "sink": 10},
            {"src": 2 * capacity},
        )
        telemetry = engine.measure(deployment)
        assert telemetry.has_backpressure
        assert telemetry["filter"].is_backpressured   # consumes < 85% of offer

    def test_dead_band_below_85(self, linear_flow, noiseless):
        engine = TimelyCluster(seed=5)
        capacity = engine.perf.processing_ability(linear_flow.operator("filter"), 4)
        deployment = engine.deploy(
            linear_flow, {"src": 4, "filter": 4, "sink": 10},
            {"src": capacity * 1.08},
        )
        telemetry = engine.measure(deployment)
        # 1/1.08 = 0.93 > 0.85: the rule cannot see this mild overload.
        assert not telemetry.has_backpressure

    def test_message_events_cover_all_operators(self, timely, linear_flow):
        deployment = timely.deploy(
            linear_flow, {"src": 1, "filter": 2, "sink": 1}, {"src": 1e6}
        )
        events = timely.collect_message_events(deployment)
        operators = {event.operator for event in events}
        assert operators == set(linear_flow.operator_names)
        workers = {event.worker for event in events}
        assert workers == set(range(WORKERS))

    def test_aggregate_message_rates(self):
        from repro.engines.timely import MessagesEvent

        events = [
            MessagesEvent(worker=0, operator="op", records_received=500,
                          records_sent=250, interval_seconds=1.0),
            MessagesEvent(worker=1, operator="op", records_received=300,
                          records_sent=150, interval_seconds=1.0),
        ]
        rates = aggregate_message_rates(events)
        assert rates["op"] == (800.0, 400.0)

    def test_epoch_latencies_blow_up_under_saturation(self, linear_flow):
        engine = TimelyCluster(seed=5)
        capacity = engine.perf.processing_ability(linear_flow.operator("filter"), 1)
        ok = engine.deploy(
            linear_flow, {"src": 2, "filter": 10, "sink": 2}, {"src": capacity}
        )
        saturated = engine.deploy(
            linear_flow, {"src": 2, "filter": 1, "sink": 2}, {"src": 3 * capacity}
        )
        ok_latency = float(np.median(engine.sample_epoch_latencies(ok, 50)))
        bad_latency = float(np.median(engine.sample_epoch_latencies(saturated, 50)))
        assert bad_latency > 10 * ok_latency

    def test_latency_grows_with_utilisation(self, linear_flow):
        engine = TimelyCluster(seed=5)
        capacity = engine.perf.processing_ability(linear_flow.operator("filter"), 8)
        low = engine.deploy(
            linear_flow, {"src": 2, "filter": 8, "sink": 2}, {"src": 0.2 * capacity}
        )
        high = engine.deploy(
            linear_flow, {"src": 2, "filter": 8, "sink": 2}, {"src": 0.9 * capacity}
        )
        low_latency = float(np.median(engine.sample_epoch_latencies(low, 80)))
        high_latency = float(np.median(engine.sample_epoch_latencies(high, 80)))
        assert high_latency > low_latency


class TestJobLatencyMetric:
    def test_latency_has_parallelism_knee(self, linear_flow, noiseless):
        """Over-provisioning raises latency (the ZeroTune training signal)."""
        engine = FlinkCluster(seed=8)
        lean = engine.deploy(
            linear_flow, {"src": 2, "filter": 10, "sink": 2}, {"src": 1e6}
        )
        bloated = engine.deploy(
            linear_flow, {"src": 80, "filter": 90, "sink": 80}, {"src": 1e6}
        )
        assert (
            engine.measure(bloated).job_latency_seconds
            > engine.measure(lean).job_latency_seconds
        )

    def test_latency_pinned_under_backpressure(self, linear_flow, noiseless):
        engine = FlinkCluster(seed=8)
        capacity = engine.perf.processing_ability(linear_flow.operator("filter"), 1)
        deployment = engine.deploy(
            linear_flow, {"src": 10, "filter": 1, "sink": 10}, {"src": 5 * capacity}
        )
        assert engine.measure(deployment).job_latency_seconds == pytest.approx(60.0)
