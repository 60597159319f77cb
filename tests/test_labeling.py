"""Tests for Algorithm 1 bottleneck identification (Flink + Timely modes)."""

from __future__ import annotations

import pytest

from repro.core import labeling
from repro.core.labeling import (
    CPU_THRESHOLD,
    label_operators,
    label_operators_flink,
    label_operators_timely,
)
from repro.engines.metrics import JobTelemetry, ObservedOperatorMetrics
from tests.conftest import build_diamond_flow, build_linear_flow


def metrics_for(
    name: str,
    backpressured: bool = False,
    cpu: float = 0.3,
    input_rate: float = 1000.0,
) -> ObservedOperatorMetrics:
    return ObservedOperatorMetrics(
        name=name,
        parallelism=2,
        input_rate=input_rate,
        output_rate=input_rate / 2,
        busy_ms_per_second=cpu * 1000.0,
        idle_ms_per_second=(1 - cpu) * 1000.0,
        backpressured_ms_per_second=200.0 if backpressured else 0.0,
        is_backpressured=backpressured,
    )


def telemetry_of(flow, has_bp: bool, **operator_kwargs) -> JobTelemetry:
    operators = {
        name: metrics_for(name, **operator_kwargs.get(name, {}))
        for name in flow.operator_names
    }
    return JobTelemetry(job_name=flow.name, operators=operators, has_backpressure=has_bp)


class TestFlinkLabeling:
    def test_no_backpressure_labels_all_zero(self, diamond_flow):
        telemetry = telemetry_of(diamond_flow, has_bp=False)
        labels = label_operators_flink(diamond_flow, telemetry)
        assert labels == dict.fromkeys(diamond_flow.operator_names, 0)

    def test_fig3_scenario(self, diamond_flow):
        """src backpressured; left hot (98%), right cool (15%)."""
        telemetry = telemetry_of(
            diamond_flow,
            has_bp=True,
            src={"backpressured": True},
            left={"cpu": 0.98},
            right={"cpu": 0.15},
        )
        labels = label_operators_flink(diamond_flow, telemetry)
        assert labels["left"] == 1      # the bottleneck
        assert labels["right"] == 0     # examined sibling, low CPU
        assert labels["src"] == -1      # the backpressured op itself: unlabelled
        assert labels["join"] == -1     # beyond the frontier: unlabelled
        assert labels["sink"] == -1

    def test_deepest_backpressured_selected(self, linear_flow):
        """If src and filter are both flagged, only the deepest matters."""
        telemetry = telemetry_of(
            linear_flow,
            has_bp=True,
            src={"backpressured": True},
            filter={"backpressured": True, "cpu": 0.5},
            sink={"cpu": 0.95},
        )
        labels = label_operators_flink(linear_flow, telemetry)
        # filter is the deepest flagged op -> its downstream (sink) examined.
        assert labels["sink"] == 1
        assert labels["filter"] == -1
        assert labels["src"] == -1

    def test_cpu_threshold_boundary(self, linear_flow):
        telemetry = telemetry_of(
            linear_flow,
            has_bp=True,
            src={"backpressured": True},
            filter={"cpu": CPU_THRESHOLD},   # exactly at T: not above -> 0
        )
        labels = label_operators_flink(linear_flow, telemetry)
        assert labels["filter"] == 0

    def test_custom_threshold(self, linear_flow, monkeypatch):
        monkeypatch.setattr(labeling, "CPU_THRESHOLD", 0.4)
        telemetry = telemetry_of(
            linear_flow,
            has_bp=True,
            src={"backpressured": True},
            filter={"cpu": 0.5},
        )
        labels = label_operators_flink(linear_flow, telemetry)
        assert labels["filter"] == 1

    def test_backpressure_without_flags_labels_nothing(self, linear_flow):
        """Job-level BP with no flagged operator: all stay unlabelled."""
        telemetry = telemetry_of(linear_flow, has_bp=True)
        labels = label_operators_flink(linear_flow, telemetry)
        assert set(labels.values()) == {-1}


class TestTimelyLabeling:
    def test_no_bottleneck_all_zero(self, diamond_flow):
        telemetry = telemetry_of(diamond_flow, has_bp=False)
        labels = label_operators_timely(diamond_flow, telemetry)
        assert labels == dict.fromkeys(diamond_flow.operator_names, 0)

    def test_flagged_operator_is_the_bottleneck(self, diamond_flow):
        """Timely's 85% rule flags the slow consumer directly."""
        telemetry = telemetry_of(
            diamond_flow,
            has_bp=True,
            join={"backpressured": True},
        )
        labels = label_operators_timely(diamond_flow, telemetry)
        assert labels["join"] == 1
        assert labels["sink"] == -1    # downstream of the bottleneck: distorted
        assert labels["src"] == 0      # upstream: saw full offered rate
        assert labels["left"] == 0
        assert labels["right"] == 0

    def test_multiple_bottlenecks(self, diamond_flow):
        telemetry = telemetry_of(
            diamond_flow,
            has_bp=True,
            left={"backpressured": True},
            right={"backpressured": True},
        )
        labels = label_operators_timely(diamond_flow, telemetry)
        assert labels["left"] == 1 and labels["right"] == 1
        assert labels["src"] == 0
        assert labels["join"] == -1 and labels["sink"] == -1


class TestDispatch:
    def test_engine_dispatch(self, linear_flow):
        telemetry = telemetry_of(linear_flow, has_bp=False)
        assert label_operators(linear_flow, telemetry, "flink") == (
            label_operators_flink(linear_flow, telemetry)
        )
        assert label_operators(linear_flow, telemetry, "timely") == (
            label_operators_timely(linear_flow, telemetry)
        )


class TestEndToEndLabels:
    def test_flink_pipeline_labels_real_bottleneck(self, linear_flow, noiseless):
        from repro.engines.flink import FlinkCluster

        engine = FlinkCluster(seed=3)
        capacity = engine.perf.processing_ability(linear_flow.operator("filter"), 1)
        deployment = engine.deploy(
            linear_flow, {"src": 10, "filter": 1, "sink": 10},
            {"src": 3 * capacity},
        )
        telemetry = engine.measure(deployment)
        labels = label_operators(linear_flow, telemetry, "flink")
        assert labels["filter"] == 1

    def test_timely_pipeline_labels_real_bottleneck(self, linear_flow, noiseless):
        from repro.engines.timely import TimelyCluster

        engine = TimelyCluster(seed=3)
        capacity = engine.perf.processing_ability(linear_flow.operator("filter"), 1)
        deployment = engine.deploy(
            linear_flow, {"src": 2, "filter": 1, "sink": 4},
            {"src": 3 * capacity},
        )
        telemetry = engine.measure(deployment)
        labels = label_operators(linear_flow, telemetry, "timely")
        assert labels["filter"] == 1
        assert labels["src"] == 0
