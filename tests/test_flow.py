"""Unit and property tests for the steady-state flow solver."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.engines.flow import solve_flow
from repro.engines.perf import PerformanceModel
from tests.conftest import build_diamond_flow, build_linear_flow

PERF = PerformanceModel()


def filter_capacity(flow, p: int) -> float:
    return PERF.processing_ability(flow.operator("filter"), p)


class TestDemandPropagation:
    def test_selectivity_chains(self, linear_flow):
        result = solve_flow(
            linear_flow, {"src": 1, "filter": 50, "sink": 1}, {"src": 1e5}, PERF
        )
        assert result["src"].demand_in == 1e5
        assert result["filter"].demand_in == pytest.approx(1e5)
        assert result["sink"].demand_in == pytest.approx(0.5 * 1e5)

    def test_join_sums_inputs(self, diamond_flow):
        parallelisms = dict.fromkeys(diamond_flow.operator_names, 50)
        result = solve_flow(diamond_flow, parallelisms, {"src": 1e5}, PERF)
        expected = 1e5 * 0.6 + 1e5 * 0.4
        assert result["join"].demand_in == pytest.approx(expected)

    def test_missing_source_rate_is_zero(self, linear_flow):
        result = solve_flow(
            linear_flow, dict.fromkeys(linear_flow.operator_names, 1), {}, PERF
        )
        assert result["sink"].demand_in == 0.0
        assert not result.has_backpressure

    def test_missing_parallelism_rejected(self, linear_flow):
        with pytest.raises(ValueError, match="missing parallelism"):
            solve_flow(linear_flow, {"src": 1}, {"src": 1e3}, PERF)


class TestSaturationAndBackpressure:
    def test_no_backpressure_when_capacity_sufficient(self, linear_flow):
        result = solve_flow(
            linear_flow, {"src": 1, "filter": 60, "sink": 10}, {"src": 1e6}, PERF
        )
        assert not result.has_backpressure
        assert result.theta == 1.0
        assert result.saturated == ()

    def test_undersized_filter_saturates(self, linear_flow):
        rate = 3 * filter_capacity(linear_flow, 1)
        result = solve_flow(
            linear_flow, {"src": 50, "filter": 1, "sink": 10}, {"src": rate}, PERF
        )
        assert result.has_backpressure
        assert "filter" in result.saturated
        assert result["filter"].utilization == 1.0

    def test_backpressure_propagates_to_ancestors(self, diamond_flow):
        parallelisms = dict.fromkeys(diamond_flow.operator_names, 60)
        parallelisms["join"] = 1
        rate = 40 * PERF.processing_ability(diamond_flow.operator("join"), 1)
        result = solve_flow(diamond_flow, parallelisms, {"src": rate}, PERF)
        assert "join" in result.saturated
        assert set(result.backpressured) == {"src", "left", "right"}
        assert not result["sink"].backpressured

    def test_theta_reflects_worst_bottleneck(self, linear_flow):
        capacity = filter_capacity(linear_flow, 1)
        result = solve_flow(
            linear_flow, {"src": 50, "filter": 1, "sink": 10},
            {"src": 2 * capacity}, PERF,
        )
        assert result.theta == pytest.approx(0.5, rel=1e-6)

    def test_served_rates_throttled(self, linear_flow):
        capacity = filter_capacity(linear_flow, 1)
        result = solve_flow(
            linear_flow, {"src": 50, "filter": 1, "sink": 10},
            {"src": 4 * capacity}, PERF,
        )
        assert result["filter"].served_in == pytest.approx(capacity, rel=1e-6)
        assert result["sink"].served_in == pytest.approx(0.5 * capacity, rel=1e-6)


class TestTimeFractions:
    def test_fractions_partition_unity(self, diamond_flow):
        parallelisms = dict.fromkeys(diamond_flow.operator_names, 2)
        parallelisms["join"] = 1
        rate = 30 * PERF.processing_ability(diamond_flow.operator("join"), 1)
        result = solve_flow(diamond_flow, parallelisms, {"src": rate}, PERF)
        for op_flow in result.operators.values():
            total = (
                op_flow.busy_fraction
                + op_flow.idle_fraction
                + op_flow.backpressure_fraction
            )
            assert total == pytest.approx(1.0, abs=1e-9)
            assert op_flow.busy_fraction >= 0
            assert op_flow.idle_fraction >= 0
            assert op_flow.backpressure_fraction >= 0

    def test_saturated_operator_fully_busy(self, linear_flow):
        rate = 5 * filter_capacity(linear_flow, 1)
        result = solve_flow(
            linear_flow, {"src": 50, "filter": 1, "sink": 10}, {"src": rate}, PERF
        )
        assert result["filter"].busy_fraction == 1.0
        assert result["filter"].backpressure_fraction == 0.0

    def test_backpressured_ancestor_blocked(self, linear_flow):
        rate = 5 * filter_capacity(linear_flow, 1)
        result = solve_flow(
            linear_flow, {"src": 50, "filter": 1, "sink": 10}, {"src": rate}, PERF
        )
        assert result["src"].backpressure_fraction > 0.3


class TestResultHelpers:
    def test_sink_throughput(self, linear_flow):
        result = solve_flow(
            linear_flow, {"src": 10, "filter": 60, "sink": 10}, {"src": 1e5}, PERF
        )
        assert result.operators["sink"].served_in == pytest.approx(5e4, rel=1e-6)


class TestMonotonicityProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        rate=st.floats(min_value=1e4, max_value=5e6),
        p_filter=st.integers(min_value=1, max_value=50),
    )
    def test_more_parallelism_never_hurts(self, rate, p_filter):
        """Raising one operator's degree never lowers theta."""
        flow = build_linear_flow()
        base = solve_flow(
            flow, {"src": 10, "filter": p_filter, "sink": 20}, {"src": rate}, PERF
        )
        bigger = solve_flow(
            flow, {"src": 10, "filter": p_filter + 1, "sink": 20}, {"src": rate}, PERF
        )
        assert bigger.theta >= base.theta - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(rate=st.floats(min_value=1e3, max_value=1e7))
    def test_theta_bounded(self, rate):
        flow = build_diamond_flow()
        result = solve_flow(
            flow, dict.fromkeys(flow.operator_names, 3), {"src": rate}, PERF
        )
        assert 0 < result.theta <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(rate=st.floats(min_value=1e3, max_value=1e7))
    def test_saturation_consistency(self, rate):
        """Job backpressure iff some operator is saturated."""
        flow = build_diamond_flow()
        result = solve_flow(
            flow, dict.fromkeys(flow.operator_names, 2), {"src": rate}, PERF
        )
        assert result.has_backpressure == bool(result.saturated)
