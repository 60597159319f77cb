"""Unit tests for the observation channel (noise, inflation, rules)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engines.flow import solve_flow
from repro.engines.metrics import (
    JobTelemetry,
    MetricsChannel,
    ObservedOperatorMetrics,
)
from repro.engines.perf import PerformanceModel
from repro.utils.rng import seeded_rng
from tests.conftest import build_linear_flow

PERF = PerformanceModel()


def observe(flow, parallelisms, rates, noise_std=0.06, inflation=None, seed=3):
    truth = solve_flow(flow, parallelisms, rates, PERF)
    channel = MetricsChannel(seeded_rng(seed), noise_std=noise_std)
    inflation = inflation or dict.fromkeys(flow.operator_names, 1.0)
    observed = channel.observe(
        flow, truth, inflation, lambda f, n, d, t: False
    )
    return truth, observed


class TestNoise:
    def test_zero_noise_reports_truth(self, linear_flow):
        truth, observed = observe(
            linear_flow, {"src": 2, "filter": 30, "sink": 4}, {"src": 1e5},
            noise_std=0.0,
        )
        for name, metrics in observed.items():
            assert metrics.input_rate == pytest.approx(truth[name].served_in)
            assert metrics.busy_ms_per_second == pytest.approx(
                1000.0 * truth[name].busy_fraction
            )

    def test_noise_perturbs_rates(self, linear_flow):
        truth, observed = observe(
            linear_flow, {"src": 2, "filter": 30, "sink": 4}, {"src": 1e5}
        )
        assert observed["filter"].input_rate != truth["filter"].served_in
        # within a plausible multiplicative band
        ratio = observed["filter"].input_rate / truth["filter"].served_in
        assert 0.7 < ratio < 1.4

    def test_noise_deterministic_by_seed(self, linear_flow):
        _, a = observe(linear_flow, {"src": 2, "filter": 30, "sink": 4}, {"src": 1e5}, seed=9)
        _, b = observe(linear_flow, {"src": 2, "filter": 30, "sink": 4}, {"src": 1e5}, seed=9)
        assert a["filter"].input_rate == b["filter"].input_rate

    def test_invalid_noise_rejected(self):
        with pytest.raises(ValueError):
            MetricsChannel(seeded_rng(0), noise_std=-0.1)


class TestInflation:
    def test_busy_time_inflated(self, linear_flow):
        _, honest = observe(
            linear_flow, {"src": 4, "filter": 30, "sink": 4}, {"src": 1e6},
            noise_std=0.0,
        )
        _, inflated = observe(
            linear_flow, {"src": 4, "filter": 30, "sink": 4}, {"src": 1e6},
            noise_std=0.0,
            inflation={"src": 1.0, "filter": 3.0, "sink": 1.0},
        )
        assert inflated["filter"].busy_ms_per_second == pytest.approx(
            min(1000.0, 3.0 * honest["filter"].busy_ms_per_second)
        )
        assert inflated["src"].busy_ms_per_second == pytest.approx(
            honest["src"].busy_ms_per_second
        )

    def test_inflation_deflates_true_rate_estimate(self, linear_flow):
        _, honest = observe(
            linear_flow, {"src": 4, "filter": 10, "sink": 4}, {"src": 1e6},
            noise_std=0.0,
        )
        _, inflated = observe(
            linear_flow, {"src": 4, "filter": 10, "sink": 4}, {"src": 1e6},
            noise_std=0.0, inflation={"src": 1.0, "filter": 2.0, "sink": 1.0},
        )
        assert (
            inflated["filter"].true_processing_rate
            < honest["filter"].true_processing_rate
        )


class TestObservedMetrics:
    def test_cpu_load_bounded(self):
        metrics = ObservedOperatorMetrics(
            name="x", parallelism=2, input_rate=10.0, output_rate=5.0,
            busy_ms_per_second=1500.0, idle_ms_per_second=0.0,
            backpressured_ms_per_second=0.0, is_backpressured=False,
        )
        assert metrics.cpu_load == 1.0

    def test_true_rate_zero_when_idle(self):
        metrics = ObservedOperatorMetrics(
            name="x", parallelism=1, input_rate=0.0, output_rate=0.0,
            busy_ms_per_second=0.0, idle_ms_per_second=1000.0,
            backpressured_ms_per_second=0.0, is_backpressured=False,
        )
        assert metrics.true_processing_rate == 0.0

    def test_true_rate_extrapolates(self):
        metrics = ObservedOperatorMetrics(
            name="x", parallelism=1, input_rate=500.0, output_rate=500.0,
            busy_ms_per_second=250.0, idle_ms_per_second=750.0,
            backpressured_ms_per_second=0.0, is_backpressured=False,
        )
        assert metrics.true_processing_rate == pytest.approx(2000.0)


class TestJobTelemetry:
    def test_lookup_and_backpressured_listing(self, linear_flow):
        _, observed = observe(linear_flow, {"src": 2, "filter": 30, "sink": 4}, {"src": 1e5})
        telemetry = JobTelemetry(
            job_name="j", operators=observed, has_backpressure=False
        )
        assert telemetry["filter"].name == "filter"
        assert not any(m.is_backpressured for m in telemetry.operators.values())
