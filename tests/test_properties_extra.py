"""Extra property-based and failure-injection tests.

Deeper hypothesis coverage of the invariants the tuning stack rests on:
flow-solver conservation laws, GED metric axioms against the full corpus,
model monotonicity under adversarial datasets, and engine behaviour at
noise extremes.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.labeling import label_operators
from repro.dataflow.graph import LogicalDataflow
from repro.dataflow.operators import OperatorSpec, OperatorType
from repro.engines.flink import FlinkCluster
from repro.engines.flow import solve_flow
from repro.engines.perf import PerformanceModel
from repro.models import MonotonicGBDT, MonotonicSVM, gbdt, make_prediction_model
from tests.conftest import build_diamond_flow, build_linear_flow, check_monotonicity

PERF = PerformanceModel()


class TestFlowConservation:
    @settings(max_examples=40, deadline=None)
    @given(
        rate=st.floats(min_value=1e3, max_value=2e7),
        p_left=st.integers(min_value=1, max_value=40),
        p_right=st.integers(min_value=1, max_value=40),
        p_join=st.integers(min_value=1, max_value=40),
    )
    def test_served_rates_conserve_selectivity(self, rate, p_left, p_right, p_join):
        flow = build_diamond_flow()
        parallelisms = {
            "src": 10, "left": p_left, "right": p_right,
            "join": p_join, "sink": 30,
        }
        result = solve_flow(flow, parallelisms, {"src": rate}, PERF)
        for name in flow.operator_names:
            spec = flow.operator(name)
            op = result[name]
            assert op.served_out == pytest.approx(spec.selectivity * op.served_in)
            # Flow in equals the sum of upstream flows out.
            upstream = flow.upstream(name)
            if upstream:
                assert op.served_in == pytest.approx(
                    sum(result[u].served_out for u in upstream)
                )

    @settings(max_examples=40, deadline=None)
    @given(rate=st.floats(min_value=1e3, max_value=2e7))
    def test_served_never_exceeds_demand_or_capacity(self, rate):
        flow = build_linear_flow()
        result = solve_flow(
            flow, {"src": 3, "filter": 2, "sink": 5}, {"src": rate}, PERF
        )
        for op in result.operators.values():
            assert op.served_in <= op.demand_in * (1 + 1e-9)
            assert op.served_in <= op.capacity * (1 + 1e-6)

    @settings(max_examples=30, deadline=None)
    @given(rate=st.floats(min_value=1e3, max_value=2e7))
    def test_binding_bottleneck_runs_at_capacity(self, rate):
        flow = build_linear_flow()
        result = solve_flow(
            flow, {"src": 3, "filter": 1, "sink": 5}, {"src": rate}, PERF
        )
        for name in result.saturated:
            op = result[name]
            assert op.served_in == pytest.approx(op.capacity, rel=1e-6)
            assert op.busy_fraction == 1.0


class TestLabelingInvariants:
    @settings(max_examples=20, deadline=None)
    @given(
        rate=st.floats(min_value=1e4, max_value=1e7),
        p=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_labels_always_well_formed(self, rate, p, seed):
        flow = build_diamond_flow()
        engine = FlinkCluster(seed=seed)
        deployment = engine.deploy(
            flow, dict.fromkeys(flow.operator_names, p), {"src": rate}
        )
        telemetry = engine.measure(deployment)
        labels = label_operators(flow, telemetry, "flink")
        assert set(labels) == set(flow.operator_names)
        assert set(labels.values()) <= {-1, 0, 1}
        if not telemetry.has_backpressure:
            assert set(labels.values()) == {0}

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_bottleneck_label_only_on_hot_operators(self, seed):
        flow = build_linear_flow()
        engine = FlinkCluster(seed=seed)
        capacity = engine.perf.processing_ability(flow.operator("filter"), 1)
        deployment = engine.deploy(
            flow, {"src": 10, "filter": 1, "sink": 10}, {"src": 4 * capacity}
        )
        telemetry = engine.measure(deployment)
        labels = label_operators(flow, telemetry, "flink")
        for name, label in labels.items():
            if label == 1:
                assert telemetry[name].cpu_load > 0.6


class TestModelAdversarialMonotonicity:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_svm_monotone_on_label_noise(self, seed):
        """Even with contradictory labels the constraint must hold."""
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(120, 3))
        y = rng.integers(0, 2, size=120)   # pure noise labels
        model = MonotonicSVM(seed=seed).fit(X, y)
        assert check_monotonicity(model, X[:15]).is_monotone

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_gbdt_monotone_on_label_noise(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(120, 3))
        y = rng.integers(0, 2, size=120)
        with mock.patch.object(gbdt, "N_ESTIMATORS", 20):
            model = MonotonicGBDT().fit(X, y)
        assert check_monotonicity(model, X[:15]).is_monotone

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500))
    @pytest.mark.parametrize("kind", ["svm", "xgboost", "isotonic"])
    def test_weighted_fit_monotone_on_label_noise(self, kind, seed):
        """Random positive weights cannot break the constraint either."""
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(120, 3))
        y = rng.integers(0, 2, size=120)
        weights = rng.uniform(0.1, 10.0, size=120)
        with mock.patch.object(gbdt, "N_ESTIMATORS", 20):
            model = make_prediction_model(kind, seed=seed).fit(
                X, y, sample_weight=weights
            )
        assert check_monotonicity(model, X[:15]).is_monotone

    def test_svm_monotone_on_anti_monotone_data(self):
        """Labels engineered to *reward* violating the constraint."""
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(300, 2))
        y = (X[:, -1] > 0.5).astype(int)   # bottleneck at HIGH parallelism
        model = MonotonicSVM(seed=3).fit(X, y)
        assert check_monotonicity(model, X[:30]).is_monotone


class TestNoiseExtremes:
    def test_zero_noise_engine_is_deterministic(self, linear_flow, noiseless):
        results = []
        for _ in range(2):
            engine = FlinkCluster(seed=9)
            deployment = engine.deploy(
                linear_flow, {"src": 2, "filter": 10, "sink": 2}, {"src": 1e6}
            )
            telemetry = engine.measure(deployment)
            results.append(telemetry["filter"].input_rate)
        assert results[0] == results[1]

    def test_heavy_noise_does_not_break_tuning(self, linear_flow, monkeypatch):
        from repro.baselines import DS2Tuner
        from repro.engines import metrics

        monkeypatch.setattr(metrics, "DEFAULT_NOISE_STD", 0.30)
        engine = FlinkCluster(seed=9)
        tuner = DS2Tuner(engine)
        deployment = engine.deploy(
            linear_flow, dict.fromkeys(linear_flow.operator_names, 1), {"src": 1e6}
        )
        result = tuner.tune(deployment, {"src": 3e6})
        assert result.steps
        assert all(
            1 <= p <= engine.max_parallelism
            for step in result.steps
            for p in step.parallelisms.values()
        )

    def test_extreme_rates_stay_finite(self, linear_flow):
        engine = FlinkCluster(seed=9)
        deployment = engine.deploy(
            linear_flow, {"src": 100, "filter": 100, "sink": 100}, {"src": 1e12}
        )
        telemetry = engine.measure(deployment)
        assert np.isfinite(telemetry.job_latency_seconds)
        for metrics in telemetry.operators.values():
            assert np.isfinite(metrics.input_rate)


class TestDegenerateGraphs:
    def test_single_source_job(self):
        flow = LogicalDataflow("lonely")
        flow.add_operator(OperatorSpec(name="src", op_type=OperatorType.SOURCE))
        flow.validate()
        engine = FlinkCluster(seed=1)
        deployment = engine.deploy(flow, {"src": 1}, {"src": 1e5})
        telemetry = engine.measure(deployment)
        assert not telemetry.has_backpressure

    def test_two_node_job_tunes(self):
        flow = LogicalDataflow("tiny")
        flow.chain(
            OperatorSpec(name="src", op_type=OperatorType.SOURCE),
            OperatorSpec(name="agg", op_type=OperatorType.FILTER, selectivity=0.1),
        )
        flow.validate()
        from repro.baselines import OracleTuner

        engine = FlinkCluster(seed=1)
        deployment = engine.deploy(flow, {"src": 1, "agg": 1}, {"src": 1e5})
        result = OracleTuner(engine).tune(deployment, {"src": 8e6})
        assert not engine.ground_truth(deployment).has_backpressure
        assert result.converged
