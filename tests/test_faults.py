"""Failure-injection tests: lost instances, degraded capacity, recovery."""

from __future__ import annotations

import pytest

from repro.dataflow.operators import OperatorSpec, OperatorType
from repro.engines.base import EngineError
from repro.engines.faults import DegradedPerformanceModel, FaultInjectingFlink
from repro.engines.perf import PerformanceModel


@pytest.fixture()
def faulty(noiseless):
    return FaultInjectingFlink(seed=11)


def deploy_linear(engine, linear_flow, filter_p=6, rate_fraction=0.8):
    """Deploy with the filter sized so it just sustains the rate."""
    spec = linear_flow.operator("filter")
    sustainable = engine.perf.processing_ability(spec, filter_p)
    rates = {"src": sustainable * rate_fraction}
    parallelisms = {"src": 2, "filter": filter_p, "sink": 2}
    return engine.deploy(linear_flow, parallelisms, rates)


class TestDegradedPerformanceModel:
    def test_capacity_shrinks_by_lost_instances(self):
        base = PerformanceModel()
        spec = OperatorSpec(name="f", op_type=OperatorType.FILTER)
        degraded = DegradedPerformanceModel(base, {"f": 3})
        assert degraded.processing_ability(spec, 8) == pytest.approx(
            base.processing_ability(spec, 5)
        )

    def test_never_below_one_instance(self):
        base = PerformanceModel()
        spec = OperatorSpec(name="f", op_type=OperatorType.FILTER)
        degraded = DegradedPerformanceModel(base, {"f": 10})
        assert degraded.processing_ability(spec, 2) == pytest.approx(
            base.processing_ability(spec, 1)
        )

    def test_unaffected_operator_full_speed(self):
        base = PerformanceModel()
        spec = OperatorSpec(name="g", op_type=OperatorType.MAP)
        degraded = DegradedPerformanceModel(base, {"f": 3})
        assert degraded.processing_ability(spec, 4) == base.processing_ability(spec, 4)

    def test_min_parallelism_compensates_for_losses(self):
        base = PerformanceModel()
        spec = OperatorSpec(name="f", op_type=OperatorType.FILTER)
        demand = base.processing_ability(spec, 6)
        degraded = DegradedPerformanceModel(base, {"f": 2})
        assert degraded.min_parallelism_for(spec, demand, 100) == (
            base.min_parallelism_for(spec, demand, 100) + 2
        )

    def test_rejects_negative_losses(self):
        with pytest.raises(ValueError):
            DegradedPerformanceModel(PerformanceModel(), {"f": -1})


class TestFaultLifecycle:
    def test_fault_creates_backpressure(self, faulty, linear_flow):
        deployment = deploy_linear(faulty, linear_flow)
        assert not faulty.ground_truth(deployment).has_backpressure
        faulty.fail_instances(deployment, "filter", 3)
        assert faulty.ground_truth(deployment).has_backpressure
        assert faulty.lost_instances(deployment) == {"filter": 3}

    def test_restart_reschedules_and_clears_faults(self, faulty, linear_flow):
        deployment = deploy_linear(faulty, linear_flow)
        faulty.fail_instances(deployment, "filter", 3)
        faulty.reconfigure(deployment, dict(deployment.parallelisms))
        assert faulty.lost_instances(deployment) == {}
        assert not faulty.ground_truth(deployment).has_backpressure

    def test_cannot_fail_every_instance(self, faulty, linear_flow):
        deployment = deploy_linear(faulty, linear_flow)
        with pytest.raises(EngineError, match="survive"):
            faulty.fail_instances(deployment, "filter", 6)

    def test_cumulative_failures_respect_survivor_rule(self, faulty, linear_flow):
        deployment = deploy_linear(faulty, linear_flow)
        faulty.fail_instances(deployment, "filter", 4)
        with pytest.raises(EngineError, match="survive"):
            faulty.fail_instances(deployment, "filter", 2)

    def test_unknown_operator_and_bad_count(self, faulty, linear_flow):
        deployment = deploy_linear(faulty, linear_flow)
        with pytest.raises(EngineError, match="unknown operator"):
            faulty.fail_instances(deployment, "nope")
        with pytest.raises(EngineError, match=">= 1"):
            faulty.fail_instances(deployment, "filter", 0)

    def test_faults_are_per_deployment(self, faulty, linear_flow):
        first = deploy_linear(faulty, linear_flow)
        second = faulty.deploy(
            linear_flow.copy("second"),
            {"src": 2, "filter": 6, "sink": 2},
            dict(first.source_rates),
        )
        faulty.fail_instances(first, "filter", 2)
        assert faulty.lost_instances(second) == {}
        faulty.stop(first)
        faulty.stop(second)

    def test_stop_clears_fault_state(self, faulty, linear_flow):
        deployment = deploy_linear(faulty, linear_flow)
        faulty.fail_instances(deployment, "filter", 1)
        faulty.stop(deployment)
        assert deployment.job_id not in faulty._lost


class TestTunerRecoversFromFault:
    def test_streamtune_clears_fault_induced_backpressure(
        self, tiny_pretrained, linear_flow
    ):
        """Closed loop: fault -> backpressure -> re-tune -> clear.

        The restart performed by the first reconfiguration reschedules the
        failed instances, so recovery needs no fault-specific logic in the
        tuner — exactly how DS2-style controllers ride out TaskManager
        loss in practice.
        """
        from repro.core import StreamTuneTuner
        from repro.workloads import nexmark_query

        engine = FaultInjectingFlink(seed=23)
        query = nexmark_query("q2", "flink")
        tuner = StreamTuneTuner(engine, tiny_pretrained, seed=31)
        tuner.prepare(query)
        deployment = engine.deploy(
            query.flow,
            dict.fromkeys(query.flow.operator_names, 1),
            query.rates_at(2),
        )
        tuner.tune(deployment, query.rates_at(6))
        assert not engine.measure(deployment).has_backpressure

        # Fail instances of the busiest non-source operator, if it has
        # enough; otherwise the fault is unrepresentable at this scale.
        victim = max(
            (name for name in query.flow.operator_names
             if not query.flow.operator(name).is_source),
            key=lambda name: deployment.parallelisms[name],
        )
        if deployment.parallelisms[victim] < 2:
            pytest.skip("deployment too small to lose an instance")
        engine.fail_instances(deployment, victim, deployment.parallelisms[victim] - 1)
        result = tuner.tune(deployment, query.rates_at(6))
        assert result.steps
        assert not engine.measure(deployment).has_backpressure
        engine.stop(deployment)
