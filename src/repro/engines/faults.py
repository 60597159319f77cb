"""Fault injection: losing operator instances at runtime (chaos tooling).

Real clusters lose TaskManagers and workers; a parallelism map of ``p``
instances can silently be serving with fewer.  This module models exactly
that: a :class:`FaultInjectingFlink` cluster where instances of chosen
operators can be *failed* (and later *healed*) without touching the
deployment's configured parallelism.  Measurements then reflect the
degraded capacity — an operator configured at 8 with 3 failed instances
performs like one at 5 — so the paper's tuners observe the fault the only
way real ones can: through backpressure and utilisation.

Used by the failure-injection tests to show the closed loop recovering:
inject a fault, watch backpressure appear, let StreamTune re-tune, and
confirm the job is clear again.
"""

from __future__ import annotations

from repro.dataflow.operators import OperatorSpec
from repro.engines.base import Deployment, EngineError
from repro.engines.flink import FlinkCluster
from repro.engines.perf import PerformanceModel


class DegradedPerformanceModel:
    """Performance model evaluating operators at reduced instance counts.

    Duck-types :class:`~repro.engines.perf.PerformanceModel`.  For an
    operator with ``lost`` failed instances, the aggregate ability at a
    configured parallelism ``p`` is the base model's ability at
    ``max(1, p - lost)`` — the surviving instances keep their individual
    speed, the capacity just shrinks.
    """

    def __init__(self, base: PerformanceModel, lost_instances: dict[str, int]) -> None:
        for operator_name, lost in lost_instances.items():
            if lost < 0:
                raise ValueError(f"{operator_name}: lost instances must be >= 0")
        self.base = base
        self.lost_instances = dict(lost_instances)

    def _effective(self, spec: OperatorSpec, parallelism: int) -> int:
        return max(1, parallelism - self.lost_instances.get(spec.name, 0))

    def per_instance_rate(self, spec: OperatorSpec) -> float:
        return self.base.per_instance_rate(spec)

    def scaling_alpha(self, spec: OperatorSpec) -> float:
        return self.base.scaling_alpha(spec)

    def processing_ability(self, spec: OperatorSpec, parallelism: int) -> float:
        return self.base.processing_ability(spec, self._effective(spec, parallelism))

    def min_parallelism_for(self, spec: OperatorSpec, demand: float, p_max: int) -> int:
        healthy = self.base.min_parallelism_for(spec, demand, p_max)
        return min(p_max, healthy + self.lost_instances.get(spec.name, 0))


class FaultInjectingFlink(FlinkCluster):
    """A Flink cluster whose operator instances can be failed and healed.

    Faults are tracked per (deployment, operator).  Reconfiguration is a
    stop-and-restart, which reschedules every task — so it clears all
    faults for that deployment, matching how real restarts recover from
    lost TaskManagers.
    """

    name = "flink-faulty"

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._lost: dict[int, dict[str, int]] = {}

    def fail_instances(
        self, deployment: Deployment, operator_name: str, count: int = 1
    ) -> None:
        """Fail ``count`` instances of one operator (capacity shrinks)."""
        self._require_running(deployment)
        if operator_name not in deployment.flow:
            raise EngineError(f"unknown operator {operator_name!r}")
        if count < 1:
            raise EngineError("count must be >= 1")
        lost = self._lost.setdefault(deployment.job_id, {})
        configured = deployment.parallelisms[operator_name]
        already = lost.get(operator_name, 0)
        if already + count >= configured:
            raise EngineError(
                f"{operator_name}: cannot fail {count} of "
                f"{configured - already} surviving instances "
                "(at least one must survive)"
            )
        lost[operator_name] = already + count

    def lost_instances(self, deployment: Deployment) -> dict[str, int]:
        """Currently failed instance counts per operator (copy)."""
        return dict(self._lost.get(deployment.job_id, {}))

    def reconfigure(self, deployment: Deployment, parallelisms: dict[str, int]) -> None:
        super().reconfigure(deployment, parallelisms)
        # Stop-and-restart reschedules all tasks onto healthy slots.
        self._lost.pop(deployment.job_id, None)

    def stop(self, deployment: Deployment) -> None:
        self._lost.pop(deployment.job_id, None)
        super().stop(deployment)

    def perf_for(self, deployment: Deployment) -> PerformanceModel | DegradedPerformanceModel:
        lost = self._lost.get(deployment.job_id)
        if not lost:
            return self.perf
        return DegradedPerformanceModel(self.perf, lost)
