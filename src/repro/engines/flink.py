"""Apache Flink cluster adapter (paper §V-A/§V-B, Flink 1.16).

The paper's Flink setup: 50 TaskManagers with 2 slots each, so the maximum
parallelism per operator is 100.  Flink's metric system reports three time
metrics per operator — ``backPressuredTimeMsPerSecond``,
``idleTimeMsPerSecond``, ``busyTimeMsPerSecond`` — and "a Flink operator is
considered a bottleneck if its backPressuredTimeMsPerSecond exceeds 10% of
the cumulative sum of these metrics over a sustained interval" (§V-B).

Flink measures busy time honestly (no spinning workers), so the only
observation error is the channel's multiplicative noise.
"""

from __future__ import annotations

from repro.dataflow.graph import LogicalDataflow
from repro.dataflow.operators import OperatorSpec
from repro.engines.base import EngineCluster
from repro.engines.flow import FlowResult
from repro.engines.metrics import ObservedOperatorMetrics

#: §V-B: backpressured time above 10% of the metric sum flags the operator.
BACKPRESSURE_TIME_SHARE = 0.10

#: §V-A: 50 TaskManagers with 2 slots each.
TASK_MANAGERS = 50
SLOTS_PER_TASK_MANAGER = 2


class FlinkCluster(EngineCluster):
    """Simulated Flink deployment (``TASK_MANAGERS`` x ``SLOTS_PER_TASK_MANAGER``)."""

    name = "flink"

    def __init__(self, seed: int | None = None) -> None:
        super().__init__(
            max_parallelism=TASK_MANAGERS * SLOTS_PER_TASK_MANAGER,
            speed_factor=1.0,
            seed=seed,
        )

    def busy_inflation(self, spec: OperatorSpec) -> float:
        """Flink's busy-time metric is honest (blocking mailbox model)."""
        del spec
        return 1.0

    def operator_backpressure_rule(
        self,
        flow: LogicalDataflow,
        name: str,
        draft: dict[str, ObservedOperatorMetrics],
        truth: FlowResult,
    ) -> bool:
        """The 10%-of-time-metrics rule from §V-B."""
        del flow, truth
        metrics = draft[name]
        total = (
            metrics.busy_ms_per_second
            + metrics.idle_ms_per_second
            + metrics.backpressured_ms_per_second
        )
        if total <= 0:
            return False
        return metrics.backpressured_ms_per_second > BACKPRESSURE_TIME_SHARE * total
