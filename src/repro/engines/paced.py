"""A Flink variant whose telemetry takes wall-clock time.

Real clusters do not answer a metrics query instantly: Flink aggregates
``busyTimeMsPerSecond`` and friends over a sustained observation window
(§V-B measures over minutes), so every measurement round a tuner makes
costs latency during which the tuning host is *idle*, not busy.  The
simulated engines collapse that window to zero, which makes campaign
fleets purely CPU-bound — fine for single-host benchmarks, but it hides
exactly the overlap a distributed fleet exploits: while one worker
waits on a cluster's metrics, another worker's campaign can run.

:class:`PacedFlink` restores that cost: :meth:`measure` sleeps
``TELEMETRY_SECONDS`` before observing.  The sleep never touches the
engine's RNG, so results are **bit-identical** to the plain ``flink``
engine under the same seed — only the wall-clock changes.  The
``distributed_fleet_*`` perf benchmarks run on this engine so 1→N
worker scaling measures genuine latency overlap instead of contending
for one host's cores.
"""

from __future__ import annotations

import time

from repro.engines.base import Deployment, JobTelemetry
from repro.engines.flink import FlinkCluster

__all__ = ["PacedFlink", "TELEMETRY_SECONDS"]

#: Simulated metric-window latency per measurement round.  Small
#: enough that smoke fleets stay fast, large enough to dominate a warm
#: campaign's ~1ms of compute (so waits, not cores, bound throughput).
TELEMETRY_SECONDS = 0.02


class PacedFlink(FlinkCluster):
    """Flink with a wall-clock pause per telemetry observation."""

    name = "flink-paced"

    def measure(self, deployment: Deployment) -> JobTelemetry:
        """Wait out the metric window, then observe exactly like Flink."""
        time.sleep(TELEMETRY_SECONDS)
        return super().measure(deployment)
