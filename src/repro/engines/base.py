"""Engine cluster abstraction shared by the Flink and Timely adapters.

A cluster deploys a logical dataflow with per-operator parallelism, serves
measurements through the noisy observation channel, and reconfigures by
stop-and-restart (the paper's §V-A "Reconfiguration Mechanism", following
DS2) or, on an engine that supports it, live (§VII).  Reconfiguration
accounting — counts and simulated stabilisation minutes — feeds the Fig. 7
experiments directly.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.dataflow.graph import LogicalDataflow
from repro.engines.flow import FlowResult, solve_flow
from repro.engines import metrics
from repro.engines.metrics import JobTelemetry, MetricsChannel
from repro.engines.perf import PerformanceModel
from repro.utils.rng import seeded_rng

#: Paper §V-A: "a 10-minute wait is enforced between reconfigurations".
STABILIZATION_MINUTES = 10.0

#: Settling time of a live (restart-free) reconfiguration, §VII.
LIVE_SETTLING_MINUTES = 1.0


class EngineError(RuntimeError):
    """Raised on invalid engine operations (capacity, unknown jobs, ...)."""


@dataclass
class Deployment:
    """A running streaming job on a cluster."""

    job_id: int
    flow: LogicalDataflow
    parallelisms: dict[str, int]
    source_rates: dict[str, float]
    n_reconfigurations: int = field(default=0, init=False)
    sim_minutes: float = field(default=0.0, init=False)
    running: bool = True


class EngineCluster(abc.ABC):
    """Base class for simulated stream-processing clusters.

    Subclasses define the engine's speed, its busy-time measurement
    behaviour, and its operator-level backpressure rule.
    """

    #: §VII "Live Reconfiguration": the engine picks the wait of every
    #: :meth:`reconfigure`.  One that supports runtime parallelism changes
    #: (operator-level RESTful APIs, as deployed at ByteDance) settles in
    #: ``LIVE_SETTLING_MINUTES`` instead of the stop-and-restart
    #: ``STABILIZATION_MINUTES``.  Disabled by default — the paper's
    #: evaluation uses stop-and-restart throughout.
    supports_live_reconfigure: bool = False

    #: Human-readable engine name.
    name: str = "abstract"

    def __init__(
        self,
        max_parallelism: int,
        speed_factor: float = 1.0,
        type_speed_factors: dict | None = None,
        seed: int | None = None,
    ) -> None:
        if max_parallelism < 1:
            raise EngineError("max_parallelism must be >= 1")
        self.max_parallelism = max_parallelism
        self.perf = PerformanceModel(
            speed_factor=speed_factor, type_speed_factors=type_speed_factors
        )
        self._channel = MetricsChannel(seeded_rng(seed), noise_std=metrics.DEFAULT_NOISE_STD)
        self._job_ids = itertools.count(1)
        self._deployments: dict[int, Deployment] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def deploy(
        self,
        flow: LogicalDataflow,
        parallelisms: dict[str, int],
        source_rates: dict[str, float],
    ) -> Deployment:
        """Start a job; validates the DAG and the parallelism map."""
        flow.validate()
        self._check_parallelisms(flow, parallelisms)
        deployment = Deployment(
            job_id=next(self._job_ids),
            flow=flow,
            parallelisms=dict(parallelisms),
            source_rates=dict(source_rates),
        )
        self._deployments[deployment.job_id] = deployment
        return deployment

    def reconfigure(self, deployment: Deployment, parallelisms: dict[str, int]) -> None:
        """Redeploy the job with new parallelism degrees.

        The engine picks the wait: a live rescale settles in
        ``LIVE_SETTLING_MINUTES`` when ``supports_live_reconfigure`` is set,
        a stop-and-restart waits ``STABILIZATION_MINUTES`` otherwise.
        Counts one reconfiguration and advances simulated time by that
        wait, even when the map is unchanged (the engine cannot know a
        change was a no-op in advance).
        """
        self._require_running(deployment)
        self._check_parallelisms(deployment.flow, parallelisms)
        deployment.parallelisms = dict(parallelisms)
        deployment.n_reconfigurations += 1
        deployment.sim_minutes += (
            LIVE_SETTLING_MINUTES if self.supports_live_reconfigure else STABILIZATION_MINUTES
        )

    def set_source_rates(self, deployment: Deployment, source_rates: dict[str, float]) -> None:
        """Apply an external source-rate change (does not count as reconfig)."""
        self._require_running(deployment)
        unknown = set(source_rates) - set(deployment.flow.sources())
        if unknown:
            raise EngineError(f"rates for non-source operators: {sorted(unknown)}")
        deployment.source_rates = dict(source_rates)

    def stop(self, deployment: Deployment) -> None:
        self._require_running(deployment)
        deployment.running = False
        del self._deployments[deployment.job_id]

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------

    def perf_for(self, deployment: Deployment) -> PerformanceModel:
        """Performance model in effect for ``deployment``.

        The default is the cluster-wide model; the fault-injecting
        engine overrides this to degrade lost instances
        (see :mod:`repro.engines.faults`).
        """
        del deployment
        return self.perf

    def measure(self, deployment: Deployment) -> JobTelemetry:
        """Observe the job: ground-truth solve + noisy metric channel."""
        self._require_running(deployment)
        truth = solve_flow(
            deployment.flow,
            deployment.parallelisms,
            deployment.source_rates,
            self.perf_for(deployment),
        )
        inflation = {
            spec.name: self.busy_inflation(spec)
            for spec in deployment.flow
        }
        caps = {
            spec.name: self.busy_cap(spec, deployment.parallelisms[spec.name])
            for spec in deployment.flow
        }
        observed = self._channel.observe(
            deployment.flow,
            truth,
            inflation,
            self.operator_backpressure_rule,
            busy_cap=caps,
        )
        has_bp = self.job_backpressure_rule(deployment.flow, truth, observed)
        return JobTelemetry(
            job_name=deployment.flow.name,
            operators=observed,
            has_backpressure=has_bp,
            source_rates=dict(deployment.source_rates),
            job_latency_seconds=self._job_latency(truth, observed),
            truth=truth,
        )

    def _job_latency(self, truth: FlowResult, observed: dict) -> float:
        """End-to-end record latency estimate (ZeroTune's training target).

        Queueing-dominated: latency explodes as the hottest operator
        approaches saturation and is pinned at a large cap under true
        backpressure.  A mild coordination term grows with total task count
        (more shuffles and channel fan-out), so the latency-vs-parallelism
        curve has a genuine knee rather than a flat tail — over-provisioned
        deployments are slightly *slower*, as measured on real engines.
        Observed through the noise channel like every metric.
        """
        if truth.has_backpressure:
            return self._channel.noisy(60.0)
        max_busy = max(
            (m.busy_ms_per_second / 1000.0 for m in observed.values()), default=0.0
        )
        max_busy = min(max_busy, 0.99)
        total_tasks = sum(m.parallelism for m in observed.values())
        base = 0.05 + 0.1 * max_busy / (1.02 - max_busy) + 0.002 * total_tasks
        return self._channel.noisy(base)

    def ground_truth(self, deployment: Deployment) -> FlowResult:
        """Noise-free steady state — for tests and oracle baselines only."""
        return solve_flow(
            deployment.flow,
            deployment.parallelisms,
            deployment.source_rates,
            self.perf_for(deployment),
        )

    # ------------------------------------------------------------------
    # engine-specific behaviour
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def busy_inflation(self, spec) -> float:
        """Busy-time inflation factor for an operator (1.0 = honest)."""

    def busy_cap(self, spec, parallelism: int) -> float:
        """Upper bound on the reported busy share (wall-clock seconds/s).

        Default: per-instance metrics clip at one wall-clock second.
        Engines whose useful-time aggregates across threads override this.
        """
        del spec, parallelism
        return 1.0

    @abc.abstractmethod
    def operator_backpressure_rule(self, flow, name, draft, truth) -> bool:
        """Engine's operator-level backpressure flag (paper §V-B)."""

    def job_backpressure_rule(self, flow, truth, observed) -> bool:
        """Job-level backpressure: any operator flagged, or truth saturated.

        Both engines surface dataflow-level backpressure reliably (Flink via
        its web UI aggregation, Timely via stalled epoch frontiers), so the
        job-level flag follows ground truth saturation.
        """
        del flow, observed
        return truth.has_backpressure

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _check_parallelisms(self, flow: LogicalDataflow, parallelisms: dict[str, int]) -> None:
        for name in flow.operator_names:
            if name not in parallelisms:
                raise EngineError(f"no parallelism given for operator {name!r}")
            p = parallelisms[name]
            if not isinstance(p, (int, np.integer)) or isinstance(p, bool):
                raise EngineError(f"{name}: parallelism must be an int, got {p!r}")
            if not 1 <= p <= self.max_parallelism:
                raise EngineError(
                    f"{name}: parallelism {p} outside [1, {self.max_parallelism}]"
                )

    @staticmethod
    def _require_running(deployment: Deployment) -> None:
        if not deployment.running:
            raise EngineError(f"job {deployment.job_id} is not running")
