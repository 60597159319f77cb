"""The tuning-process loop every method shares, and its result records.

A *tuning process* (paper terminology) is one invocation of
:meth:`ParallelismTuner.tune` in response to a source-rate change; it may
perform several *reconfigurations* (redeployments through
``engine.reconfigure``; the engine picks their wait).  The
records here carry everything the experiment harness aggregates: per-step
parallelism maps, recommendation wall time, backpressure observations after
each reconfiguration, and simulated stabilisation time.

:meth:`ParallelismTuner.tune` is the one loop (Algorithm 2's, and DS2's
and ContTune's measure-and-rescale):

1. set the target source rates; a ``measure_first`` method (DS2,
   ContTune) measures the job once before deciding anything;
2. ``begin(process)`` — per-process setup;
3. up to ``max_rounds`` rounds of: a timed decision — ``decide(process)``,
   then the process's ``floors``, then the ``stabilize`` deadband — then
   ``escalate(process, recommendation)`` when the decision repeats the
   previous round's; redeploy when the map changed; measure;
   ``learn(process)`` from that measurement; record one
   :class:`TuningStep`;
4. stop, converged, at a round that leaves no backpressure and either
   changed nothing, repeated the previous recommendation, or was the only
   round of a one-round method (Oracle, ZeroTune).

A method is a policy: ``decide`` is required, the other hooks default to
doing nothing.  Everything a hook keeps for one process lives on the
:class:`TuningProcess`, which is local to the ``tune`` call; what a
method keeps across processes (StreamTune's warm-up set, feedback and
SVM warm start, ContTune's GP history) belongs to the one campaign its
tuner serves.
``recommendation_seconds`` times the decision and its floors and
deadband, never a ``measure()``: ``escalate`` runs outside the clock
because StreamTune's measures the job again.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

from repro.engines.base import Deployment, EngineCluster
from repro.engines.metrics import JobTelemetry
from repro.utils.timer import Timer
from repro.workloads.query import StreamingQuery


@dataclass(frozen=True)
class TuningStep:
    """One iteration of a tuning process.

    ``recommendation_seconds`` measures the host, not the decision, so it
    is no part of the step's identity: two steps that decided alike are
    equal whatever their timings.  It is still recorded (``asdict``, a
    ledger's result payload) and replayed byte for byte.
    """

    parallelisms: dict[str, int]
    reconfigured: bool                 # did this step redeploy the job
    backpressure_after: bool           # observed after (re)deployment
    recommendation_seconds: float = field(compare=False)   # wall time spent deciding
    mean_cpu_utilisation: float        # capacity-weighted busy share

    @property
    def total_parallelism(self) -> int:
        return sum(self.parallelisms.values())


@dataclass
class TuningResult:
    """Outcome of one tuning process (one source-rate change)."""

    query_name: str
    tuner_name: str
    steps: list[TuningStep] = field(default_factory=list)
    converged: bool = False

    @property
    def n_reconfigurations(self) -> int:
        return sum(1 for step in self.steps if step.reconfigured)

    @property
    def n_backpressure_events(self) -> int:
        """Backpressure observed after one of *this tuner's* redeployments."""
        return sum(
            1 for step in self.steps if step.reconfigured and step.backpressure_after
        )

    @property
    def final_parallelisms(self) -> dict[str, int]:
        if not self.steps:
            raise ValueError("tuning result has no steps")
        return dict(self.steps[-1].parallelisms)

    @property
    def final_total_parallelism(self) -> int:
        return self.steps[-1].total_parallelism

    @property
    def recommendation_seconds(self) -> float:
        return sum(step.recommendation_seconds for step in self.steps)

    def tuning_minutes(self, stabilization_minutes: float) -> float:
        """Paper Fig. 7b accounting: inference time + stabilisation waits."""
        return (
            self.recommendation_seconds / 60.0
            + self.n_reconfigurations * stabilization_minutes
        )

    def cpu_trace(self) -> list[float]:
        return [step.mean_cpu_utilisation for step in self.steps]


@dataclass
class TuningProcess:
    """One tuning process as its policy's hooks see it (local to one
    :meth:`ParallelismTuner.tune` call)."""

    deployment: Deployment
    target_rates: dict[str, float]
    #: The latest measurement: the measure-first one, then each round's;
    #: ``None`` before the first.
    telemetry: JobTelemetry | None
    #: Per-operator lower bounds ``learn`` raised; every later decision
    #: is lifted to them.
    floors: dict[str, int]
    #: Whatever else the policy keeps for this process.
    state: object


class ParallelismTuner(abc.ABC):
    """Base class of all tuning methods: the loop plus a policy's hooks."""

    #: Display name used in experiment tables.
    name: str = "abstract"

    #: Recommend/redeploy rounds per tuning process.
    max_rounds: int = 1

    #: Measure the job once before the first decision.
    measure_first: bool = False

    #: Without backpressure, a change within ``max(1, fraction * p)`` of
    #: an operator's current degree ``p`` is not applied (:meth:`stabilize`).
    deadband_fraction: float = 0.08

    def __init__(self, engine: EngineCluster) -> None:
        self.engine = engine

    def prepare(self, query: StreamingQuery) -> None:
        """One-time per-query setup (model retrieval, history reset, ...)."""

    def tune(self, deployment: Deployment, target_rates: dict[str, float]) -> TuningResult:
        """Adapt ``deployment`` to ``target_rates``; returns the process log."""
        self.engine.set_source_rates(deployment, target_rates)
        process = TuningProcess(
            deployment=deployment,
            target_rates=target_rates,
            telemetry=self.engine.measure(deployment) if self.measure_first else None,
            floors={},
            state=None,
        )
        self.begin(process)
        result = TuningResult(query_name=deployment.flow.name, tuner_name=self.name)
        previous: dict[str, int] | None = None
        for _ in range(self.max_rounds):
            with Timer() as timer:
                recommendation = self.decide(process)
                for name, floor in process.floors.items():
                    recommendation[name] = max(recommendation[name], floor)
                recommendation = self.stabilize(
                    recommendation,
                    deployment.parallelisms,
                    process.telemetry is None or process.telemetry.has_backpressure,
                )
            if recommendation == previous:
                recommendation = self.escalate(process, recommendation)
            changed = recommendation != deployment.parallelisms
            if changed:
                self.engine.reconfigure(deployment, recommendation)
            telemetry = process.telemetry = self.engine.measure(deployment)
            self.learn(process)
            result.steps.append(
                TuningStep(
                    parallelisms=dict(deployment.parallelisms),
                    reconfigured=changed,
                    backpressure_after=telemetry.has_backpressure,
                    recommendation_seconds=timer.elapsed,
                    mean_cpu_utilisation=self.observe_cpu(telemetry),
                )
            )
            if not telemetry.has_backpressure and (
                not changed or recommendation == previous or self.max_rounds == 1
            ):
                result.converged = True
                break
            previous = recommendation
        return result

    # ------------------------------------------------------------------
    # the policy's hooks
    # ------------------------------------------------------------------

    def begin(self, process: TuningProcess) -> None:
        """Per-process setup, after the measure-first measurement."""

    @abc.abstractmethod
    def decide(self, process: TuningProcess) -> dict[str, int]:
        """The round's raw recommendation (a fresh map the loop may edit)."""

    def escalate(
        self, process: TuningProcess, recommendation: dict[str, int]
    ) -> dict[str, int]:
        """Replace a recommendation that repeats the previous round's."""
        return recommendation

    def learn(self, process: TuningProcess) -> None:
        """Take feedback from the round's measurement (``process.telemetry``)."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    def observe_cpu(self, telemetry) -> float:
        """Capacity-weighted mean busy share across operators (Fig. 10)."""
        total_cores = 0
        busy_cores = 0.0
        for metrics in telemetry.operators.values():
            total_cores += metrics.parallelism
            busy_cores += metrics.parallelism * metrics.busy_ms_per_second / 1000.0
        if total_cores == 0:
            return 0.0
        return busy_cores / total_cores

    def clamp(self, parallelism: float) -> int:
        """Round a raw recommendation into the engine's valid range."""
        return int(min(self.engine.max_parallelism, max(1, math.ceil(parallelism))))

    def stabilize(
        self,
        recommendation: dict[str, int],
        current: dict[str, int],
        has_backpressure: bool,
    ) -> dict[str, int]:
        """Suppress noise-driven churn in rate-based recommendations.

        Measurement noise perturbs useful-time estimates by a few percent,
        which flips ``ceil`` recommendations by +-1 forever.  Real
        deployments of DS2-style controllers damp this with a significance
        test: without backpressure, a change within
        ``max(1, deadband_fraction * p)`` of the current degree is not
        worth a restart.  Under backpressure — and before the process has
        measured anything — every change is applied.
        """
        stable: dict[str, int] = {}
        for name, proposed in recommendation.items():
            existing = current[name]
            if has_backpressure:
                stable[name] = proposed
                continue
            deadband = max(1, int(round(self.deadband_fraction * existing)))
            if abs(proposed - existing) <= deadband:
                stable[name] = existing
            else:
                stable[name] = proposed
        return stable
