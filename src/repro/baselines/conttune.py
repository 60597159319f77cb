"""ContTune (Lian et al., VLDB'23) — conservative Bayesian optimisation.

ContTune tunes each operator independently using *the target job's own
tuning history*: a Gaussian-process surrogate over (parallelism ->
per-instance processing rate), acted on through the **Big-Small**
algorithm:

* **Big** — when the operator cannot sustain its demand and the surrogate
  has no trustworthy posterior yet, jump to a generously padded linear
  estimate (get out of backpressure fast);
* **Small** — otherwise pick the *smallest* degree whose conservative
  aggregate-capacity score ``p * (mu(p) - alpha * sigma(p))`` covers the
  demand (shrink carefully; §V-A fixes alpha = 3).

The per-job history persists across rate changes, which is why ContTune
needs fewer reconfigurations than DS2 once a query has been tuned a few
times — and also why it struggles on structurally complex queries, where
single-operator GPs ignore inter-operator effects (paper §V-D).
"""

from __future__ import annotations

import numpy as np

from repro.baselines._demand import propagate_target_demand
from repro.baselines.api import ParallelismTuner, TuningProcess
from repro.core.labeling import label_operators
from repro.engines.base import Deployment, EngineCluster
from repro.engines.metrics import JobTelemetry
from repro.models.gp import GaussianProcess1D

#: Safety padding of the Big jump over the plain linear estimate.
BIG_STEP_PADDING = 1.25

#: Conservatism of the Small score ``mu - ALPHA * sigma`` (§V-A: 3).
ALPHA = 3.0

#: Observations an operator's GP needs before its posterior is trusted.
MIN_OBSERVATIONS = 2


class ContTuneTuner(ParallelismTuner):
    """Per-operator GP surrogate + Big-Small tuning."""

    name = "ContTune"
    max_rounds = 6
    measure_first = True

    def __init__(self, engine: EngineCluster) -> None:
        super().__init__(engine)
        # (job name, operator name) -> list of (parallelism, per-instance rate)
        self._history: dict[tuple[str, str], list[tuple[int, float]]] = {}

    def prepare(self, query) -> None:
        """ContTune starts every *job* from scratch (local history only)."""
        stale = [key for key in self._history if key[0] == query.flow.name]
        for key in stale:
            del self._history[key]

    def begin(self, process: TuningProcess) -> None:
        self._record_observations(process.deployment, process.telemetry)

    def learn(self, process: TuningProcess) -> None:
        deployment, telemetry = process.deployment, process.telemetry
        self._record_observations(deployment, telemetry)
        if not telemetry.has_backpressure:
            return
        # Conservative memory for this tuning process: once a degree has
        # demonstrably backpressured under the *current* demand, never
        # recommend that operator at or below it again (the Big-Small
        # algorithm shrinks carefully, it does not re-test failures).
        labels = label_operators(deployment.flow, telemetry, self.engine.name)
        for name, label in labels.items():
            if label == 1:
                current = deployment.parallelisms[name]
                process.floors[name] = max(
                    process.floors.get(name, 1),
                    min(current + 1, self.engine.max_parallelism),
                )

    # ------------------------------------------------------------------
    # surrogate bookkeeping
    # ------------------------------------------------------------------

    def _record_observations(self, deployment: Deployment, telemetry: JobTelemetry) -> None:
        job = deployment.flow.name
        for name, metrics in telemetry.operators.items():
            if metrics.true_processing_rate <= 0:
                continue
            rate_per_instance = metrics.true_processing_rate / metrics.parallelism
            self._history.setdefault((job, name), []).append(
                (metrics.parallelism, rate_per_instance)
            )

    # ------------------------------------------------------------------
    # Big-Small recommendation
    # ------------------------------------------------------------------

    def decide(self, process: TuningProcess) -> dict[str, int]:
        deployment, telemetry = process.deployment, process.telemetry
        job = deployment.flow.name
        demand = propagate_target_demand(deployment, telemetry, process.target_rates)
        recommendation: dict[str, int] = {}
        for name in deployment.flow.topological_order():
            current_p = deployment.parallelisms[name]
            observations = self._history.get((job, name), [])
            recommendation[name] = self._tune_operator(
                demand[name], current_p, observations, telemetry[name]
            )
        return recommendation

    def _tune_operator(
        self,
        demand: float,
        current_p: int,
        observations: list[tuple[int, float]],
        metrics,
    ) -> int:
        if demand <= 0:
            return 1
        if len(observations) < MIN_OBSERVATIONS:
            return self._big_step(demand, current_p, metrics)

        ps = np.array([p for p, _ in observations], dtype=float)
        rates = np.array([r for _, r in observations], dtype=float)
        surrogate = GaussianProcess1D(length_scale=max(4.0, float(np.ptp(ps)) + 1.0)).fit(ps, rates)
        candidates = np.arange(1, self.engine.max_parallelism + 1, dtype=float)
        conservative_rate = surrogate.lower_confidence_bound(candidates, ALPHA)
        aggregate = candidates * np.maximum(conservative_rate, 0.0)
        feasible = np.nonzero(aggregate >= demand)[0]
        if len(feasible) == 0:
            return self._big_step(demand, current_p, metrics)
        return int(candidates[feasible[0]])

    def _big_step(self, demand: float, current_p: int, metrics) -> int:
        """Generously padded linear estimate (the Big move)."""
        if metrics.true_processing_rate > 0:
            rate_per_instance = metrics.true_processing_rate / max(1, metrics.parallelism)
            return self.clamp(BIG_STEP_PADDING * demand / rate_per_instance)
        return self.clamp(current_p * 2)
