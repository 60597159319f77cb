"""Oracle tuner: reads the simulator's ground truth.

Not a paper baseline — a testing instrument.  It computes the provably
minimal backpressure-free parallelism from the hidden performance model in
one shot, giving tests and experiments a reference point: no real tuner
should beat it, and a good tuner should approach it.
"""

from __future__ import annotations

from repro.baselines.api import ParallelismTuner, TuningProcess
from repro.engines.base import Deployment
from repro.engines.flow import solve_flow


class OracleTuner(ParallelismTuner):
    """One-shot optimal recommendation from ground truth."""

    name = "Oracle"

    def decide(self, process: TuningProcess) -> dict[str, int]:
        return self.optimal_parallelisms(process.deployment, process.target_rates)

    def optimal_parallelisms(
        self, deployment: Deployment, target_rates: dict[str, float]
    ) -> dict[str, int]:
        """Minimum per-operator degrees sustaining ``target_rates``."""
        flow = deployment.flow
        perf = self.engine.perf
        # True demand: solve at maximal parallelism (no saturation anywhere).
        generous = dict.fromkeys(flow.operator_names, self.engine.max_parallelism)
        truth = solve_flow(flow, generous, target_rates, perf)
        recommendation = {}
        for name in flow.operator_names:
            spec = flow.operator(name)
            demand = truth[name].demand_in
            recommendation[name] = perf.min_parallelism_for(
                spec, demand, self.engine.max_parallelism
            )
        return recommendation
