"""DS2 (Kalavri et al., OSDI'18) — the linear scaling baseline (§V-A).

DS2 instruments each operator's *useful time* and computes its "true
processing rate": the rate the operator would sustain if it were busy 100%
of the time.  Assuming processing ability scales linearly with parallelism,
the optimal degree for a target workload is

    p_o = ceil( target demand at o  /  true rate per instance at o ),

where the demand propagates target source rates through the observed
selectivities.  We use the original DS2 policy faithfully; its two known
failure modes — both discussed in the paper — emerge from the observation
channel, not from this code:

* useful time is noisy, so the rate estimate over/under-shoots (§V-E:
  overestimates yield under-provisioning and backpressure);
* true scaling is mildly sub-linear, so scale-ups repeatedly fall a bit
  short and DS2 takes several reconfigurations to converge (§V-D).
"""

from __future__ import annotations

from repro.baselines._demand import propagate_target_demand
from repro.baselines.api import ParallelismTuner, TuningResult, TuningStep
from repro.engines.base import Deployment
from repro.engines.metrics import JobTelemetry
from repro.utils.timer import Timer

#: Measure-and-rescale rounds per tuning process.
MAX_ITERATIONS = 6


class DS2Tuner(ParallelismTuner):
    """Measure -> estimate true rates -> rescale linearly -> repeat."""

    name = "DS2"

    def tune(self, deployment: Deployment, target_rates: dict[str, float]) -> TuningResult:
        self.engine.set_source_rates(deployment, target_rates)
        result = TuningResult(query_name=deployment.flow.name, tuner_name=self.name)

        telemetry = self.engine.measure(deployment)
        for _ in range(MAX_ITERATIONS):
            with Timer() as timer:
                # The controller applies its recommendation as computed;
                # useful-time noise keeps perturbing the estimate between
                # measurements, which is why DS2 averages several
                # reconfigurations per rate change in the paper (Fig. 7a).
                # The only damping is DS2's own convergence check: a change
                # within measurement accuracy (+-1 instance) of the current
                # degree is considered converged, not re-deployed.
                recommendation = self._recommend(deployment, telemetry, target_rates)
                recommendation = self.stabilize(
                    recommendation,
                    deployment.parallelisms,
                    telemetry.has_backpressure,
                    deadband_fraction=0.0,
                )
            changed = self.apply(deployment, recommendation)
            telemetry = self.engine.measure(deployment)
            result.steps.append(
                TuningStep(
                    parallelisms=dict(deployment.parallelisms),
                    reconfigured=changed,
                    backpressure_after=telemetry.has_backpressure,
                    recommendation_seconds=timer.elapsed,
                    mean_cpu_utilisation=self.observe_cpu(telemetry),
                )
            )
            if not changed and not telemetry.has_backpressure:
                result.converged = True
                break
        return result

    # ------------------------------------------------------------------
    # the DS2 policy
    # ------------------------------------------------------------------

    def _recommend(
        self,
        deployment: Deployment,
        telemetry: JobTelemetry,
        target_rates: dict[str, float],
    ) -> dict[str, int]:
        flow = deployment.flow
        demand = propagate_target_demand(deployment, telemetry, target_rates)
        recommendation: dict[str, int] = {}
        for name in flow.topological_order():
            metrics = telemetry[name]
            current_p = deployment.parallelisms[name]
            true_rate = metrics.true_processing_rate     # aggregate records/s
            if true_rate <= 0:
                # Operator processed nothing in the window; keep its degree.
                recommendation[name] = current_p
                continue
            rate_per_instance = true_rate / current_p
            recommendation[name] = self.clamp(demand[name] / rate_per_instance)
        return recommendation
