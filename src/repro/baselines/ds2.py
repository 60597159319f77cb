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
from repro.baselines.api import ParallelismTuner, TuningProcess


class DS2Tuner(ParallelismTuner):
    """Measure -> estimate true rates -> rescale linearly -> repeat."""

    name = "DS2"
    max_rounds = 6
    measure_first = True
    # The controller applies its recommendation as computed; useful-time
    # noise keeps perturbing the estimate between measurements, which is
    # why DS2 averages several reconfigurations per rate change in the
    # paper (Fig. 7a).  The only damping is DS2's own convergence check: a
    # change within measurement accuracy (+-1 instance) of the current
    # degree is considered converged, not re-deployed.
    deadband_fraction = 0.0

    def decide(self, process: TuningProcess) -> dict[str, int]:
        deployment, telemetry = process.deployment, process.telemetry
        flow = deployment.flow
        demand = propagate_target_demand(deployment, telemetry, process.target_rates)
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
