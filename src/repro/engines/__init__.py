"""Stream-processing engine substrate (simulated Flink and Timely).

The paper evaluates StreamTune on Apache Flink 1.16 and Timely Dataflow
v0.10.  Neither engine is available in this offline environment, so this
subpackage provides a faithful *steady-state flow simulator* exposing the
exact observable surface the tuners consume:

* per-operator rates and busy/idle/backPressured time metrics (Flink),
* ``MessagesEvent``-style log records and per-epoch latencies (Timely),
* job-level backpressure flags,
* stop-and-restart reconfiguration with stabilisation accounting.

Ground truth (processing abilities, selectivities) lives in
:mod:`repro.engines.perf` and :mod:`repro.engines.flow`; tuners only ever
see the noisy observation channel in :mod:`repro.engines.metrics`.
"""

from repro.engines.perf import PerformanceModel
from repro.engines.flow import FlowResult, OperatorFlow, solve_flow
from repro.engines.metrics import JobTelemetry, ObservedOperatorMetrics
from repro.engines.base import Deployment, EngineCluster
from repro.engines.flink import FlinkCluster
from repro.engines.timely import MessagesEvent, TimelyCluster
from repro.engines.faults import FaultInjectingFlink

__all__ = [
    "Deployment",
    "EngineCluster",
    "FaultInjectingFlink",
    "FlinkCluster",
    "FlowResult",
    "JobTelemetry",
    "MessagesEvent",
    "ObservedOperatorMetrics",
    "OperatorFlow",
    "PerformanceModel",
    "TimelyCluster",
    "solve_flow",
]
