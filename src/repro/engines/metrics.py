"""The observation channel: what tuners actually get to see.

Real engines expose *measured* metrics, not ground truth.  The paper leans
on this gap twice:

* §V-C / §V-E — DS2 and ContTune estimate processing ability from "useful
  time", which "is intricate to measure in real-world dataflow executions";
  overestimates lead to under-provisioning and backpressure (Table III).
* §V-B / §V-F — Timely operators are "non-blocking and continuously
  spinning", so busy-time is systematically over-reported there, which is
  why rate-based tuners over-provision on Timely (Fig. 8a).

This module converts a ground-truth :class:`~repro.engines.flow.FlowResult`
into :class:`ObservedOperatorMetrics` by applying

* multiplicative log-normal measurement noise (seeded, ~6% std), and
* an engine-specific *busy-time inflation* factor (1.0 on Flink; >1 on
  Timely, larger for stateful operators that poll their state caches).

Both Flink's three time metrics (``busyTimeMsPerSecond`` etc.) and the
derived "useful time" view DS2 consumes are exposed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dataflow.graph import LogicalDataflow
from repro.engines.flow import FlowResult

#: Default relative std-dev of multiplicative measurement noise.
DEFAULT_NOISE_STD = 0.06


@dataclass(frozen=True)
class ObservedOperatorMetrics:
    """Per-operator metrics as reported by the engine's metric system."""

    name: str
    parallelism: int
    input_rate: float             # observed records/s consumed
    output_rate: float            # observed records/s emitted
    busy_ms_per_second: float     # Flink busyTimeMsPerSecond (possibly inflated)
    idle_ms_per_second: float     # Flink idleTimeMsPerSecond
    backpressured_ms_per_second: float  # Flink backPressuredTimeMsPerSecond
    is_backpressured: bool        # engine's backpressure rule for this operator

    @property
    def cpu_load(self) -> float:
        """Observed CPU load in [0, 1] (Algorithm 1's resource metric R)."""
        return min(1.0, self.busy_ms_per_second / 1000.0)

    @property
    def useful_time_fraction(self) -> float:
        """DS2's 'useful time' per wall-clock second.

        Deliberately *unclipped*: engines whose useful time aggregates
        across worker threads (Timely) report more than one busy second per
        wall second, and DS2's rate estimator divides by exactly this
        number — that division is where spin inflation turns into
        over-provisioning (Fig. 8a).
        """
        return self.busy_ms_per_second / 1000.0

    @property
    def true_processing_rate(self) -> float:
        """DS2's estimator: records/s the operator *would* sustain at 100%.

        observed rate / useful-time share; aggregate over all instances.
        When the operator processed nothing the estimate is undefined and
        we return 0 — callers must handle cold operators.
        """
        if self.useful_time_fraction <= 1e-9:
            return 0.0
        return self.input_rate / self.useful_time_fraction


@dataclass
class JobTelemetry:
    """One measurement of a deployed job.

    ``has_backpressure`` is the job-level flag (some operator reported
    backpressure or saturation by the engine's rule).  The ``truth`` field
    holds the generating :class:`FlowResult` for tests and debugging only;
    tuners must never read it (enforced by convention and review, like any
    hidden variable in a simulation study).
    """

    job_name: str
    operators: dict[str, ObservedOperatorMetrics]
    has_backpressure: bool
    source_rates: dict[str, float] = field(default_factory=dict)
    job_latency_seconds: float = 0.0
    truth: FlowResult | None = None

    def __getitem__(self, name: str) -> ObservedOperatorMetrics:
        return self.operators[name]


class MetricsChannel:
    """Stateful noisy observer shared by the engine adapters."""

    def __init__(
        self,
        rng: np.random.Generator,
        noise_std: float = DEFAULT_NOISE_STD,
    ) -> None:
        if noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        self._rng = rng
        self._noise_std = noise_std

    def noisy(self, value: float) -> float:
        """Apply one multiplicative log-normal noise draw."""
        if self._noise_std == 0 or value == 0:
            return value
        factor = float(np.exp(self._rng.normal(0.0, self._noise_std)))
        return value * factor

    def observe(
        self,
        flow: LogicalDataflow,
        result: FlowResult,
        busy_inflation: dict[str, float],
        backpressure_rule,
        busy_cap: dict[str, float] | None = None,
    ) -> dict[str, ObservedOperatorMetrics]:
        """Produce per-operator observations from ground truth.

        ``busy_inflation`` maps operator name to the busy-time inflation
        factor (1.0 = honest measurement).  ``busy_cap`` bounds the reported
        busy share: Flink's per-subtask ``busyTimeMsPerSecond`` clips at one
        wall-clock second (cap 1.0), while Timely's per-*logical*-operator
        useful time aggregates across worker threads and can exceed
        wall-clock (cap = parallelism) — which is precisely why spin
        inflation keeps deflating rate estimates there even near
        saturation.  ``backpressure_rule`` is a callable
        ``(flow, name, metrics_draft, truth) -> bool`` implementing the
        engine's operator-level backpressure detection; it receives the
        draft metrics for *all* operators so rules may compare neighbours
        (Timely's 85% input/output-rate rule compares an operator's observed
        consumption against what its upstreams offer).
        """
        draft: dict[str, ObservedOperatorMetrics] = {}
        for name, op in result.operators.items():
            inflation = busy_inflation.get(name, 1.0)
            cap = busy_cap.get(name, 1.0) if busy_cap is not None else 1.0
            busy = min(cap, op.busy_fraction * inflation * self._lognormal())
            bp = min(max(0.0, 1.0 - busy), op.backpressure_fraction * self._lognormal())
            idle = max(0.0, 1.0 - busy - bp)
            draft[name] = ObservedOperatorMetrics(
                name=name,
                parallelism=op.parallelism,
                input_rate=self.noisy(op.served_in),
                output_rate=self.noisy(op.served_out),
                busy_ms_per_second=1000.0 * busy,
                idle_ms_per_second=1000.0 * idle,
                backpressured_ms_per_second=1000.0 * bp,
                is_backpressured=False,  # filled by the rule below
            )
        observed: dict[str, ObservedOperatorMetrics] = {}
        for name, metrics in draft.items():
            flagged = bool(backpressure_rule(flow, name, draft, result))
            observed[name] = ObservedOperatorMetrics(
                name=metrics.name,
                parallelism=metrics.parallelism,
                input_rate=metrics.input_rate,
                output_rate=metrics.output_rate,
                busy_ms_per_second=metrics.busy_ms_per_second,
                idle_ms_per_second=metrics.idle_ms_per_second,
                backpressured_ms_per_second=metrics.backpressured_ms_per_second,
                is_backpressured=flagged,
            )
        return observed

    def _lognormal(self) -> float:
        if self._noise_std == 0:
            return 1.0
        return float(np.exp(self._rng.normal(0.0, self._noise_std)))
