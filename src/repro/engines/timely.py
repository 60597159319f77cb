"""Timely Dataflow cluster adapter (paper §V-A/§V-B/§V-F, Timely v0.10).

Timely differences the paper leans on:

* **No built-in backpressure.**  §V-B: "we define a Timely operator as a
  bottleneck if its input data rate falls below 85% of the combined output
  rates of all its upstream operators."  We implement exactly that rule,
  comparing the operator's observed consumption against what its upstreams
  *offer* (buffered production keeps the offered rate at the pre-throttle
  demand while the slow consumer drains at capacity).
* **Spinning workers.**  Timely operators are "non-blocking and continuously
  spinning", so busy-time-derived "useful time" is systematically inflated —
  more for stateful operators that poll state caches.  This is the mechanism
  behind Fig. 8a: rate-based tuners (DS2, ContTune) divide observed rates by
  inflated busy time, under-estimate processing ability, and over-provision,
  while StreamTune's bottleneck labels are rate-based and immune.
* **Log-driven metrics.**  §V-B: rates are collected from ``MessagesEvent``
  records of the (modified) Timely log recorder, aggregated per logical
  operator.  :meth:`TimelyCluster.collect_message_events` produces those
  records, and :func:`aggregate_message_rates` performs the aggregation the
  paper describes; ``measure`` uses it under the hood.
* **Per-epoch latency** (Fig. 8b-d): the time to drain one epoch of data
  through the pipeline, dominated by the most-utilised operator with an
  M/M/1-style ``rho / (1 - rho)`` amplification.

The paper's testbed runs Timely on a single 128-core machine with ten
workers; we default ``max_parallelism`` to 16 so over-provisioning tuners
can exceed the ten-worker sweet spot, exactly as Fig. 8a shows DS2 doing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataflow.graph import LogicalDataflow
from repro.dataflow.operators import OperatorSpec, OperatorType
from repro.engines.base import Deployment, EngineCluster
from repro.engines.flow import FlowResult
from repro.engines.metrics import JobTelemetry, ObservedOperatorMetrics
from repro.utils.rng import seeded_rng

#: Worker threads of the cluster, and the largest degree one operator gets.
WORKERS = 10
MAX_PARALLELISM = 16

#: The span one log-recorder interval and one latency epoch cover.
MESSAGE_INTERVAL_SECONDS = 1.0
EPOCH_SECONDS = 1.0

#: Log-normal jitter of an epoch's ingest rate, and the latency that a
#: saturated epoch is capped at (the paper's CDF plots truncate at ~100 s).
RATE_JITTER_STD = 0.15
LATENCY_CAP_SECONDS = 200.0

#: §V-B detection threshold: consuming below 85% of the offered rate.
INPUT_OUTPUT_RATE_THRESHOLD = 0.85

#: Busy-time inflation of spinning workers (stateless / stateful operators).
STATELESS_SPIN_INFLATION = 1.8
STATEFUL_SPIN_INFLATION = 3.5

#: Timely is a native Rust engine running hand-written operators over plain
#: structs — one to two orders of magnitude faster per instance than the
#: JVM dataflow (which is why Table II's Timely rate units are ~10x
#: Flink's while the paper still tunes single-digit worker counts).
TIMELY_SPEED_FACTOR = 110.0

#: Per-type extra multipliers: Timely's windowed operators are batched
#: array scans over plain structs (huge wins vs JVM state backends), its
#: record-at-a-time incremental join gains far less.  Calibrated so the
#: Nexmark Q3/Q5/Q8 optima at 10 x Wu land in Fig. 8a's single-digit band.
TIMELY_TYPE_SPEED_FACTORS = {
    OperatorType.JOIN: 0.35,
    OperatorType.WINDOW_JOIN: 4.0,
    OperatorType.WINDOW_AGGREGATE: 8.0,
    OperatorType.AGGREGATE: 2.0,
}


@dataclass(frozen=True)
class MessagesEvent:
    """One entry of Timely's (modified) log recorder (paper §V-B).

    The paper filters raw Timely logs down to ``MessagesEvent`` records that
    carry runtime data-rate information for physical operators; these are
    periodically aggregated into logical-operator rates.
    """

    worker: int
    operator: str
    records_received: int
    records_sent: int
    interval_seconds: float


def aggregate_message_rates(
    events: list[MessagesEvent],
) -> dict[str, tuple[float, float]]:
    """Aggregate physical ``MessagesEvent`` records into logical rates.

    Returns ``{operator: (input_rate, output_rate)}`` in records/s, summing
    the per-worker counts of each logical operator — the "periodically
    aggregated to compute cumulative data rates" step of §V-B.
    """
    received: dict[str, float] = {}
    sent: dict[str, float] = {}
    seconds: dict[str, float] = {}
    for event in events:
        received[event.operator] = received.get(event.operator, 0.0) + event.records_received
        sent[event.operator] = sent.get(event.operator, 0.0) + event.records_sent
        seconds[event.operator] = max(seconds.get(event.operator, 0.0), event.interval_seconds)
    rates: dict[str, tuple[float, float]] = {}
    for operator, interval in seconds.items():
        if interval <= 0:
            rates[operator] = (0.0, 0.0)
        else:
            rates[operator] = (received[operator] / interval, sent[operator] / interval)
    return rates


class TimelyCluster(EngineCluster):
    """Simulated Timely Dataflow deployment (``WORKERS`` worker threads)."""

    name = "timely"

    def __init__(self, seed: int | None = None) -> None:
        super().__init__(
            max_parallelism=MAX_PARALLELISM,
            speed_factor=TIMELY_SPEED_FACTOR,
            type_speed_factors=TIMELY_TYPE_SPEED_FACTORS,
            seed=seed,
        )
        self._latency_rng = seeded_rng(seed if seed is None else seed + 7)

    # ------------------------------------------------------------------
    # engine-specific observation behaviour
    # ------------------------------------------------------------------

    def busy_inflation(self, spec: OperatorSpec) -> float:
        """Spinning workers over-report busy time, stateful ones more."""
        if spec.is_stateful:
            return STATEFUL_SPIN_INFLATION
        return STATELESS_SPIN_INFLATION

    def busy_cap(self, spec: OperatorSpec, parallelism: int) -> float:
        """Per-logical-operator useful time sums across worker threads.

        Timely multiplexes *every* logical operator across the whole worker
        pool (operator shards are cooperatively scheduled, §V-A: "worker
        threads were evenly distributed across CPU cores"), so the
        aggregated useful time of one logical operator can reach the worker
        count — not just its assigned parallelism.  Spin inflation therefore
        keeps deflating DS2/ContTune's rate estimates even for degree-1
        operators, which is the §V-F over-provisioning mechanism.
        """
        del spec, parallelism
        return float(WORKERS)

    def operator_backpressure_rule(
        self,
        flow: LogicalDataflow,
        name: str,
        draft: dict[str, ObservedOperatorMetrics],
        truth: FlowResult,
    ) -> bool:
        """§V-B rule: input rate below 85% of combined upstream offer.

        The *offered* rate is the upstream demand (what upstreams produce
        into buffers before the slow consumer throttles them), while the
        operator's own consumption is its observed input rate.
        """
        upstream = flow.upstream(name)
        if not upstream:
            return False
        offered = sum(truth[u].demand_out for u in upstream)
        if offered <= 0:
            return False
        return draft[name].input_rate < INPUT_OUTPUT_RATE_THRESHOLD * offered

    def job_backpressure_rule(self, flow, truth, observed) -> bool:
        """Timely has no global backpressure flag (§V-B).

        Job-level detection is the disjunction of the per-operator 85% rule
        — exactly what the paper's modified log recorder can see.  A mild
        overload inside the rule's dead band therefore goes unnoticed, which
        is why tuners on Timely settle closer to the edge than on Flink.
        """
        del flow, truth
        return any(m.is_backpressured for m in observed.values())

    # ------------------------------------------------------------------
    # log records (paper §V-B)
    # ------------------------------------------------------------------

    def collect_message_events(self, deployment: Deployment) -> list[MessagesEvent]:
        """Produce ``MessagesEvent`` log records for one interval.

        Record counts are the ground-truth served rates split across worker
        threads (work-stealing makes the split near-uniform with small
        multinomial jitter).
        """
        truth = self.ground_truth(deployment)
        events: list[MessagesEvent] = []
        for name, op_flow in truth.operators.items():
            total_in = op_flow.served_in * MESSAGE_INTERVAL_SECONDS
            total_out = op_flow.served_out * MESSAGE_INTERVAL_SECONDS
            share = self._worker_shares()
            for worker, fraction in enumerate(share):
                events.append(
                    MessagesEvent(
                        worker=worker,
                        operator=name,
                        records_received=int(round(total_in * fraction)),
                        records_sent=int(round(total_out * fraction)),
                        interval_seconds=MESSAGE_INTERVAL_SECONDS,
                    )
                )
        return events

    def _worker_shares(self) -> np.ndarray:
        raw = self._latency_rng.dirichlet(np.full(WORKERS, 50.0))
        return raw

    # ------------------------------------------------------------------
    # per-epoch latency (Fig. 8b-d)
    # ------------------------------------------------------------------

    def sample_epoch_latencies(
        self,
        deployment: Deployment,
        n_epochs: int = 200,
    ) -> np.ndarray:
        """Sample per-epoch processing latencies under the current config.

        Each epoch ingests ``EPOCH_SECONDS`` of data whose instantaneous
        rate jitters log-normally around the configured source rates.  The
        epoch drains at the pace of the most-utilised operator; near
        saturation, queueing amplifies latency as ``rho / (1 - rho)``.
        Saturated epochs are capped at ``LATENCY_CAP_SECONDS``.
        """
        truth = self.ground_truth(deployment)
        rho_base = max(
            (op.demand_in / op.capacity if op.capacity > 0 else np.inf)
            for op in truth.operators.values()
        )
        latencies = np.empty(n_epochs)
        for i in range(n_epochs):
            jitter = float(np.exp(self._latency_rng.normal(0.0, RATE_JITTER_STD)))
            rho = rho_base * jitter
            if rho < 0.95:
                latency = EPOCH_SECONDS * max(0.05, rho / (1.0 - rho))
            else:
                # Mild overload (including the 85%-rule dead band, where
                # rho can sit up to ~1.17 undetected) degrades gradually:
                # the epoch finishes late by the backlog it accumulated,
                # only deep overloads pin at the cap.
                base = EPOCH_SECONDS * 0.95 / 0.05
                overload = max(0.0, rho - 1.0)
                latency = min(
                    LATENCY_CAP_SECONDS,
                    base + LATENCY_CAP_SECONDS * min(1.0, overload / 0.3),
                )
            overhead = float(np.exp(self._latency_rng.normal(-3.0, 0.3)))
            latencies[i] = min(latency + overhead, LATENCY_CAP_SECONDS)
        return latencies

    # ------------------------------------------------------------------
    # measurement override: rates come from the log recorder
    # ------------------------------------------------------------------

    def measure(self, deployment: Deployment) -> JobTelemetry:
        """Measure via the log recorder: §V-B's rate pipeline end-to-end."""
        telemetry = super().measure(deployment)
        events = self.collect_message_events(deployment)
        rates = aggregate_message_rates(events)
        operators: dict[str, ObservedOperatorMetrics] = {}
        for name, metrics in telemetry.operators.items():
            input_rate, output_rate = rates.get(name, (metrics.input_rate, metrics.output_rate))
            operators[name] = ObservedOperatorMetrics(
                name=metrics.name,
                parallelism=metrics.parallelism,
                input_rate=input_rate,
                output_rate=output_rate,
                busy_ms_per_second=metrics.busy_ms_per_second,
                idle_ms_per_second=metrics.idle_ms_per_second,
                backpressured_ms_per_second=metrics.backpressured_ms_per_second,
                is_backpressured=metrics.is_backpressured,
            )
        telemetry.operators = operators
        return telemetry
