"""Dataflow execution histories (paper §II-A, §V-A "Pre-training Setup").

An :class:`ExecutionRecord` is one historical run: the logical DAG, the
source rates, the deployed parallelism degrees, the Algorithm 1 bottleneck
labels, and the job-level telemetry summary.  A long-running platform
accumulates these from production; here :class:`HistoryGenerator`
synthesises them exactly the way the paper builds its pre-training dataset:

* queries drawn from the Nexmark + PQP corpus (whose node-count
  distribution is Fig. 5),
* source rates uniform in (1 Wu, 10 Wu) — deliberately off-grid so tuning
  rates (integer multiples) never coincide with training rates,
* parallelism degrees uniform in [1, 60],
* labels from Algorithm 1 applied to the measured deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.labeling import label_operators
from repro.dataflow.graph import LogicalDataflow
from repro.engines.base import EngineCluster
from repro.utils.rng import seeded_rng
from repro.workloads.query import StreamingQuery

#: §V-A: "we assigned random values from [1, 60]" for parallelism degrees.
HISTORY_PARALLELISM_RANGE = (1, 60)

#: §V-A: "random values between (1Wu, 10Wu)" for source rates.
HISTORY_RATE_MULTIPLIER_RANGE = (1.0, 10.0)


@dataclass(frozen=True)
class ExecutionRecord:
    """One historical dataflow execution with bottleneck labels."""

    flow: LogicalDataflow
    source_rates: dict[str, float]
    parallelisms: dict[str, int]
    labels: dict[str, int]
    engine_name: str
    has_backpressure: bool
    job_latency_seconds: float
    query_name: str = ""
    cpu_loads: dict[str, float] = field(default_factory=dict)

    @property
    def n_labelled(self) -> int:
        return sum(1 for label in self.labels.values() if label >= 0)

    @property
    def n_bottlenecks(self) -> int:
        return sum(1 for label in self.labels.values() if label == 1)

    def to_dict(self) -> dict:
        return {
            "flow": self.flow.to_dict(),
            "source_rates": dict(self.source_rates),
            "parallelisms": dict(self.parallelisms),
            "labels": dict(self.labels),
            "engine_name": self.engine_name,
            "has_backpressure": self.has_backpressure,
            "job_latency_seconds": self.job_latency_seconds,
            "query_name": self.query_name,
            "cpu_loads": dict(self.cpu_loads),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionRecord":
        return cls(
            flow=LogicalDataflow.from_dict(data["flow"]),
            source_rates=data["source_rates"],
            parallelisms=data["parallelisms"],
            labels=data["labels"],
            engine_name=data["engine_name"],
            has_backpressure=data["has_backpressure"],
            job_latency_seconds=data["job_latency_seconds"],
            query_name=data.get("query_name", ""),
            cpu_loads=data.get("cpu_loads", {}),
        )


class HistoryGenerator:
    """Synthesises execution histories by running queries on an engine."""

    def __init__(
        self,
        engine: EngineCluster,
        seed: int | None = None,
    ) -> None:
        low, high = HISTORY_PARALLELISM_RANGE
        self.engine = engine
        self.parallelism_range = (low, min(high, engine.max_parallelism))
        self._rng = seeded_rng(seed)

    def run_once(self, query: StreamingQuery) -> ExecutionRecord:
        """Deploy ``query`` at a random configuration and label it."""
        multiplier = float(self._rng.uniform(*HISTORY_RATE_MULTIPLIER_RANGE))
        source_rates = query.rates_at(multiplier)
        low, high = self.parallelism_range
        parallelisms = {
            name: int(self._rng.integers(low, high + 1))
            for name in query.flow.operator_names
        }
        deployment = self.engine.deploy(query.flow, parallelisms, source_rates)
        telemetry = self.engine.measure(deployment)
        labels = label_operators(query.flow, telemetry, self.engine.name)
        record = ExecutionRecord(
            flow=query.flow,
            source_rates=source_rates,
            parallelisms=parallelisms,
            labels=labels,
            engine_name=self.engine.name,
            has_backpressure=telemetry.has_backpressure,
            job_latency_seconds=telemetry.job_latency_seconds,
            query_name=query.name,
            cpu_loads={
                name: metrics.cpu_load
                for name, metrics in telemetry.operators.items()
            },
        )
        self.engine.stop(deployment)
        return record

    def generate(
        self,
        queries: list[StreamingQuery],
        n_records: int,
    ) -> list[ExecutionRecord]:
        """``n_records`` runs with queries drawn uniformly from the corpus."""
        if not queries:
            raise ValueError("need at least one query")
        if n_records < 1:
            raise ValueError("n_records must be >= 1")
        records = []
        for _ in range(n_records):
            query = queries[int(self._rng.integers(len(queries)))]
            records.append(self.run_once(query))
        return records
