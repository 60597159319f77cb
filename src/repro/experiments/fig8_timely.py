"""Fig. 8 — generality evaluation on Timely Dataflow.

(a) Final total parallelism recommended for Nexmark Q3/Q5/Q8 at 10 x Wu:
StreamTune needs dramatically fewer workers (up to -83.3% on Q8 vs DS2)
because rate-based tuners divide observed rates by Timely's *inflated*
busy time (spinning workers) and over-provision, while StreamTune's
bottleneck labels come from data rates.

(b-d) CDFs of per-epoch latencies under each method's final configuration:
despite the lower parallelism, StreamTune's latency distribution remains
comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments import context
from repro.experiments.campaigns import campaign
from repro.experiments.scale import ExperimentScale, resolve_scale
from repro.utils.tables import format_table

GROUPS = ("q3", "q5", "q8")
METHODS = ("DS2", "ContTune", "StreamTune")

#: Fig. 8a reference totals.
PAPER_FIG8A = {
    ("q3", "DS2"): 14, ("q3", "ContTune"): 13, ("q3", "StreamTune"): 7,
    ("q5", "DS2"): 3, ("q5", "ContTune"): 3, ("q5", "StreamTune"): 2,
    ("q8", "DS2"): 6, ("q8", "ContTune"): 5, ("q8", "StreamTune"): 1,
}

#: CDF percentiles reported for the latency comparison.
PERCENTILES = (10, 25, 50, 75, 90, 99)


@dataclass(frozen=True)
class Fig8aRow:
    group: str
    method: str
    measured_total: float
    paper_total: int | None


@dataclass(frozen=True)
class Fig8LatencyRow:
    group: str
    method: str
    percentiles: dict[int, float]


def run_fig8a(scale: ExperimentScale | None = None) -> list[Fig8aRow]:
    scale = scale or resolve_scale()
    rows = []
    for group in GROUPS:
        for method in METHODS:
            results = campaign("timely", method, group, scale)
            measured = sum(
                result.final_parallelism_at(10) for result in results
            ) / len(results)
            rows.append(
                Fig8aRow(
                    group=group,
                    method=method,
                    measured_total=measured,
                    paper_total=PAPER_FIG8A.get((group, method)),
                )
            )
    return rows


def run_latency_cdfs(scale: ExperimentScale | None = None) -> list[Fig8LatencyRow]:
    """Fig. 8b-d: per-epoch latency distribution at each final config."""
    scale = scale or resolve_scale()
    rows = []
    for group in GROUPS:
        for method in METHODS:
            results = campaign("timely", method, group, scale)
            query = context.evaluation_queries("timely", scale)[group][0]
            parallelisms = results[0].final_parallelisms_at(10)
            engine = context.make_engine("timely", scale)
            deployment = engine.deploy(
                query.flow, parallelisms, query.rates_at(10)
            )
            latencies = engine.sample_epoch_latencies(
                deployment, n_epochs=scale.n_latency_epochs
            )
            engine.stop(deployment)
            rows.append(
                Fig8LatencyRow(
                    group=group,
                    method=method,
                    percentiles={
                        p: float(np.percentile(latencies, p)) for p in PERCENTILES
                    },
                )
            )
    return rows


def main(scale: ExperimentScale | None = None) -> tuple[list[Fig8aRow], list[Fig8LatencyRow]]:
    rows = run_fig8a(scale)
    table = [
        (
            row.group,
            row.method,
            f"{row.measured_total:.1f}",
            row.paper_total if row.paper_total is not None else "-",
        )
        for row in rows
    ]
    print(
        format_table(
            ["query", "method", "final parallelism (measured)", "paper"],
            table,
            title="Fig. 8a - Final Parallelism at 10xWu (Timely Dataflow)",
        )
    )
    latency_rows = run_latency_cdfs(scale)
    table = [
        (row.group, row.method)
        + tuple(f"{row.percentiles[p]:.2f}" for p in PERCENTILES)
        for row in latency_rows
    ]
    print()
    print(
        format_table(
            ["query", "method"] + [f"p{p} (s)" for p in PERCENTILES],
            table,
            title="Fig. 8b-d - Per-Epoch Latency Percentiles (Timely)",
        )
    )
    return rows, latency_rows


if __name__ == "__main__":
    main()
