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
from repro.experiments.campaigns import GridRow, campaign, final_parallelism, grid_rows
from repro.experiments.claims import Claim, Deviation
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
class Fig8LatencyRow:
    group: str
    method: str
    percentiles: dict[int, float]


def run_fig8a(scale: ExperimentScale | None = None) -> list[GridRow]:
    scale = scale or resolve_scale()
    cells = [(group, method) for group in GROUPS for method in METHODS]
    return grid_rows("timely", cells, scale, final_parallelism, PAPER_FIG8A)


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


DEVIATIONS = {
    "fig8a/streamtune<=1.4*max(ds2,conttune)/q5": Deviation(
        "StreamTune 24.0 > 1.4 x max(DS2 14.0, ContTune 14.0) = 19.6",
        since="e383750 (PR 19; passes at b711015)", strict=True,
    ),
}


def claims(
    result: tuple[list[GridRow], list[Fig8LatencyRow]], scale: ExperimentScale
) -> list[Claim]:
    """StreamTune needs fewer resources on Timely, with the largest gap on
    Q8 (paper: up to -83.3% vs DS2) — at small scales Q3/Q5 can tie, so the
    per-group claim allows a margin while Q8's gap must be real — and its
    median epoch latency stays far from the 200 s saturation cap (the
    paper's CDFs overlap; our dead-band occupancy makes the gap wider but
    bounded)."""
    rows, latency_rows = result
    total = {(r.group, r.method): r.measured for r in rows}
    median = {(r.group, r.method): r.percentiles[50] for r in latency_rows}
    return [
        Claim(f"fig8a/streamtune<=1.4*max(ds2,conttune)/{g}",
              total[g, "StreamTune"], "<=", 1.4 * max(total[g, "DS2"], total[g, "ContTune"]))
        for g in GROUPS
    ] + [
        Claim("fig8a/streamtune<=0.7*ds2/q8",
              total["q8", "StreamTune"], "<=", 0.7 * total["q8", "DS2"]),
    ] + [
        Claim(f"fig8b-d/streamtune-median-latency<60s/{g}", median[g, "StreamTune"], "<", 60.0)
        for g in GROUPS
    ]


def main(scale: ExperimentScale | None = None) -> tuple[list[GridRow], list[Fig8LatencyRow]]:
    rows = run_fig8a(scale)
    print(
        format_table(
            ["query", "method", "final parallelism (measured)", "paper"],
            [(r.group, r.method, f"{r.measured:.1f}", "-" if r.paper is None else r.paper)
             for r in rows],
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
