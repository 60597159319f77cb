"""Fig. 9 — computational cost of StreamTune.

(a) Average online recommendation time per tuning process across the PQP
templates: DS2 is near-instant (closed form), StreamTune is stable as
query complexity grows, ContTune's per-operator Gaussian processes climb
steeply with operator count and accumulated observations.

(b) Offline pre-training wall time versus history size: super-linear
growth, dominated by per-cluster GNN training plus GED clustering.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import pretrain
from repro.experiments import context
from repro.experiments.campaigns import GridRow, average_recommendation_seconds, grid_rows
from repro.experiments.claims import Claim
from repro.experiments.context import PQP_GROUPS
from repro.experiments.scale import ExperimentScale, resolve_scale
from repro.utils.tables import format_table
from repro.utils.timer import Timer

METHODS = ("StreamTune", "DS2", "ContTune")

#: History sizes for the pre-training cost curve, scaled per preset.
CURVE_FRACTIONS = (0.15, 0.3, 0.6, 1.0)


@dataclass(frozen=True)
class Fig9bRow:
    n_records: int
    training_seconds: float


def run_fig9a(scale: ExperimentScale | None = None) -> list[GridRow]:
    scale = scale or resolve_scale()
    cells = [(group, method) for group in PQP_GROUPS for method in METHODS]
    return grid_rows("flink", cells, scale, average_recommendation_seconds, paper={})


def run_fig9b(scale: ExperimentScale | None = None) -> list[Fig9bRow]:
    scale = scale or resolve_scale()
    records = context.history("flink", scale)
    engine = context.make_engine("flink", scale)
    rows = []
    for fraction in CURVE_FRACTIONS:
        subset = records[: max(20, int(len(records) * fraction))]
        with Timer() as timer:
            pretrain(
                subset,
                max_parallelism=engine.max_parallelism,
                n_clusters=scale.n_clusters,
                epochs=scale.gnn_epochs,
                seed=scale.seed + 2,
            )
        rows.append(Fig9bRow(n_records=len(subset), training_seconds=timer.elapsed))
    return rows


def claims(
    result: tuple[list[GridRow], list[Fig9bRow]], scale: ExperimentScale
) -> list[Claim]:
    """DS2's closed form is the cheapest online recommender everywhere, and
    pre-training cost grows with the history (paper: super-linearly)."""
    rows_a, rows_b = result
    seconds = {(r.group, r.method): r.measured for r in rows_a}
    sizes = [row.n_records for row in rows_b]
    return [
        Claim(f"fig9a/ds2<=streamtune/{g}",
              seconds[g, "DS2"], "<=", seconds[g, "StreamTune"], seeded=False)
        for g in PQP_GROUPS
    ] + [
        Claim("fig9b/history-sizes-ascending",
              min(b - a for a, b in zip(sizes, sizes[1:])), ">=", 0),
        Claim("fig9b/largest-history-trains-longest",
              rows_b[-1].training_seconds, ">", rows_b[0].training_seconds, seeded=False),
    ]


def main(scale: ExperimentScale | None = None) -> tuple[list[GridRow], list[Fig9bRow]]:
    rows_a = run_fig9a(scale)
    print(
        format_table(
            ["query", "method", "avg recommendation time (s)"],
            [(r.group, r.method, f"{r.measured:.3f}") for r in rows_a],
            title="Fig. 9a - Online Recommendation Time",
        )
    )
    rows_b = run_fig9b(scale)
    print()
    print(
        format_table(
            ["# history records", "pre-training time (s)"],
            [(r.n_records, f"{r.training_seconds:.1f}") for r in rows_b],
            title="Fig. 9b - Offline Pre-training Cost",
        )
    )
    return rows_a, rows_b


if __name__ == "__main__":
    main()
