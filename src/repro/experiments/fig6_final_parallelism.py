"""Fig. 6 — final parallelism recommendations at 10 x Wu on Flink.

For every evaluated query the paper reports the total operator parallelism
each method settles on once the source rate reaches 10 Wu.  ZeroTune is
PQP-only (its zero-shot model family was built for that workload).

The paper's shape: StreamTune <= ContTune <= DS2 << ZeroTune, with the gap
widening on structurally complex queries (Q5, PQP joins); :func:`claims`
states the part of it a run is held to.
"""

from __future__ import annotations

from repro.experiments.campaigns import GridRow, final_parallelism, grid_rows
from repro.experiments.claims import Claim
from repro.experiments.context import FLINK_GROUPS, PQP_GROUPS
from repro.experiments.scale import ExperimentScale, resolve_scale
from repro.utils.tables import format_table

METHODS = ("DS2", "ContTune", "StreamTune")

#: Paper's reported totals for reference (Fig. 6 bar labels).
PAPER_FIG6 = {
    ("q1", "DS2"): 13, ("q1", "ContTune"): 12, ("q1", "StreamTune"): 12,
    ("q2", "DS2"): 13, ("q2", "ContTune"): 13, ("q2", "StreamTune"): 13,
    ("q3", "DS2"): 14, ("q3", "ContTune"): 14, ("q3", "StreamTune"): 14,
    ("q5", "DS2"): 15, ("q5", "ContTune"): 14, ("q5", "StreamTune"): 13,
    ("q8", "DS2"): 12, ("q8", "ContTune"): 12, ("q8", "StreamTune"): 12,
    ("linear", "DS2"): 13, ("linear", "ContTune"): 13,
    ("linear", "StreamTune"): 9, ("linear", "ZeroTune"): 46,
    ("2-way-join", "DS2"): 39, ("2-way-join", "ContTune"): 36,
    ("2-way-join", "StreamTune"): 33, ("2-way-join", "ZeroTune"): 53,
    ("3-way-join", "DS2"): 59, ("3-way-join", "ContTune"): 55,
    ("3-way-join", "StreamTune"): 52, ("3-way-join", "ZeroTune"): 60,
}


def run(scale: ExperimentScale | None = None) -> list[GridRow]:
    scale = scale or resolve_scale()
    cells = [
        (group, method)
        for group in FLINK_GROUPS
        for method in METHODS + (("ZeroTune",) if group in PQP_GROUPS else ())
    ]
    return grid_rows("flink", cells, scale, final_parallelism, PAPER_FIG6)


def claims(rows: list[GridRow], scale: ExperimentScale) -> list[Claim]:
    """StreamTune never needs more resources than DS2 (within noise), and
    ZeroTune dwarfs everyone on PQP."""
    total = {(row.group, row.method): row.measured for row in rows}
    return [
        Claim(f"fig6/streamtune<=1.35*ds2/{g}",
              total[g, "StreamTune"], "<=", 1.35 * total[g, "DS2"])
        for g in FLINK_GROUPS
    ] + [
        Claim(f"fig6/zerotune>1.3*streamtune/{g}",
              total[g, "ZeroTune"], ">", 1.3 * total[g, "StreamTune"])
        for g in PQP_GROUPS
    ]


def main(scale: ExperimentScale | None = None) -> list[GridRow]:
    rows = run(scale)
    print(
        format_table(
            ["query", "method", "final parallelism (measured)", "paper"],
            [(r.group, r.method, f"{r.measured:.1f}", "-" if r.paper is None else r.paper)
             for r in rows],
            title="Fig. 6 - Final Parallelism at 10xWu (Flink)",
        )
    )
    return rows


if __name__ == "__main__":
    main()
