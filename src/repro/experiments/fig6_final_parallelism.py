"""Fig. 6 — final parallelism recommendations at 10 x Wu on Flink.

For every evaluated query the paper reports the total operator parallelism
each method settles on once the source rate reaches 10 Wu.  ZeroTune is
PQP-only (its zero-shot model family was built for that workload).

Expected shape: StreamTune <= ContTune <= DS2 << ZeroTune, with the gap
widening on structurally complex queries (Q5, PQP joins).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import context
from repro.experiments.campaigns import averaged, campaign
from repro.experiments.scale import ExperimentScale, resolve_scale
from repro.utils.tables import format_table

#: Query groups in the paper's plotting order.
FLINK_GROUPS = ("q1", "q2", "q3", "q5", "q8", "linear", "2-way-join", "3-way-join")
PQP_GROUPS = ("linear", "2-way-join", "3-way-join")
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


@dataclass(frozen=True)
class Fig6Row:
    group: str
    method: str
    measured_total: float
    paper_total: int | None


def run(scale: ExperimentScale | None = None) -> list[Fig6Row]:
    scale = scale or resolve_scale()
    rows: list[Fig6Row] = []
    for group in FLINK_GROUPS:
        methods = METHODS + (("ZeroTune",) if group in PQP_GROUPS else ())
        for method in methods:
            results = campaign("flink", method, group, scale)
            total = averaged(
                results, "average_reconfigurations"
            )  # touch to materialise
            del total
            measured = sum(
                result.final_parallelism_at(10) for result in results
            ) / len(results)
            rows.append(
                Fig6Row(
                    group=group,
                    method=method,
                    measured_total=measured,
                    paper_total=PAPER_FIG6.get((group, method)),
                )
            )
    return rows


def main(scale: ExperimentScale | None = None) -> list[Fig6Row]:
    rows = run(scale)
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
            title="Fig. 6 - Final Parallelism at 10xWu (Flink)",
        )
    )
    return rows


if __name__ == "__main__":
    main()
