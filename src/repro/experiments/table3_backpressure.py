"""Table III — frequency of backpressure occurrences during tuning.

Counts, over the whole campaign, how often a method's own redeployment left
the job backpressured.  Paper result: DS2 and ContTune trigger backpressure
increasingly often as query complexity grows (useful-time overestimation),
ZeroTune and StreamTune stay at zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.campaigns import campaign
from repro.experiments.claims import Claim, Deviation
from repro.experiments.context import FLINK_GROUPS, PQP_GROUPS
from repro.experiments.scale import ExperimentScale, resolve_scale
from repro.utils.tables import format_table

METHODS = ("DS2", "ContTune", "ZeroTune", "StreamTune")

#: Table III reference counts (120 tuning processes per query).
PAPER_TABLE3 = {
    "DS2": {"q1": 0, "q2": 0, "q3": 1, "q5": 2, "q8": 1,
            "linear": 3, "2-way-join": 8, "3-way-join": 12},
    "ContTune": {"q1": 0, "q2": 0, "q3": 2, "q5": 5, "q8": 1,
                 "linear": 4, "2-way-join": 11, "3-way-join": 9},
    "ZeroTune": {"linear": 0, "2-way-join": 0, "3-way-join": 0},
    "StreamTune": {"q1": 0, "q2": 0, "q3": 0, "q5": 0, "q8": 0,
                   "linear": 0, "2-way-join": 0, "3-way-join": 0},
}


@dataclass(frozen=True)
class Table3Row:
    method: str
    group: str
    measured_events: int
    paper_events: int | None


def run(scale: ExperimentScale | None = None) -> list[Table3Row]:
    scale = scale or resolve_scale()
    rows = []
    for method in METHODS:
        for group in FLINK_GROUPS:
            if method == "ZeroTune" and group not in PQP_GROUPS:
                continue
            results = campaign("flink", method, group, scale)
            measured = sum(result.total_backpressure_events for result in results)
            rows.append(
                Table3Row(
                    method=method,
                    group=group,
                    measured_events=measured,
                    paper_events=PAPER_TABLE3.get(method, {}).get(group),
                )
            )
    return rows


DEVIATIONS = {
    "table3/streamtune<=max(3,n//2)/q1": Deviation(
        "StreamTune 6 backpressure events > max(3, 8 // 2) = 4",
        since="e383750 (PR 19; passes at b711015)", strict=True,
    ),
}


def claims(rows: list[Table3Row], scale: ExperimentScale) -> list[Claim]:
    """ZeroTune over-provisions and so stays essentially backpressure-free;
    StreamTune stays near zero per query (paper: exactly zero at the full
    120-process scale; small scales see first-visit misses); the rate-based
    DS2 triggers backpressure more overall."""
    n = scale.n_rate_changes
    events = {(row.method, row.group): row.measured_events for row in rows}

    def total(method: str) -> int:
        return sum(events[method, group] for group in FLINK_GROUPS)

    return [
        Claim(f"table3/zerotune<=max(3,n//3)/{g}", events["ZeroTune", g], "<=", max(3, n // 3))
        for g in PQP_GROUPS
    ] + [
        Claim(f"table3/streamtune<=max(3,n//2)/{g}", events["StreamTune", g], "<=", max(3, n // 2))
        for g in FLINK_GROUPS
    ] + [
        Claim("table3/total-streamtune<=total-ds2+2", total("StreamTune"), "<=", total("DS2") + 2),
    ]


def main(scale: ExperimentScale | None = None) -> list[Table3Row]:
    rows = run(scale)
    table = [
        (
            row.method,
            row.group,
            row.measured_events,
            row.paper_events if row.paper_events is not None else "-",
        )
        for row in rows
    ]
    print(
        format_table(
            ["method", "query", "backpressure events (measured)", "paper"],
            table,
            title="Table III - Frequency of Backpressure Occurrences",
        )
    )
    return rows


if __name__ == "__main__":
    main()
