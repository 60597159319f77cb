"""Fig. 10 — CPU utilisation trends during the tuning process.

The paper plots capacity-weighted CPU utilisation of the job across
StreamTune's reconfiguration iterations for Nexmark Q2, PQP Linear and PQP
2-way-join; vertical marks show where the periodic source rate changes.
Utilisation swings as the tuner explores degrees and settles mid-range once
tuned (neither starved nor saturated).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.campaigns import campaign
from repro.experiments.claims import Claim
from repro.experiments.scale import ExperimentScale, resolve_scale
from repro.utils.tables import format_table

GROUPS = ("q2", "linear", "2-way-join")


@dataclass(frozen=True)
class Fig10Series:
    group: str
    utilisation: tuple[float, ...]      # one value per reconfiguration step
    rate_change_marks: tuple[int, ...]  # step indices of source-rate changes


def run(scale: ExperimentScale | None = None) -> list[Fig10Series]:
    scale = scale or resolve_scale()
    series = []
    for group in GROUPS:
        result = campaign("flink", "StreamTune", group, scale)[0]
        series.append(
            Fig10Series(
                group=group,
                utilisation=tuple(result.cpu_trace()),
                rate_change_marks=tuple(result.process_boundaries()),
            )
        )
    return series


def claims(series: list[Fig10Series], scale: ExperimentScale) -> list[Claim]:
    """One step or more and exactly one mark per rate change, utilisation
    inside [0, 1], and a trace that genuinely moves as rates change and
    tuning explores."""
    n = scale.n_rate_changes
    rows = []
    for item in series:
        trace, group = item.utilisation, item.group
        rows += [
            Claim(f"fig10/steps>=rate-changes/{group}", len(trace), ">=", n),
            Claim(f"fig10/marks==rate-changes/{group}", len(item.rate_change_marks), "==", n),
            Claim(f"fig10/min-utilisation>=0/{group}", min(trace), ">=", 0.0),
            Claim(f"fig10/max-utilisation<=1/{group}", max(trace), "<=", 1.0),
            Claim(f"fig10/utilisation-range>0.1/{group}", max(trace) - min(trace), ">", 0.1),
        ]
    return rows


def main(scale: ExperimentScale | None = None) -> list[Fig10Series]:
    series = run(scale)
    for item in series:
        marks = set(item.rate_change_marks)
        rows = [
            (i, f"{value * 100:.1f}%", "<- rate change" if i in marks else "")
            for i, value in enumerate(item.utilisation)
        ]
        print(
            format_table(
                ["iteration", "CPU utilisation", ""],
                rows[:40],
                title=f"Fig. 10 - CPU Utilisation During Tuning ({item.group})",
            )
        )
        print()
    return series


if __name__ == "__main__":
    main()
