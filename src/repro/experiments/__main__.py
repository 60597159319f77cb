"""Run every paper experiment once, print its tables, and judge its claims.

Usage::

    python -m repro.experiments            # default scale
    REPRO_SCALE=smoke python -m repro.experiments

Each module's ``main`` runs its ``run*`` functions and prints what the
paper reports; its ``claims`` turns the rows ``main`` returned into the
paper's shape claims.  The exit status is the verdict of
:func:`repro.experiments.claims.judge`: 1 when a claim fails that is not
a listed deviation, when a strict deviation holds again, or when a
deviation names no evaluated claim.  ``python -m repro.experiments.<module>``
still runs (and only prints) one figure.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

from repro.experiments import (
    ablations,
    fig4_processing_ability,
    fig5_history_distribution,
    fig6_final_parallelism,
    fig7_reconfigurations,
    fig8_timely,
    fig9_overhead,
    fig10_cpu_utilisation,
    fig11_ablation,
    table3_backpressure,
)
from repro.experiments.claims import judge
from repro.experiments.scale import resolve_scale
from repro.utils.tables import format_table

EXPERIMENTS = (
    ("Fig. 4", fig4_processing_ability),
    ("Fig. 5", fig5_history_distribution),
    ("Fig. 6", fig6_final_parallelism),
    ("Fig. 7", fig7_reconfigurations),
    ("Table III", table3_backpressure),
    ("Fig. 8", fig8_timely),
    ("Fig. 9", fig9_overhead),
    ("Fig. 10", fig10_cpu_utilisation),
    ("Fig. 11", fig11_ablation),
    ("Ablations", ablations),
)


def main(scale=None, output: str | None = None) -> int:
    scale = scale or resolve_scale()
    print(f"# StreamTune reproduction - all experiments (scale: {scale.name})\n")
    claims, deviations = [], {}
    for label, module in EXPERIMENTS:
        print(f"\n{'=' * 70}\n## {label}\n{'=' * 70}")
        result = module.main(scale)
        claims += [replace(row, figure=label) for row in module.claims(result, scale)]
        deviations.update(getattr(module, "DEVIATIONS", {}))
    report = judge(claims, deviations, scale.name)
    print(f"\n{'=' * 70}\n## Claims\n{'=' * 70}")
    print(
        format_table(
            ["claim", "figure", "reading", "bound", "margin", "status"],
            [
                (row["id"], row["figure"], f"{row['lhs']:.4g}",
                 f"{row['op']} {row['rhs']:.4g}", f"{row['margin']:+.4g}", row["status"])
                for row in report["claims"]
            ],
            title=f"Paper claims at {scale.name} scale",
        )
    )
    for failure in report["failures"]:
        print(f"FAIL {failure}", file=sys.stderr)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
            handle.write("\n")
    return 1 if report["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
