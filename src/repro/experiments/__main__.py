"""Run every paper experiment and print the full report.

Usage::

    python -m repro.experiments            # default scale
    REPRO_SCALE=smoke python -m repro.experiments
"""

from __future__ import annotations

import sys

from repro.experiments import (
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
from repro.experiments.scale import resolve_scale

EXPERIMENTS = (
    ("Fig. 4", fig4_processing_ability.main),
    ("Fig. 5", fig5_history_distribution.main),
    ("Fig. 6", fig6_final_parallelism.main),
    ("Fig. 7", fig7_reconfigurations.main),
    ("Table III", table3_backpressure.main),
    ("Fig. 8", fig8_timely.main),
    ("Fig. 9", fig9_overhead.main),
    ("Fig. 10", fig10_cpu_utilisation.main),
    ("Fig. 11", fig11_ablation.main),
)


def main(scale=None) -> int:
    scale = scale or resolve_scale()
    print(f"# StreamTune reproduction - all experiments (scale: {scale.name})\n")
    for label, runner in EXPERIMENTS:
        print(f"\n{'=' * 70}\n## {label}\n{'=' * 70}")
        runner(scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
