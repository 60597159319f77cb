"""Fig. 11 — ablation studies.

(a) Prediction-layer choice: SVM and XGBoost (both monotone) against a
plain neural network.  The NN violates the monotonic constraint, breaking
Algorithm 2's binary search; it needs clearly more reconfigurations on
Nexmark Q3/Q5/Q8 (paper: 2.49/3.13/4.59 vs ~1.3-1.6).

(b) Similarity-center computation: direct exact GED for every pair versus
the AStar+-LSa threshold search (paper: -99.65% at 400 DAGs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clustering.center import similarity_center
from repro.experiments.campaigns import GridRow, average_reconfigurations, grid_rows
from repro.experiments.claims import Claim, Deviation
from repro.experiments.scale import ExperimentScale, resolve_scale
from repro.utils.rng import seeded_rng
from repro.utils.tables import format_table
from repro.utils.timer import Timer
from repro.workloads.pqp import pqp_queries

ABLATION_GROUPS = ("q3", "q5", "q8")
ABLATION_METHODS = ("StreamTune-nn", "StreamTune-svm", "StreamTune-xgboost")

#: Fig. 11a reference values.
PAPER_FIG11A = {
    ("q3", "StreamTune-nn"): 2.49, ("q5", "StreamTune-nn"): 3.13,
    ("q8", "StreamTune-nn"): 4.59,
    ("q3", "StreamTune-svm"): 1.30, ("q5", "StreamTune-svm"): 1.25,
    ("q8", "StreamTune-svm"): 1.53,
    ("q3", "StreamTune-xgboost"): 1.46, ("q5", "StreamTune-xgboost"): 1.39,
    ("q8", "StreamTune-xgboost"): 1.58,
}

#: Dataset sizes for the similarity-center timing curve, per scale preset.
CENTER_SIZES = {"smoke": (20, 40), "default": (50, 100, 150, 200), "paper": (100, 200, 300, 400)}

#: Similarity-search threshold (paper §V-A: tau = 5).
TAU = 5.0

#: Fig. 11b times each method as its fastest of ``SHOTS`` runs, the two
#: methods' runs interleaved so that host load falls on both; a method
#: whose fastest run takes ``REPEAT_BELOW_SECONDS`` is not run again.  A
#: single shot of a few hundredths of a second mostly measures the host.
SHOTS = 7
REPEAT_BELOW_SECONDS = 0.5


@dataclass(frozen=True)
class Fig11bRow:
    n_graphs: int
    direct_seconds: float
    lsa_seconds: float

    @property
    def reduction_percent(self) -> float:
        if self.direct_seconds <= 0:
            return 0.0
        return 100.0 * (1.0 - self.lsa_seconds / self.direct_seconds)


def run_fig11a(scale: ExperimentScale | None = None) -> list[GridRow]:
    scale = scale or resolve_scale()
    cells = [(group, method) for group in ABLATION_GROUPS for method in ABLATION_METHODS]
    return grid_rows("flink", cells, scale, average_reconfigurations, PAPER_FIG11A)


def _center_dataset(n_graphs: int, seed: int) -> list:
    """``n_graphs`` structurally diverse DAGs (regenerated PQP variants)."""
    rng = seeded_rng(seed)
    graphs = []
    variant = 0
    while len(graphs) < n_graphs:
        template = ["linear", "2-way-join", "3-way-join"][variant % 3]
        queries = pqp_queries(template, seed=seed + 17 * variant)
        for query in queries:
            graphs.append(query.flow)
            if len(graphs) == n_graphs:
                break
        variant += 1
    order = rng.permutation(len(graphs))
    return [graphs[i] for i in order]


def _fastest(graphs) -> list[float]:
    """The fastest direct and LSa computations of the center, in seconds."""
    seconds = [np.inf, np.inf]
    centers = set()
    for shot in range(SHOTS):
        for index, use_lsa in enumerate((False, True)):
            if shot == 0 or seconds[index] < REPEAT_BELOW_SECONDS:
                with Timer() as timer:
                    centers.add(similarity_center(graphs, tau=TAU, use_lsa=use_lsa))
                seconds[index] = min(seconds[index], timer.elapsed)
    assert len(centers) == 1, "methods must agree on the center"
    return seconds


def run_fig11b(scale: ExperimentScale | None = None) -> list[Fig11bRow]:
    scale = scale or resolve_scale()
    rows = []
    for n_graphs in CENTER_SIZES[scale.name]:
        graphs = _center_dataset(n_graphs, seed=scale.seed + 11)
        rows.append(Fig11bRow(n_graphs, *_fastest(graphs)))
    return rows


DEVIATIONS = {
    "fig11b/lsa-reduction>50%/20-dags": Deviation(
        "LSa is 47.7 % faster than direct GED at 20 DAGs, the median of eight smoke "
        "runs of each method's fastest of 7 shots (~0.07 s against ~0.035 s; range "
        "44.8 - 56.1 %, single shots 33.9 - 67.7 %), and 88 - 94 % at 40 DAGs: the "
        "saving grows with the cluster, and 20 DAGs is too small to reach 50 %",
        since="b711015 or earlier (wall-clock; 19.8 % there)", strict=False,
    ),
}


def claims(
    result: tuple[list[GridRow], list[Fig11bRow]], scale: ExperimentScale
) -> list[Claim]:
    """The monotone layers beat the unconstrained NN — the short smoke
    campaigns resolve this against the *best* monotone layer only (the two
    are statistically tied with each other), larger scales must reproduce
    the full ordering — and LSa is dramatically faster than direct GED."""
    rows_a, rows_b = result
    by_key = {(r.group, r.method): r.measured for r in rows_a}
    nn, svm, xgb = (
        float(np.mean([by_key[group, method] for group in ABLATION_GROUPS]))
        for method in ABLATION_METHODS
    )
    beyond_smoke = ("default", "paper")
    return [
        Claim("fig11a/nn>=min(svm,xgboost)", nn, ">=", min(svm, xgb)),
        Claim("fig11a/nn>=svm", nn, ">=", svm, scales=beyond_smoke),
        Claim("fig11a/nn>=xgboost", nn, ">=", xgb, scales=beyond_smoke),
    ] + [
        Claim(f"fig11b/lsa<direct/{r.n_graphs}-dags", r.lsa_seconds, "<", r.direct_seconds,
              seeded=False)
        for r in rows_b
    ] + [
        Claim(f"fig11b/lsa-reduction>50%/{r.n_graphs}-dags", r.reduction_percent, ">", 50.0,
              seeded=False)
        for r in rows_b
    ]


def main(scale: ExperimentScale | None = None) -> tuple[list[GridRow], list[Fig11bRow]]:
    rows_a = run_fig11a(scale)
    print(
        format_table(
            ["query", "prediction layer", "avg reconfigs (measured)", "paper"],
            [(r.group, r.method.split("-")[1].upper(), f"{r.measured:.2f}",
              "-" if r.paper is None else f"{r.paper:.2f}") for r in rows_a],
            title="Fig. 11a - Effect of Classification Models",
        )
    )
    rows_b = run_fig11b(scale)
    print()
    print(
        format_table(
            ["# DAGs", "direct GED (s)", "AStar+-LSa (s)", "reduction"],
            [
                (
                    r.n_graphs,
                    f"{r.direct_seconds:.2f}",
                    f"{r.lsa_seconds:.2f}",
                    f"{r.reduction_percent:.1f}%",
                )
                for r in rows_b
            ],
            title="Fig. 11b - Similarity Center Computation Time",
        )
    )
    return rows_a, rows_b


if __name__ == "__main__":
    main()
