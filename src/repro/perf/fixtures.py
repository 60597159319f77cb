"""Frozen deterministic fixtures for the hot-path benchmarks.

Every benchmark in :mod:`repro.perf.runner` times a computation over the
fixtures built here, and everything is pinned — seeds, flow sets, row
counts — so two perf runs (on the same machine and build) time the
*same* computation.  There is one fixture size, the one the committed
baseline was recorded at.  The expensive artifact (the smoke-scale
pre-trained model and its history) comes from
:mod:`repro.experiments.context`'s process-wide memo, exactly like the
benchmarks under ``benchmarks/``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Weight each unique training row carries in the duplicated-vs-weighted
#: SVM fit comparison (the duplicated path materialises the multiset).
FIT_MULTIPLICITY = 8


@dataclass
class PerfFixtures:
    """Everything the benchmark suite times against."""

    assign_flows: list                  # dataflows to cluster-assign
    centers: list                       # the clustering's center graphs
    encoder: object                     # cluster-0 BottleneckGNN
    samples: list                       # GraphSample batch for encoding
    fit_features: np.ndarray            # unique rows (weighted fit)
    fit_labels: np.ndarray
    fit_weights: np.ndarray
    fit_features_dup: np.ndarray        # materialised multiset (the _fit_model layers)
    fit_labels_dup: np.ndarray


def build_fixtures() -> PerfFixtures:
    """Assemble the fixture set (deterministic; memoised artifacts)."""
    from repro.core.finetune import build_warmup_dataset
    from repro.experiments import context
    from repro.experiments.scale import resolve_scale

    pretrained = context.pretrained_model("flink", resolve_scale("smoke"))

    corpus = context.corpus("flink")
    assign_flows = [query.flow for query in corpus[:16]]
    centers = list(pretrained.clustering.center_graphs)

    records = pretrained.records_by_cluster[0][:16]
    samples = [pretrained.sample_for(record) for record in records]
    encoder = pretrained.encoders[0]

    warmup = build_warmup_dataset(pretrained, 0, max_rows=150, seed=17)
    if not warmup.has_both_classes():
        raise RuntimeError(
            "perf fixture warm-up dataset is single-class; the SVM fit "
            "benchmarks need both labels — regenerate at a larger scale"
        )
    features, labels = warmup.matrices()
    weights = np.full(len(labels), float(FIT_MULTIPLICITY))
    features_dup = np.tile(features, (FIT_MULTIPLICITY, 1))
    labels_dup = np.tile(labels, FIT_MULTIPLICITY)

    return PerfFixtures(
        assign_flows=assign_flows,
        centers=centers,
        encoder=encoder,
        samples=samples,
        fit_features=features,
        fit_labels=labels,
        fit_weights=weights,
        fit_features_dup=features_dup,
        fit_labels_dup=labels_dup,
    )
