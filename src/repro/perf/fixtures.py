"""Frozen deterministic fixtures for the hot-path benchmarks.

Every benchmark in :mod:`repro.perf.runner` times a computation over the
fixtures built here, and everything is pinned — seeds, flow sets, sample
counts — so two perf runs (on the same machine and build) time the
*same* computation.  There is one fixture size, the one the committed
baseline was recorded at.  The expensive artifact (the smoke-scale
pre-trained model and its history) comes from
:mod:`repro.experiments.context`'s process-wide memo, exactly like the
benchmarks under ``benchmarks/``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class PerfFixtures:
    """Everything the benchmark suite times against."""

    assign_flows: list                  # dataflows to cluster-assign
    centers: list                       # the clustering's center graphs
    encoder: object                     # cluster-0 BottleneckGNN
    samples: list                       # GraphSample batch for encoding


def build_fixtures() -> PerfFixtures:
    """Assemble the fixture set (deterministic; memoised artifacts)."""
    from repro.experiments import context
    from repro.experiments.scale import resolve_scale

    pretrained = context.pretrained_model("flink", resolve_scale("smoke"))

    corpus = context.corpus("flink")
    assign_flows = [query.flow for query in corpus[:16]]
    centers = list(pretrained.clustering.center_graphs)

    records = pretrained.records_by_cluster[0][:16]
    samples = [pretrained.sample_for(record) for record in records]
    encoder = pretrained.encoders[0]

    return PerfFixtures(
        assign_flows=assign_flows,
        centers=centers,
        encoder=encoder,
        samples=samples,
    )
