"""Offline pre-training (paper §III, §IV-A, §IV-C).

Pipeline: cluster the history's dataflow DAGs with GED k-means, then train
one GNN-based bottleneck encoder per cluster on the labelled records of
that cluster.  The result — :class:`PretrainedStreamTune` — is what the
online phase consumes: cluster assignment for a target job (Algorithm 2,
line 1) and the frozen per-cluster encoder (line 2).

The §VII "Limited Pre-training Dataset" fallback is supported by passing
``n_clusters=1``: clustering degenerates to a single global encoder.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.clustering.elbow import choose_k_elbow
from repro.clustering.kmeans import ClusteringResult, GEDKMeans
from repro.core.history import ExecutionRecord
from repro.dataflow.features import FeatureEncoder
from repro.dataflow.graph import LogicalDataflow
from repro.gnn.data import GraphSample, build_sample
from repro.gnn.model import BottleneckGNN, EncoderConfig
from repro.gnn.train import TrainingReport, train_bottleneck_gnn

#: The largest k the elbow method tries.
K_MAX = 6


@dataclass
class PretrainedStreamTune:
    """Everything the online fine-tuning phase retrieves."""

    clustering: ClusteringResult
    encoders: list[BottleneckGNN]
    records_by_cluster: list[list[ExecutionRecord]]
    reports: list[TrainingReport]
    feature_encoder: FeatureEncoder
    max_parallelism: int

    @property
    def n_clusters(self) -> int:
        return self.clustering.n_clusters

    def assign_cluster(self, flow: LogicalDataflow) -> int:
        """Algorithm 2, line 1: nearest cluster by GED to the centers."""
        return self.clustering.predict(flow)

    def encoder_for(self, flow: LogicalDataflow) -> tuple[int, BottleneckGNN]:
        """Algorithm 2, lines 1-2: cluster id and its pre-trained encoder."""
        cluster = self.assign_cluster(flow)
        return cluster, self.encoders[cluster]

    def sample_for(self, record: ExecutionRecord) -> GraphSample:
        """GNN-ready form of a history record under this model's encoding."""
        return build_sample(
            record.flow,
            record.source_rates,
            record.parallelisms,
            record.labels,
            encoder=self.feature_encoder,
            max_parallelism=self.max_parallelism,
        )


def pretrain(
    records: list[ExecutionRecord],
    max_parallelism: int,
    n_clusters: int | None = None,
    epochs: int = 40,
    seed: int = 7,
    feature_encoder: FeatureEncoder | None = None,
    fuse_per_step: bool = False,
) -> PretrainedStreamTune:
    """Cluster the history and pre-train one encoder per cluster.

    ``n_clusters=None`` selects k up to ``K_MAX`` by the elbow method
    (§V-A); pass an explicit value to pin it (1 = the §VII global-encoder
    bypass).
    ``fuse_per_step=True`` injects parallelism at every message-passing
    step (the literal Eq. 3 reading) instead of once after the readout —
    the FUSE-placement ablation
    (:func:`repro.experiments.ablations.run_fuse_ablation`).
    """
    if not records:
        raise ValueError("cannot pre-train on an empty history")
    feature_encoder = feature_encoder or FeatureEncoder()

    flows = [record.flow for record in records]
    if n_clusters is None:
        # The elbow has already fitted the chosen k with this seed.
        n_clusters, fits = choose_k_elbow(flows, k_max=K_MAX, seed=seed)
        clustering = fits[n_clusters - 1]
    else:
        clustering = GEDKMeans(n_clusters, seed=seed).fit(flows)

    encoders: list[BottleneckGNN] = []
    reports: list[TrainingReport] = []
    records_by_cluster: list[list[ExecutionRecord]] = []
    for cluster in range(clustering.n_clusters):
        members = [records[i] for i in clustering.members(cluster)]
        records_by_cluster.append(members)
        samples = [
            build_sample(
                record.flow,
                record.source_rates,
                record.parallelisms,
                record.labels,
                encoder=feature_encoder,
                max_parallelism=max_parallelism,
            )
            for record in members
        ]
        labelled = [s for s in samples if s.n_labelled > 0]
        if not labelled:
            raise ValueError(
                f"cluster {cluster} has no labelled records; "
                "generate a larger history"
            )
        config = EncoderConfig(
            input_dim=labelled[0].features.shape[1],
            fuse_per_step=fuse_per_step,
            seed=seed + cluster,
        )
        model, report = train_bottleneck_gnn(
            labelled, config=config, epochs=epochs, seed=seed + cluster
        )
        encoders.append(model)
        reports.append(report)

    return PretrainedStreamTune(
        clustering=clustering,
        encoders=encoders,
        records_by_cluster=records_by_cluster,
        reports=reports,
        feature_encoder=feature_encoder,
        max_parallelism=max_parallelism,
    )
