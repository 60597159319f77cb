"""Warm-up dataset construction for the fine-tuned prediction layer.

Algorithm 2, line 3: before online tuning begins, a warm-up training set T
is assembled by sampling dataflows from the target job's cluster, encoding
their operators with the frozen cluster encoder (**parallelism-agnostic**
path — parallelism enters M_f as an explicit feature, not through FUSE),
and pairing each labelled operator's ``[h_v, p_v]`` with its Algorithm 1
label.  Online feedback (ΔT) extends the same dataset between iterations.

Beyond the recorded labels, T is densified by **distilling the pre-trained
GNN**: for sampled cluster dataflows the parallelism-aware GNN is probed
over a grid of candidate degrees and its predictions become soft training
rows for M_f.  This is the mechanism that actually transfers the encoder's
"coarse correlation between parallelism degree and operator-level
performance" (paper §I, S1) into the lightweight monotone layer — raw
histories alone contain only the operating points that happened to be
deployed, far too sparse along the parallelism axis for a threshold model.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.history import ExecutionRecord
from repro.core.pretrain import PretrainedStreamTune
from repro.utils.rng import seeded_rng


@dataclass
class PredictionDataset:
    """Training rows for M_f: features ``[h_v, p_norm]`` and 0/1 labels."""

    features: list[np.ndarray] = field(default_factory=list)
    labels: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.labels)

    def append(self, feature_row: np.ndarray, label: int) -> None:
        if label not in (0, 1):
            raise ValueError("M_f rows must carry definite 0/1 labels")
        self.features.append(np.asarray(feature_row, dtype=np.float64))
        self.labels.append(label)

    def extend(self, other: "PredictionDataset") -> None:
        self.features.extend(other.features)
        self.labels.extend(other.labels)

    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.labels:
            raise ValueError("dataset is empty")
        return np.stack(self.features), np.asarray(self.labels, dtype=np.int64)


#: Geometric grid of parallelism degrees probed during distillation.
DISTILLATION_GRID = (1, 2, 3, 4, 6, 8, 11, 16, 22, 32, 45, 60)

#: How many sampled dataflows of a cluster the warm-up set distils.
N_DISTILL_RECORDS = 8


def shared_structure_key(flow, cluster: int, source_rates: dict[str, float]) -> tuple:
    """The cross-query cache identity of rate-conditioned pure values.

    Distilled operating points and parallelism-agnostic embeddings are pure
    functions of ``(cluster encoder, dataflow structure, source rates)`` —
    the query's *name* never enters the computation.  Keying the cache
    sections on the full-fidelity :meth:`LogicalDataflow.tuning_signature`
    (instead of ``flow.name``) lets every campaign over a structurally
    identical dataflow share one entry.  Source rates are canonicalised to
    topological operator indices so renamed-but-identical flows agree on
    the key; rates for operators the flow does not contain cannot affect
    the encoding and are excluded.
    """
    order = flow.topological_order()
    index = {name: position for position, name in enumerate(order)}
    rates = tuple(
        sorted(
            (index[name], float(rate))
            for name, rate in source_rates.items()
            if name in index
        )
    )
    return (cluster, flow.tuning_signature(), rates)


def cluster_history_signature(
    pretrained: PretrainedStreamTune, cluster: int
) -> str:
    """A content hash identifying everything a warm-up dataset depends on.

    :func:`build_warmup_dataset` is a pure function of the cluster's
    frozen encoder, its member histories, and the feature encoding — not
    of the pretrain-run-local cluster *id*.  Hashing the encoder's weight
    bytes together with every member record's content (flow structure,
    rates, parallelisms, labels) yields a key under which two pretrained
    artifacts collide exactly when their warm-up datasets would be
    bit-identical — so warm-up caches (and their snapshots) are shareable
    across runs, like PR 5 made ``distill``/``embed`` entries.

    Signatures are memoized on the pretrained artifact; the encoder is
    frozen after pretraining, so the hash never goes stale.
    """
    memo = getattr(pretrained, "_cluster_signatures", None)
    if memo is None:
        memo = {}
        pretrained._cluster_signatures = memo
    cached = memo.get(cluster)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for parameter in pretrained.encoders[cluster].parameters():
        digest.update(np.ascontiguousarray(parameter.value).tobytes())
    digest.update(str(pretrained.max_parallelism).encode())
    for record in pretrained.records_by_cluster[cluster]:
        digest.update(record.flow.tuning_signature().encode())
        for name, rate in sorted(record.source_rates.items()):
            digest.update(f"{name}={rate!r};".encode())
        for name, degree in sorted(record.parallelisms.items()):
            digest.update(f"{name}:{degree};".encode())
        for name, label in sorted(record.labels.items()):
            digest.update(f"{name}>{label};".encode())
    signature = digest.hexdigest()
    memo[cluster] = signature
    return signature


def warmup_cache_key(
    pretrained: PretrainedStreamTune,
    cluster: int,
    max_rows: int,
    seed: int | None,
) -> tuple:
    """The cross-run cache identity of one warm-up dataset.

    Keyed by the cluster's *history signature* rather than its id: ids
    are an artifact of one pretraining run's cluster ordering, while the
    signature names the actual inputs of the computation.
    """
    return (cluster_history_signature(pretrained, cluster), max_rows, seed)


def agnostic_embeddings(
    pretrained: PretrainedStreamTune,
    encoder,
    flow,
    source_rates: dict[str, float],
) -> np.ndarray:
    """Parallelism-agnostic operator embeddings under ``source_rates``.

    One row per operator in topological order (``flow.topological_order()``
    — the same order :func:`~repro.dataflow.features.FeatureEncoder.
    encode_dataflow` emits), so callers recover the name mapping from the
    flow without re-encoding.
    """
    from repro.gnn.data import build_sample  # local import to avoid a cycle

    placeholder = dict.fromkeys(flow.operator_names, 1)
    sample = build_sample(
        flow,
        source_rates,
        placeholder,
        labels={},
        encoder=pretrained.feature_encoder,
        max_parallelism=pretrained.max_parallelism,
    )
    return encoder.encode(sample, parallelism_aware=False)


def distill_rows(
    pretrained: PretrainedStreamTune,
    encoder,
    flow,
    source_rates: dict[str, float],
) -> PredictionDataset:
    """Probe the GNN across a parallelism grid and emit soft-label rows.

    With FUSE applied after encoding (the default architecture), a node's
    parallelism-aware prediction depends only on its *own* degree, so one
    forward pass with a uniform degree ``p`` yields every operator's
    prediction at ``p``.
    """
    from repro.gnn.data import build_sample  # local import to avoid a cycle

    placeholder = dict.fromkeys(flow.operator_names, 1)
    sample = build_sample(
        flow,
        source_rates,
        placeholder,
        labels={},
        encoder=pretrained.feature_encoder,
        max_parallelism=pretrained.max_parallelism,
    )
    embeddings = encoder.encode(sample, parallelism_aware=False)
    degrees = [d for d in DISTILLATION_GRID if d <= pretrained.max_parallelism]
    p_norms = np.array(
        [
            pretrained.feature_encoder.normalize_parallelism(
                degree, pretrained.max_parallelism
            )
            for degree in degrees
        ]
    )
    # The embeddings are the readout the whole degree grid shares
    # (fuse-after-readout makes the message-passing state degree-independent).
    probability_grid = encoder.predict_probabilities_grid(sample, p_norms, embeddings)
    rows = PredictionDataset()
    for grid_index, p_norm in enumerate(p_norms):
        probabilities = probability_grid[grid_index]
        for index in range(sample.n_nodes):
            rows.append(
                np.concatenate([embeddings[index], [p_norm]]),
                int(probabilities[index] > 0.5),
            )
    return rows


def _labelled_rows(
    pretrained: PretrainedStreamTune, record: ExecutionRecord, sample, embeddings
) -> PredictionDataset:
    """``[h_v, p_norm]`` rows of one encoded record's labelled operators."""
    rows = PredictionDataset()
    for index, name in enumerate(sample.node_names):
        label = record.labels.get(name, -1)
        if label < 0:
            continue
        p_norm = pretrained.feature_encoder.normalize_parallelism(
            record.parallelisms[name], pretrained.max_parallelism
        )
        rows.append(np.concatenate([embeddings[index], [p_norm]]), label)
    return rows


def build_warmup_dataset(
    pretrained: PretrainedStreamTune,
    cluster: int,
    max_rows: int = 600,
    seed: int | None = None,
) -> PredictionDataset:
    """Algorithm 2, line 3: sample the cluster's history into T.

    Recorded rows (real Algorithm 1 labels) come first; GNN-distilled rows
    over the parallelism grid of up to ``N_DISTILL_RECORDS`` sampled
    dataflows densify the parallelism axis.

    The selected records are embedded as one padded pack
    (:mod:`repro.gnn.batch`) — one encoder pass instead of one per
    record; rows equal a per-record ``encoder.encode`` pass's byte for
    byte, because padding adds only exact zeros to each graph's products.
    """
    from repro.gnn.batch import encode_samples

    if not 0 <= cluster < pretrained.n_clusters:
        raise ValueError(f"cluster {cluster} out of range")
    rng = seeded_rng(seed)
    encoder = pretrained.encoders[cluster]
    members = list(pretrained.records_by_cluster[cluster])
    order = rng.permutation(len(members))
    chosen: list[ExecutionRecord] = []
    n_rows = 0
    for index in order:
        record = members[index]
        chosen.append(record)
        n_rows += sum(1 for label in record.labels.values() if label >= 0)
        if n_rows >= max_rows:
            break
    samples = [pretrained.sample_for(record) for record in chosen]
    embedded = encode_samples(encoder, samples, parallelism_aware=False)
    dataset = PredictionDataset()
    for record, sample, embeddings in zip(chosen, samples, embedded):
        dataset.extend(_labelled_rows(pretrained, record, sample, embeddings))
    for index in order[:N_DISTILL_RECORDS]:
        record = members[index]
        dataset.extend(
            distill_rows(pretrained, encoder, record.flow, record.source_rates)
        )
    return dataset
