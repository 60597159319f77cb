"""Persistence for histories and pre-trained StreamTune artifacts.

Pre-training is the expensive phase (§V-G, Fig. 9b), so a production
deployment trains once and serves many tuning sessions.  This module
saves/loads:

* execution histories — JSON lines (one record per line, append-friendly),
* pre-trained artifacts — a directory with the clustering metadata (JSON)
  and every encoder's weights (``.npz``).

Loaded artifacts are bit-identical in behaviour: encoder weights, cluster
centers and per-cluster record sets round-trip exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.clustering.kmeans import ClusteringResult
from repro.core.history import ExecutionRecord
from repro.core.pretrain import PretrainedStreamTune
from repro.dataflow.embeddings import (
    BUILTIN_PROPERTIES,
    OperatorProperties,
    OperatorTaxonomy,
    SemanticFeatureEncoder,
)
from repro.dataflow.features import FeatureEncoder
from repro.dataflow.graph import LogicalDataflow
from repro.ged.search import GEDCache
from repro.gnn.model import BottleneckGNN, EncoderConfig
from repro.gnn.train import TrainingReport


# ----------------------------------------------------------------------
# feature encoders
# ----------------------------------------------------------------------

def encoder_to_dict(encoder: FeatureEncoder) -> dict:
    """Serialise a feature encoder (kind, ceilings, custom taxonomy)."""
    meta = {
        "kind": "one-hot",
        "max_window_length": encoder.max_window_length,
        "max_tuple_width": encoder.max_tuple_width,
        "max_source_rate": encoder.max_source_rate,
    }
    if isinstance(encoder, SemanticFeatureEncoder):
        meta["kind"] = "semantic"
        meta["custom_kinds"] = {
            kind: encoder.taxonomy.properties_for(kind).as_dict()
            for kind in encoder.taxonomy.kinds
            if kind not in BUILTIN_PROPERTIES
        }
    return meta


def encoder_from_dict(meta: dict) -> FeatureEncoder:
    """Restore a feature encoder saved by :func:`encoder_to_dict`."""
    ceilings = {
        "max_window_length": meta["max_window_length"],
        "max_tuple_width": meta["max_tuple_width"],
        "max_source_rate": meta["max_source_rate"],
    }
    if meta["kind"] == "one-hot":
        return FeatureEncoder(**ceilings)
    if meta["kind"] == "semantic":
        taxonomy = OperatorTaxonomy()
        for kind, properties in meta.get("custom_kinds", {}).items():
            taxonomy.register(kind, OperatorProperties(**properties))
        return SemanticFeatureEncoder(taxonomy=taxonomy, **ceilings)
    raise ValueError(f"unknown feature-encoder kind {meta['kind']!r}")


# ----------------------------------------------------------------------
# histories
# ----------------------------------------------------------------------

def save_history(records: list[ExecutionRecord], path: str | Path) -> None:
    """Write records as JSON lines."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.to_dict()) + "\n")


def load_history(path: str | Path) -> list[ExecutionRecord]:
    """Read records written by :func:`save_history`."""
    records = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(ExecutionRecord.from_dict(json.loads(line)))
    return records


# ----------------------------------------------------------------------
# GNN weights
# ----------------------------------------------------------------------

def _model_arrays(model: BottleneckGNN) -> dict[str, np.ndarray]:
    return {f"p{i}": parameter.value for i, parameter in enumerate(model.parameters())}


def save_model(model: BottleneckGNN, path: str | Path) -> None:
    """Serialise a bottleneck GNN (config as JSON metadata + weights)."""
    path = Path(path)
    config = model.config
    meta = {
        "input_dim": config.input_dim,
        "hidden_dim": config.hidden_dim,
        "n_message_passing": config.n_message_passing,
        "head_hidden_dim": config.head_hidden_dim,
        "jumping_knowledge": config.jumping_knowledge,
        "fuse_per_step": config.fuse_per_step,
        "seed": config.seed,
    }
    np.savez(
        path,
        __config__=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        **_model_arrays(model),
    )


def load_model(path: str | Path) -> BottleneckGNN:
    """Restore a bottleneck GNN saved by :func:`save_model`."""
    data = np.load(Path(path))
    meta = json.loads(bytes(data["__config__"]).decode("utf-8"))
    model = BottleneckGNN(EncoderConfig(**meta))
    parameters = model.parameters()
    for i, parameter in enumerate(parameters):
        stored = data[f"p{i}"]
        if stored.shape != parameter.value.shape:
            raise ValueError(
                f"weight {i} shape mismatch: stored {stored.shape}, "
                f"expected {parameter.value.shape}"
            )
        parameter.value[...] = stored
    return model


# ----------------------------------------------------------------------
# full pre-trained artifacts
# ----------------------------------------------------------------------

def save_pretrained(artifact: PretrainedStreamTune, directory: str | Path) -> None:
    """Write a pre-trained StreamTune artifact into ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    meta = {
        "n_clusters": artifact.n_clusters,
        "max_parallelism": artifact.max_parallelism,
        "center_graphs": [g.to_dict() for g in artifact.clustering.center_graphs],
        "assignments": artifact.clustering.assignments,
        "inertia": artifact.clustering.inertia,
        "accuracies": [report.final_accuracy for report in artifact.reports],
        "feature_encoder": encoder_to_dict(artifact.feature_encoder),
    }
    (directory / "meta.json").write_text(json.dumps(meta), encoding="utf-8")

    for cluster in range(artifact.n_clusters):
        save_model(artifact.encoders[cluster], directory / f"encoder_{cluster}.npz")
        save_history(
            artifact.records_by_cluster[cluster],
            directory / f"records_{cluster}.jsonl",
        )


def load_pretrained(directory: str | Path) -> PretrainedStreamTune:
    """Restore an artifact saved by :func:`save_pretrained`."""
    directory = Path(directory)
    meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))

    encoders = []
    records_by_cluster = []
    reports = []
    for cluster in range(meta["n_clusters"]):
        encoders.append(load_model(directory / f"encoder_{cluster}.npz"))
        records_by_cluster.append(load_history(directory / f"records_{cluster}.jsonl"))
        reports.append(TrainingReport([float("nan")], [meta["accuracies"][cluster]]))

    all_records = [record for cluster in records_by_cluster for record in cluster]
    clustering = ClusteringResult(
        graphs=[record.flow for record in all_records],
        assignments=[
            cluster
            for cluster, records in enumerate(records_by_cluster)
            for _ in records
        ],
        center_graphs=[
            LogicalDataflow.from_dict(data) for data in meta["center_graphs"]
        ],
        inertia=meta["inertia"],
        n_iterations=0,
        cache=GEDCache(),
    )
    if "feature_encoder" in meta:
        feature_encoder = encoder_from_dict(meta["feature_encoder"])
    else:
        # Artifacts written before encoder metadata existed used one-hot.
        feature_encoder = FeatureEncoder()
    return PretrainedStreamTune(
        clustering=clustering,
        encoders=encoders,
        records_by_cluster=records_by_cluster,
        reports=reports,
        feature_encoder=feature_encoder,
        max_parallelism=meta["max_parallelism"],
    )
