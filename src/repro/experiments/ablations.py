"""Extended ablations beyond the paper's Fig. 11.

The paper ablates the prediction layer (Fig. 11a) and the similarity-center
search (Fig. 11b).  This module quantifies four further load-bearing design
choices the paper does not itself ablate, plus the §VII unseen-operator
study:

* :func:`run_fuse_ablation` — FUSE placement: parallelism injected once
  after the readout (default) versus at every message-passing step (the
  literal Eq. 3 reading).
* :func:`run_clustering_ablation` — GED clustering versus the §VII
  global-encoder bypass (k = 1).
* :func:`run_warmup_ablation` — Algorithm 2's warm-up dataset T on/off.
* :func:`run_threshold_sweep` — sensitivity to the conservative decision
  threshold of the fine-tuned layer.
* :func:`run_model_zoo` — the Fig. 11a comparison extended with the
  isotonic k-NN model (monotone by construction).
* :func:`run_encoder_ablation` — one-hot versus semantic (embedding-based)
  operator features on an operator kind *held out* of pre-training.

Every study returns plain dataclass rows; :func:`main` prints one table per
study and :func:`claims` states what each must show.  All use deliberately
small sub-scales: ablations compare variants under identical budgets, so
the budget itself only needs to be large enough to separate them — and the
claims are deliberately loose for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.history import ExecutionRecord
from repro.core.pretrain import PretrainedStreamTune, pretrain
from repro.core.tuner import StreamTuneTuner
from repro.dataflow.embeddings import SemanticFeatureEncoder
from repro.dataflow.features import FeatureEncoder
from repro.dataflow.operators import OperatorType
from repro.experiments import context
from repro.experiments.campaigns import run_campaign
from repro.experiments.claims import Claim
from repro.experiments.scale import ExperimentScale, resolve_scale
from repro.utils.tables import format_table
from repro.utils.timer import Timer

#: Records used by ablation pre-training (kept small on purpose).
ABLATION_HISTORY = {"smoke": 500, "default": 1200, "paper": 3000}

#: Encoder epochs per ablation variant.
ABLATION_EPOCHS = {"smoke": 8, "default": 20, "paper": 40}

#: Rate multipliers driven through ablation tuning trials.
ABLATION_MULTIPLIERS = {"smoke": [3, 10], "default": [3, 7, 10], "paper": [3, 7, 4, 2, 10]}

#: Decision thresholds swept by :func:`run_threshold_sweep`.
THRESHOLDS = (0.2, 0.35, 0.5)

#: Operator kind held out of pre-training by :func:`run_encoder_ablation`.
#: The incremental join appears in only ~2 of 61 corpus queries, so
#: censoring it keeps pre-training representative while its behavioural
#: neighbours (window join, window aggregate) stay abundant — the setting
#: where §VII's semantic transfer can actually be observed.
HELDOUT_TYPE = OperatorType.JOIN

#: The share of the ablation history a pre-trained variant trains on; the
#: rest is held out.
TRAIN_FRACTION = 0.8


def _ablation_history(scale: ExperimentScale) -> list[ExecutionRecord]:
    limit = ABLATION_HISTORY[scale.name]
    return context.history("flink", scale)[:limit]


def _holdout_split(
    records: list[ExecutionRecord],
) -> tuple[list[ExecutionRecord], list[ExecutionRecord]]:
    cut = max(1, int(len(records) * TRAIN_FRACTION))
    return records[:cut], records[cut:]


def _pretrain_variant(
    scale: ExperimentScale,
    records: list[ExecutionRecord],
    *,
    n_clusters: int,
    fuse_per_step: bool = False,
    feature_encoder: FeatureEncoder | None = None,
    seed_offset: int = 0,
) -> PretrainedStreamTune:
    return pretrain(
        records,
        max_parallelism=context.make_engine("flink", scale).max_parallelism,
        n_clusters=n_clusters,
        epochs=ABLATION_EPOCHS[scale.name],
        seed=scale.seed + 40 + seed_offset,
        feature_encoder=feature_encoder,
        fuse_per_step=fuse_per_step,
    )


def _holdout_accuracy(
    model: PretrainedStreamTune, holdout: list[ExecutionRecord]
) -> float:
    """Accuracy of each record's assigned-cluster encoder on that record."""
    n_correct = 0
    n_total = 0
    for record in holdout:
        _, encoder = model.encoder_for(record.flow)
        sample = model.sample_for(record)
        if sample.n_labelled == 0:
            continue
        probabilities = encoder.predict_probabilities(sample, parallelism_aware=True)
        predictions = (probabilities > 0.5)[sample.mask]
        truth = sample.labels[sample.mask] == 1
        n_correct += int((predictions == truth).sum())
        n_total += sample.n_labelled
    return n_correct / max(n_total, 1)


# ----------------------------------------------------------------------
# FUSE placement
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FuseAblationRow:
    variant: str
    train_accuracy: float
    holdout_accuracy: float
    train_seconds: float


def run_fuse_ablation(scale: ExperimentScale | None = None) -> list[FuseAblationRow]:
    """Post-readout FUSE (default) versus per-step FUSE (literal Eq. 3)."""
    scale = scale or resolve_scale()
    train, holdout = _holdout_split(_ablation_history(scale))
    rows = []
    for variant, per_step in (("post-readout", False), ("per-step", True)):
        with Timer() as timer:
            model = _pretrain_variant(
                scale, train, n_clusters=1, fuse_per_step=per_step, seed_offset=1
            )
        rows.append(
            FuseAblationRow(
                variant=variant,
                train_accuracy=model.reports[0].final_accuracy,
                holdout_accuracy=_holdout_accuracy(model, holdout),
                train_seconds=timer.elapsed,
            )
        )
    return rows


# ----------------------------------------------------------------------
# tuning studies: one campaign per variant
# ----------------------------------------------------------------------

def _campaign(
    scale: ExperimentScale,
    model: PretrainedStreamTune,
    group: str,
    seed_offset: int,
    **tuner_params,
):
    """StreamTune on a fresh engine through the ablation rate changes, on
    the first evaluation query of ``group``."""
    engine = context.make_engine("flink", scale)
    tuner = StreamTuneTuner(engine, model, seed=scale.seed + seed_offset, **tuner_params)
    query = context.evaluation_queries("flink", scale)[group][0]
    return run_campaign(engine, tuner, query, ABLATION_MULTIPLIERS[scale.name])


def _global_encoder(scale: ExperimentScale, seed_offset: int) -> PretrainedStreamTune:
    """One k = 1 encoder pre-trained on the ablation training split."""
    train, _ = _holdout_split(_ablation_history(scale))
    return _pretrain_variant(scale, train, n_clusters=1, seed_offset=seed_offset)


@dataclass(frozen=True)
class ClusteringAblationRow:
    variant: str
    n_clusters: int
    holdout_accuracy: float
    avg_reconfigurations: float
    backpressure_events: int


def run_clustering_ablation(
    scale: ExperimentScale | None = None,
) -> list[ClusteringAblationRow]:
    """GED-clustered encoders versus the §VII single global encoder.

    Both variants pre-train on the same records and then tune the same
    PQP linear query through the same rate changes.
    """
    scale = scale or resolve_scale()
    train, holdout = _holdout_split(_ablation_history(scale))
    rows = []
    clustered_k = scale.n_clusters or 3
    for variant, k in (("global (k=1)", 1), (f"clustered (k={clustered_k})", clustered_k)):
        model = _pretrain_variant(scale, train, n_clusters=k, seed_offset=2)
        result = _campaign(scale, model, "linear", 5)
        rows.append(
            ClusteringAblationRow(
                variant=variant,
                n_clusters=model.n_clusters,
                holdout_accuracy=_holdout_accuracy(model, holdout),
                avg_reconfigurations=result.average_reconfigurations,
                backpressure_events=result.total_backpressure_events,
            )
        )
    return rows


@dataclass(frozen=True)
class WarmupAblationRow:
    variant: str
    warmup_rows: int
    avg_reconfigurations: float
    backpressure_events: int
    final_parallelism: float


def run_warmup_ablation(scale: ExperimentScale | None = None) -> list[WarmupAblationRow]:
    """Algorithm 2's warm-up dataset on versus off.

    Without warm-up, M_f starts from nothing each campaign and the first
    recommendations lean on the distilled prior alone.
    """
    scale = scale or resolve_scale()
    model = _global_encoder(scale, 3)
    rows = []
    for variant, warmup_rows in (("no warm-up", 0), ("warm-up (default)", 300)):
        result = _campaign(scale, model, "2-way-join", 6, warmup_rows=warmup_rows)
        rows.append(
            WarmupAblationRow(
                variant=variant,
                warmup_rows=warmup_rows,
                avg_reconfigurations=result.average_reconfigurations,
                backpressure_events=result.total_backpressure_events,
                final_parallelism=result.final_parallelism_at(
                    ABLATION_MULTIPLIERS[scale.name][-1]
                ),
            )
        )
    return rows


@dataclass(frozen=True)
class ThresholdRow:
    threshold: float
    final_parallelism: float
    avg_reconfigurations: float
    backpressure_events: int


def run_threshold_sweep(scale: ExperimentScale | None = None) -> list[ThresholdRow]:
    """Sweep M_f's decision threshold (default 0.35).

    Lower thresholds demand stronger evidence of safety before accepting a
    degree, trading extra parallelism for backpressure robustness.
    """
    scale = scale or resolve_scale()
    model = _global_encoder(scale, 4)
    rows = []
    for threshold in THRESHOLDS:
        result = _campaign(scale, model, "linear", 7, probability_threshold=threshold)
        rows.append(
            ThresholdRow(
                threshold=threshold,
                final_parallelism=result.final_parallelism_at(
                    ABLATION_MULTIPLIERS[scale.name][-1]
                ),
                avg_reconfigurations=result.average_reconfigurations,
                backpressure_events=result.total_backpressure_events,
            )
        )
    return rows


@dataclass(frozen=True)
class ModelZooRow:
    model_kind: str
    monotone: bool
    avg_reconfigurations: float
    backpressure_events: int


def run_model_zoo(scale: ExperimentScale | None = None) -> list[ModelZooRow]:
    """SVM / XGBoost / isotonic k-NN / plain NN as the fine-tuning layer
    (Fig. 11a extended)."""
    scale = scale or resolve_scale()
    model = _global_encoder(scale, 5)
    rows = []
    for model_kind, monotone in (
        ("svm", True),
        ("xgboost", True),
        ("isotonic", True),
        ("nn", False),
    ):
        result = _campaign(scale, model, "q5", 8, model_kind=model_kind)
        rows.append(
            ModelZooRow(
                model_kind=model_kind,
                monotone=monotone,
                avg_reconfigurations=result.average_reconfigurations,
                backpressure_events=result.total_backpressure_events,
            )
        )
    return rows


# ----------------------------------------------------------------------
# unseen-operator encoder study (§VII)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EncoderAblationRow:
    encoder: str
    heldout_accuracy: float
    heldout_bce: float
    heldout_auc: float
    n_heldout_operators: int


def ranking_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve (probability a positive outranks a negative).

    Algorithm 2 consumes the prediction through a threshold search, so
    *ranking* quality — not absolute calibration — is what decides the
    recommended degrees.  Returns NaN when one class is absent.
    """
    positives = scores[labels == 1]
    negatives = scores[labels == 0]
    if len(positives) == 0 or len(negatives) == 0:
        return float("nan")
    wins = 0.0
    for positive in positives:
        wins += float(np.sum(positive > negatives))
        wins += 0.5 * float(np.sum(positive == negatives))
    return wins / (len(positives) * len(negatives))


#: Stress-sweep grid for the held-out evaluation set.
HELDOUT_SWEEP_MULTIPLIERS = (2, 4, 6, 8, 10)
HELDOUT_SWEEP_DEGREES = (1, 2, 3, 4, 6)
#: Degree given to every operator that is *not* of the held-out kind, so
#: saturation (and Algorithm 1's attribution) lands on the held-out kind.
HELDOUT_SUPPORT_DEGREE = 16


def _contains_heldout(record: ExecutionRecord) -> bool:
    return any(spec.op_type is HELDOUT_TYPE for spec in record.flow)


def heldout_evaluation_records(scale: ExperimentScale) -> list[ExecutionRecord]:
    """Labelled stress runs of the held-out-kind queries.

    Random histories over-provision most operators, so held-out kinds are
    rarely labelled 1 and any encoder scores well by predicting "safe".
    The evaluation set therefore *sweeps* the held-out operators' degree
    across a low grid while every other operator gets a generous degree —
    the saturation (and Algorithm 1's bottleneck attribution) can only
    land on the held-out kind, producing both label classes by design.
    """
    from repro.core.labeling import label_operators

    queries = [
        query
        for query in context.corpus("flink")
        if any(spec.op_type is HELDOUT_TYPE for spec in query.flow)
    ]
    if not queries:
        raise ValueError("corpus contains no held-out-kind queries")
    engine = context.make_engine("flink", scale)
    records: list[ExecutionRecord] = []
    for query in queries:
        for multiplier in HELDOUT_SWEEP_MULTIPLIERS:
            for degree in HELDOUT_SWEEP_DEGREES:
                source_rates = query.rates_at(multiplier)
                parallelisms = {
                    spec.name: (
                        degree
                        if spec.op_type is HELDOUT_TYPE
                        else HELDOUT_SUPPORT_DEGREE
                    )
                    for spec in query.flow
                }
                deployment = engine.deploy(query.flow, parallelisms, source_rates)
                telemetry = engine.measure(deployment)
                labels = label_operators(query.flow, telemetry, engine.name)
                records.append(
                    ExecutionRecord(
                        flow=query.flow,
                        source_rates=source_rates,
                        parallelisms=parallelisms,
                        labels=labels,
                        engine_name=engine.name,
                        has_backpressure=telemetry.has_backpressure,
                        job_latency_seconds=telemetry.job_latency_seconds,
                        query_name=query.name,
                        cpu_loads={
                            name: metrics.cpu_load
                            for name, metrics in telemetry.operators.items()
                        },
                    )
                )
                engine.stop(deployment)
    return records


def _heldout_scores(
    model: PretrainedStreamTune, records: list[ExecutionRecord]
) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities and labels for held-out-kind operators only."""
    scores: list[float] = []
    labels: list[int] = []
    for record in records:
        _, encoder = model.encoder_for(record.flow)
        sample = model.sample_for(record)
        probabilities = encoder.predict_probabilities(sample, parallelism_aware=True)
        for index, name in enumerate(sample.node_names):
            spec = record.flow.operator(name)
            if spec.op_type is not HELDOUT_TYPE:
                continue
            label = record.labels.get(name, -1)
            if label < 0:
                continue
            scores.append(float(probabilities[index]))
            labels.append(int(label))
    return np.asarray(scores), np.asarray(labels, dtype=np.float64)


def run_encoder_ablation(
    scale: ExperimentScale | None = None,
) -> list[EncoderAblationRow]:
    """One-hot versus semantic features on a held-out operator kind.

    Pre-training sees no dataflow containing :data:`HELDOUT_TYPE`;
    evaluation scores only operators of that kind.  The one-hot encoder's
    column for the kind is untrained; the semantic encoder places the kind
    between its behavioural neighbours (``window_join``,
    ``window_aggregate``), so its bottleneck surface extends to it.

    Report both calibration (BCE) and ranking (AUC): the tuner's
    threshold search depends on ranking, and an interesting *negative*
    result is possible — Table I's shared features (window config, tuple
    widths, rates) may already carry most of the transfer, leaving little
    headroom for the semantic block.
    """
    scale = scale or resolve_scale()
    records = _ablation_history(scale)
    train = [record for record in records if not _contains_heldout(record)]
    heldout = heldout_evaluation_records(scale)
    if not heldout:
        raise ValueError("ablation history contains no held-out-kind records")
    rows = []
    for name, feature_encoder in (
        ("one-hot", FeatureEncoder()),
        ("semantic", SemanticFeatureEncoder()),
    ):
        model = _pretrain_variant(
            scale,
            train,
            n_clusters=1,
            feature_encoder=feature_encoder,
            seed_offset=6,
        )
        scores, labels = _heldout_scores(model, heldout)
        clipped = np.clip(scores, 1e-9, 1 - 1e-9)
        bce = float(
            -np.mean(labels * np.log(clipped) + (1 - labels) * np.log(1 - clipped))
        )
        accuracy = float(((scores > 0.5) == (labels == 1)).mean())
        rows.append(
            EncoderAblationRow(
                encoder=name,
                heldout_accuracy=accuracy,
                heldout_bce=bce,
                heldout_auc=ranking_auc(scores, labels),
                n_heldout_operators=len(labels),
            )
        )
    return rows


# ----------------------------------------------------------------------
# claims and printers
# ----------------------------------------------------------------------

def claims(results: dict[str, list], scale: ExperimentScale) -> list[Claim]:
    """What each study must show, on the rows :func:`main` returns."""
    rows: list[Claim] = []

    def variants(study: str, field: str, designed) -> dict:
        found = {getattr(row, field): row for row in results[study]}
        rows.append(Claim(f"ablations/{study}/variants-as-designed",
                          len(set(found) ^ set(designed)), "==", 0))
        return found

    for variant, row in variants("fuse", "variant", ("post-readout", "per-step")).items():
        rows += [
            Claim(f"ablations/fuse/train-accuracy>=0.5/{variant}",
                  row.train_accuracy, ">=", 0.5),
            Claim(f"ablations/fuse/train-accuracy<=1/{variant}",
                  row.train_accuracy, "<=", 1.0),
        ]
    clustered = {row.n_clusters > 1: row for row in results["clustering"]}
    warmup = variants("warmup", "warmup_rows", (0, 300))
    threshold = variants("threshold", "threshold", THRESHOLDS)
    zoo = variants("zoo", "model_kind", ("svm", "xgboost", "isotonic", "nn"))
    encoder = variants("encoder", "encoder", ("one-hot", "semantic"))
    return rows + [
        Claim("ablations/clustering/two-variants", len(results["clustering"]), "==", 2),
        # Both variants must tune successfully; clustering should not be
        # dramatically worse than the global bypass on its own history.
        Claim("ablations/clustering/clustered>=global-0.15",
              clustered[True].holdout_accuracy, ">=",
              clustered[False].holdout_accuracy - 0.15),
        # The warm-up should never hurt convergence badly.
        Claim("ablations/warmup/with<=without+1.5", warmup[300].avg_reconfigurations,
              "<=", warmup[0].avg_reconfigurations + 1.5),
        # More conservative thresholds can only need >= as much
        # parallelism (within one task of noise).
        Claim("ablations/threshold/conservative>=permissive-1",
              threshold[THRESHOLDS[0]].final_parallelism, ">=",
              threshold[THRESHOLDS[-1]].final_parallelism - 1),
        # The unconstrained NN must not beat every monotone model on
        # backpressure avoidance (the paper's Fig. 11a story).
        Claim("ablations/zoo/nn>=best-monotone", zoo["nn"].backpressure_events, ">=",
              min(zoo[kind].backpressure_events for kind in ("svm", "xgboost", "isotonic"))),
        Claim("ablations/encoder/heldout-operators>0",
              encoder["semantic"].n_heldout_operators, ">", 0),
        # What the tuner consumes is the ranking: both encoders must order
        # bottleneck configurations above safe ones on the unseen kind.
        # (The *calibration* comparison is an honest negative result —
        # Table I's shared features already transfer.)
        Claim("ablations/encoder/semantic>=one-hot-0.3", encoder["semantic"].heldout_auc,
              ">=", encoder["one-hot"].heldout_auc - 0.3),
    ] + [
        Claim(f"ablations/encoder/heldout-auc>=0.6/{name}", row.heldout_auc, ">=", 0.6)
        for name, row in encoder.items()
    ]


#: One row per study: result key, runner, table title, headers, row cells.
STUDIES = (
    ("fuse", run_fuse_ablation, "Ablation - FUSE placement (Eq. 3 reading)",
     ["FUSE placement", "train acc", "holdout acc", "train (s)"],
     lambda r: (r.variant, f"{r.train_accuracy:.3f}", f"{r.holdout_accuracy:.3f}",
                f"{r.train_seconds:.1f}")),
    ("clustering", run_clustering_ablation, "Ablation - GED clustering vs global encoder (SVII)",
     ["variant", "k", "holdout acc", "avg reconfigs", "backpressure"],
     lambda r: (r.variant, r.n_clusters, f"{r.holdout_accuracy:.3f}",
                f"{r.avg_reconfigurations:.2f}", r.backpressure_events)),
    ("warmup", run_warmup_ablation, "Ablation - warm-up dataset",
     ["variant", "rows", "avg reconfigs", "backpressure", "final ||ism"],
     lambda r: (r.variant, r.warmup_rows, f"{r.avg_reconfigurations:.2f}",
                r.backpressure_events, f"{r.final_parallelism:.0f}")),
    ("threshold", run_threshold_sweep, "Ablation - decision-threshold sensitivity",
     ["threshold", "final ||ism", "avg reconfigs", "backpressure"],
     lambda r: (f"{r.threshold:.2f}", f"{r.final_parallelism:.0f}",
                f"{r.avg_reconfigurations:.2f}", r.backpressure_events)),
    ("zoo", run_model_zoo, "Ablation - prediction-layer zoo (Fig. 11a extended)",
     ["model", "monotone", "avg reconfigs", "backpressure"],
     lambda r: (r.model_kind, "yes" if r.monotone else "no",
                f"{r.avg_reconfigurations:.2f}", r.backpressure_events)),
    ("encoder", run_encoder_ablation,
     "Ablation - unseen operator kind (SVII): one-hot vs semantic",
     ["features", "holdout acc", "holdout BCE", "holdout AUC", "# operators"],
     lambda r: (r.encoder, f"{r.heldout_accuracy:.3f}", f"{r.heldout_bce:.3f}",
                f"{r.heldout_auc:.3f}", r.n_heldout_operators)),
)


def main(scale: ExperimentScale | None = None) -> dict[str, list]:
    """Run every extended ablation and print one table per study."""
    scale = scale or resolve_scale()
    results: dict[str, list] = {}
    for key, run, title, headers, cells in STUDIES:
        results[key] = run(scale)
        print(format_table(headers, [cells(row) for row in results[key]], title=title))
        print()
    return results


if __name__ == "__main__":
    main()
