"""Extended ablation benches (DESIGN.md §6 + paper §VII).

Covers the design decisions the paper does not itself ablate: FUSE
placement, GED clustering versus a global encoder, the warm-up dataset,
the decision threshold, the extended prediction-layer zoo, and the
unseen-operator encoder study.  Shape assertions are deliberately loose —
ablations compare variants under identical small budgets.
"""

from __future__ import annotations

from repro.experiments import ablations


def test_fuse_ablation(benchmark, scale):
    rows = benchmark(ablations.run_fuse_ablation, scale)
    by_variant = {row.variant: row for row in rows}
    assert set(by_variant) == {"post-readout", "per-step"}
    for row in rows:
        assert 0.5 <= row.train_accuracy <= 1.0, row


def test_clustering_ablation(benchmark, scale):
    rows = benchmark(ablations.run_clustering_ablation, scale)
    assert len(rows) == 2
    global_row = next(row for row in rows if row.n_clusters == 1)
    clustered_row = next(row for row in rows if row.n_clusters > 1)
    # Both variants must tune successfully; clustering should not be
    # dramatically worse than the global bypass on its own history.
    assert clustered_row.holdout_accuracy >= global_row.holdout_accuracy - 0.15


def test_warmup_ablation(benchmark, scale):
    rows = benchmark(ablations.run_warmup_ablation, scale)
    by_variant = {row.warmup_rows: row for row in rows}
    assert set(by_variant) == {0, 300}
    # The warm-up should never hurt convergence badly.
    assert (
        by_variant[300].avg_reconfigurations
        <= by_variant[0].avg_reconfigurations + 1.5
    )


def test_threshold_sweep(benchmark, scale):
    rows = benchmark(ablations.run_threshold_sweep, scale)
    assert [row.threshold for row in rows] == list(ablations.THRESHOLDS)
    # More conservative thresholds can only need >= as much parallelism
    # (within one task of noise).
    conservative, default, permissive = rows
    assert conservative.final_parallelism >= permissive.final_parallelism - 1


def test_model_zoo(benchmark, scale):
    rows = benchmark(ablations.run_model_zoo, scale)
    by_kind = {row.model_kind: row for row in rows}
    assert set(by_kind) == {"svm", "xgboost", "isotonic", "nn"}
    monotone_bp = min(
        by_kind[kind].backpressure_events for kind in ("svm", "xgboost", "isotonic")
    )
    # The unconstrained NN must not beat every monotone model on
    # backpressure avoidance (the paper's Fig. 11a story).
    assert by_kind["nn"].backpressure_events >= monotone_bp


def test_encoder_ablation(benchmark, scale):
    rows = benchmark(ablations.run_encoder_ablation, scale)
    by_encoder = {row.encoder: row for row in rows}
    assert set(by_encoder) == {"one-hot", "semantic"}
    assert by_encoder["semantic"].n_heldout_operators > 0
    # What the tuner consumes is the ranking: both encoders must order
    # bottleneck configurations above safe ones on the unseen kind.  (The
    # *calibration* comparison is an honest negative result — Table I's
    # shared features already transfer.)
    for row in rows:
        assert row.heldout_auc >= 0.6, row
    assert (
        by_encoder["semantic"].heldout_auc
        >= by_encoder["one-hot"].heldout_auc - 0.3
    )
