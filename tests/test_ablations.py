"""Unit tests for the extended-ablation harness (smoke-scale plumbing).

The heavy comparisons are the ``ablations/*`` claims ``repro experiments``
judges (:func:`repro.experiments.ablations.claims`); these tests pin the
harness mechanics — splits, variant wiring, row shapes — on a miniature
footprint so the suite stays fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.history import ExecutionRecord
from repro.experiments import ablations
from repro.experiments.scale import SMOKE


def test_holdout_split_fractions():
    records = list(range(10))
    train, holdout = ablations._holdout_split(records)
    assert train == list(range(8))
    assert holdout == [8, 9]


def test_holdout_split_never_empty_train():
    records = [1]
    train, holdout = ablations._holdout_split(records)
    assert train == [1]
    assert holdout == []


def test_ablation_constants_cover_all_scales():
    for table in (
        ablations.ABLATION_HISTORY,
        ablations.ABLATION_EPOCHS,
        ablations.ABLATION_MULTIPLIERS,
    ):
        assert set(table) == {"smoke", "default", "paper"}


def test_thresholds_are_sorted_and_bracket_default():
    assert list(ablations.THRESHOLDS) == sorted(ablations.THRESHOLDS)
    assert ablations.THRESHOLDS[0] < 0.35 <= ablations.THRESHOLDS[-1]


def test_contains_heldout_detects_heldout_kind(tiny_history):
    flagged = [r for r in tiny_history if ablations._contains_heldout(r)]
    unflagged = [r for r in tiny_history if not ablations._contains_heldout(r)]
    assert flagged, "corpus must contain held-out-kind queries (e.g. Q3)"
    assert unflagged, "corpus must contain held-out-free queries (Q1/Q2/...)"
    for record in flagged:
        assert any(
            spec.op_type is ablations.HELDOUT_TYPE for spec in record.flow
        )


def test_heldout_scores_only_score_heldout_kind(tiny_pretrained, tiny_history):
    heldout = [r for r in tiny_history if ablations._contains_heldout(r)][:5]
    scores, labels = ablations._heldout_scores(tiny_pretrained, heldout)
    assert len(scores) == len(labels)
    assert np.all((scores >= 0.0) & (scores <= 1.0))
    assert set(np.unique(labels)) <= {0.0, 1.0}


def test_holdout_accuracy_bounds(tiny_pretrained, tiny_history):
    accuracy = ablations._holdout_accuracy(tiny_pretrained, tiny_history[:10])
    assert 0.0 <= accuracy <= 1.0


def test_holdout_accuracy_empty_records(tiny_pretrained):
    assert ablations._holdout_accuracy(tiny_pretrained, []) == 0.0


def test_encoder_ablation_raises_without_heldout_records(monkeypatch):
    monkeypatch.setattr(
        ablations, "_ablation_history", lambda scale: _window_join_free_history()
    )
    monkeypatch.setattr(ablations.context, "corpus", lambda engine_name: [])
    with pytest.raises(ValueError, match="no held-out-kind"):
        ablations.run_encoder_ablation(SMOKE)


def test_ranking_auc_basics():
    import numpy as np

    scores = np.array([0.9, 0.8, 0.2, 0.1])
    labels = np.array([1, 1, 0, 0])
    assert ablations.ranking_auc(scores, labels) == 1.0
    assert ablations.ranking_auc(scores, labels[::-1]) == 0.0
    assert ablations.ranking_auc(
        np.array([0.5, 0.5]), np.array([1, 0])
    ) == 0.5
    assert np.isnan(ablations.ranking_auc(scores, np.zeros(4)))


def _window_join_free_history() -> list[ExecutionRecord]:
    from repro.dataflow.graph import LogicalDataflow
    from repro.dataflow.operators import OperatorSpec, OperatorType

    flow = LogicalDataflow("plain")
    flow.chain(
        OperatorSpec(name="src", op_type=OperatorType.SOURCE),
        OperatorSpec(name="map", op_type=OperatorType.MAP),
        OperatorSpec(name="sink", op_type=OperatorType.SINK),
    )
    flow.validate()
    record = ExecutionRecord(
        flow=flow,
        source_rates={"src": 100.0},
        parallelisms={"src": 1, "map": 1, "sink": 1},
        labels={"src": 0, "map": 0, "sink": 0},
        engine_name="flink",
        has_backpressure=False,
        job_latency_seconds=0.1,
    )
    return [record]
