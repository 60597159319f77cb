"""A tuning plan's decisions, pinned to committed step traces.

These traces pin the decisions of a ``TuningPlan``: one campaign on the
service's ``sequential`` backend, whose M_f fits every plan kind shares.
A change of float summation order in the fit path can move a decision,
so "same objective" proves nothing about the tuner; these traces do.
The ContTune baseline's traces pin its GP the same way: a solve that
moves the lower confidence bound by an ulp may not move a decision.
``tests/data/inline_step_traces.json`` says where each came from.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import Reconfigured, StepCompleted, TuningPlan, TuningSession
from repro.api.components import build_engine
from repro.core import HistoryGenerator, pretrain
from repro.experiments.context import corpus

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "inline_step_traces.json").read_text()
)
RATES = (3.0, 7.0, 4.0, 2.0)
QUERIES = ("q5", "linear/0", "2-way-join/0")


def _trace(plan, session):
    rows = []
    for event in session.stream(plan):
        if isinstance(event, Reconfigured):
            rows.append({
                "type": "reconfigured",
                "step_index": event.step_index,
                "iteration": event.iteration,
                "parallelisms": dict(event.parallelisms),
                "backpressure_after": event.backpressure_after,
            })
        elif isinstance(event, StepCompleted):
            rows.append({
                "type": "step_completed",
                "step_index": event.step_index,
                "parallelisms": dict(event.parallelisms),
                "reconfigurations": event.reconfigurations,
                "backpressure_events": event.backpressure_events,
                "converged": event.converged,
            })
    return rows


def _plan(query, tuner="streamtune", rates=RATES, layer="svm"):
    return TuningPlan(
        query=query, tuner=tuner, rates=rates, layer=layer, engine="flink",
        scale="smoke",
    )


@pytest.fixture(scope="module")
def benchmark_artifact():
    """The artifact `benchmarks/e2e`'s tuning workloads set up
    (`workloads.py::build_artifact`: 200 records, 25 epochs, smoke seeds)."""
    engine = build_engine("flink", seed=20250711)
    records = HistoryGenerator(engine, seed=20250712).generate(corpus("flink"), 200)
    return pretrain(
        records,
        max_parallelism=engine.max_parallelism,
        n_clusters=None,
        epochs=25,
        seed=20250713,
    )


@pytest.mark.parametrize("query", QUERIES)
def test_tune_cold_pool_repeats_the_parent_step_for_step(benchmark_artifact, query):
    session = TuningSession(pretrained=benchmark_artifact)
    assert _trace(_plan(query), session) == GOLDEN["benchmark_artifact"][query]


@pytest.mark.parametrize("query", QUERIES)
def test_default_session_artifact_step_traces(query):
    assert _trace(_plan(query), TuningSession()) == GOLDEN["session_artifact"][query]


@pytest.mark.parametrize("layer", ["xgboost", "isotonic", "nn"])
def test_ablation_layer_step_traces(layer):
    # Only the first rate change: the pure-Python GBDT refits are the
    # slowest thing in the suite.
    plan = _plan("q5", rates=RATES[:1], layer=layer)
    assert _trace(plan, TuningSession()) == GOLDEN["ablation_layers"][layer]


@pytest.mark.parametrize("query", QUERIES)
def test_conttune_step_traces(query):
    plan = _plan(query, tuner="conttune")
    assert _trace(plan, TuningSession()) == GOLDEN["baselines"]["conttune"][query]
