"""A tuning plan's decisions, pinned to committed step traces.

These traces pin the decisions of a ``TuningPlan``: one campaign on the
service's ``sequential`` backend, whose M_f fits every plan kind shares.
A change of float summation order in the fit path can move a decision,
so "same objective" proves nothing about the tuner; these traces do.
The baselines' traces pin their decisions the same way: a GP solve that
moves ContTune's lower confidence bound by an ulp may not move a
decision, and a change to the tuning-process loop they all share may not
move any method's.  ZeroTune needs an execution history no plan can
carry, so its traces come from :func:`run_campaign` at smoke scale and
pass through the same event translation a session applies.
``tests/data/inline_step_traces.json`` says where each came from.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import Reconfigured, StepCompleted, TuningPlan, TuningSession
from repro.api.components import build_engine, resolve_query
from repro.core import HistoryGenerator, pretrain
from repro.experiments import context
from repro.experiments.campaigns import run_campaign
from repro.experiments.context import corpus
from repro.experiments.scale import SMOKE
from repro.service.tuning import _step_events

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "inline_step_traces.json").read_text()
)
RATES = (3.0, 7.0, 4.0, 2.0)
QUERIES = ("q5", "linear/0", "2-way-join/0")


def _trace(plan, session):
    return _rows(session.stream(plan))


def _rows(events):
    rows = []
    for event in events:
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


def _zerotune_trace(query):
    engine = context.make_engine("flink", SMOKE)
    tuner = context.make_tuner("ZeroTune", engine, SMOKE)
    result = run_campaign(engine, tuner, resolve_query(query), list(RATES))
    return _rows(
        event
        for index, (multiplier, process) in enumerate(
            zip(result.multipliers, result.processes)
        )
        for event in _step_events(query, len(RATES), index, multiplier, process)
    )


@pytest.mark.parametrize("tuner", ["conttune", "ds2", "oracle", "zerotune"])
@pytest.mark.parametrize("query", QUERIES)
def test_baseline_step_traces(tuner, query):
    if tuner == "zerotune":
        trace = _zerotune_trace(query)
    else:
        trace = _trace(_plan(query, tuner=tuner), TuningSession())
    assert trace == GOLDEN["baselines"][tuner][query]
