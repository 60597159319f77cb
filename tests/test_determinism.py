"""Determinism regressions: same seed => identical tuning trajectories.

Covers the tuner and the concurrent service (per-campaign seeding must make results
independent of worker interleaving and dispatch order).
"""

from __future__ import annotations

from repro.core.tuner import StreamTuneTuner
from repro.engines import FlinkCluster
from repro.service import CampaignSpec, TuningService
from repro.workloads import nexmark_query
from tests.conftest import run_campaigns


def _step_trace(result):
    """Everything that must reproduce (timings legitimately vary)."""
    return [
        (step.parallelisms, step.reconfigured, step.backpressure_after)
        for step in result.steps
    ]


def _run_once(pretrained, seed: int):
    query = nexmark_query("q5", "flink")
    engine = FlinkCluster(seed=seed)
    tuner = StreamTuneTuner(engine, pretrained, seed=seed)
    tuner.prepare(query)
    deployment = engine.deploy(
        query.flow, dict.fromkeys(query.flow.operator_names, 1), query.rates_at(3)
    )
    results = [tuner.tune(deployment, query.rates_at(m)) for m in (3, 7, 4)]
    engine.stop(deployment)
    return [_step_trace(result) for result in results]


def test_same_seed_reproduces_step_sequences(tiny_pretrained):
    first = _run_once(tiny_pretrained, seed=123)
    second = _run_once(tiny_pretrained, seed=123)
    assert first == second


def test_different_engine_seeds_diverge_eventually(tiny_pretrained):
    # Sanity check that the trace actually depends on the seed (otherwise
    # the reproducibility assertion above would be vacuous).
    first = _run_once(tiny_pretrained, seed=123)
    second = _run_once(tiny_pretrained, seed=321)
    assert first != second


class TestServiceDeterminism:
    def _specs(self, multipliers=(3, 7)):
        return [
            CampaignSpec(
                query=nexmark_query(name, "flink"),
                multipliers=multipliers,
                engine_seed=11,
                seed=23,
            )
            for name in ("q1", "q2", "q5")
        ]

    def _traces(self, outcomes):
        return [
            [_step_trace(process) for process in outcome.processes]
            for outcome in outcomes
        ]

    def test_concurrent_identical_to_sequential(self, tiny_pretrained):
        sequential = run_campaigns(
            TuningService(tiny_pretrained, backend="sequential"), self._specs()
        )
        threaded = run_campaigns(
            TuningService(tiny_pretrained, backend="thread", max_workers=3), self._specs()
        )
        assert self._traces(threaded) == self._traces(sequential)

    def test_repeat_concurrent_runs_identical(self, tiny_pretrained):
        service = TuningService(tiny_pretrained, backend="thread", max_workers=2)
        first = run_campaigns(service, self._specs())
        second = run_campaigns(service, self._specs())
        assert self._traces(first) == self._traces(second)

    def test_dispatch_order_does_not_change_results(self, tiny_pretrained):
        # The service dispatches in plan order, so reversing the spec list
        # reverses the dispatch; each campaign's trace must not move.
        def traces(specs):
            service = TuningService(tiny_pretrained, backend="thread", max_workers=2)
            return self._traces(run_campaigns(service, specs))

        assert traces(self._specs()) == traces(self._specs()[::-1])[::-1]
