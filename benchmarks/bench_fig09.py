"""Fig. 9 bench — online recommendation time and offline pre-training cost.

These are genuine timing benchmarks: 9a times one StreamTune recommendation
step against DS2's closed form and ContTune's GP pipeline; 9b measures
pre-training wall time as the history grows (super-linear, as in the
paper).
"""

from __future__ import annotations

import pytest

from repro.experiments import context, fig9_overhead as fig9
from repro.experiments.campaigns import campaign
from repro.scenarios.library import periodic_multipliers


@pytest.mark.parametrize("method", ["DS2", "ContTune", "StreamTune"])
def test_fig9a_single_recommendation(benchmark, scale, flink_pretrained, method):
    """Time one full tuning process on a 2-way-join query."""
    query = context.evaluation_queries("flink", scale)["2-way-join"][0]
    engine = context.make_engine("flink", scale)
    tuner = context.make_tuner(method, engine, scale)
    tuner.prepare(query)
    deployment = engine.deploy(
        query.flow, dict.fromkeys(query.flow.operator_names, 1), query.rates_at(3)
    )
    tuner.tune(deployment, query.rates_at(3))
    multipliers = iter(periodic_multipliers(n_permutations=6, seed=1))

    def one_process():
        return tuner.tune(deployment, query.rates_at(next(multipliers)))

    result = benchmark.pedantic(one_process, rounds=5, iterations=1)
    assert result.steps


def test_fig9a_campaign_averages(benchmark, flink_campaign_grid):
    scale = flink_campaign_grid
    rows = benchmark.pedantic(fig9.run_fig9a, args=(scale,), rounds=1, iterations=1)
    by_key = {(r.group, r.method): r.avg_recommendation_seconds for r in rows}
    # DS2's closed form is the cheapest online recommender everywhere.
    for group in fig9.PQP_GROUPS:
        assert by_key[(group, "DS2")] <= by_key[(group, "StreamTune")]
    print()


def test_fig9b_pretraining_cost(benchmark, scale):
    rows = benchmark.pedantic(fig9.run_fig9b, args=(scale,), rounds=1, iterations=1)
    sizes = [row.n_records for row in rows]
    times = [row.training_seconds for row in rows]
    assert sizes == sorted(sizes)
    # Cost grows with dataset size (the paper shows a super-linear curve).
    assert times[-1] > times[0]
    print()
    for row in rows:
        print(f"  {row.n_records} records -> {row.training_seconds:.1f}s")
