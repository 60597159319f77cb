#!/usr/bin/env python
"""Quickstart: tune one streaming job with StreamTune in ~a minute.

Walks the full pipeline on a small scale through the declarative
``repro.api`` session layer:

1. generate an execution history and pre-train StreamTune (offline),
2. declare what to tune as a :class:`TuningPlan` (one query, a rate
   spike trace) — the same plan could live in a JSON/TOML file,
3. execute it with a :class:`TuningSession`,
4. scale out: run a two-query fleet concurrently from a
   :class:`CampaignPlan`,
5. compare the recommendation against the ground-truth oracle.

Run:  python examples/quickstart.py
"""

from repro.api import (
    CampaignPlan,
    TuningPlan,
    TuningSession,
    build_engine,
    build_tuner,
    resolve_query,
)
from repro.core import HistoryGenerator, pretrain
from repro.workloads import nexmark_queries, pqp_query_set


def main() -> None:
    # -- 1. histories + pre-training (offline, once) -------------------
    engine = build_engine("flink", seed=42)
    corpus = nexmark_queries("flink") + [
        q for qs in pqp_query_set().values() for q in qs
    ]
    print("generating execution history (1500 runs) ...")
    records = HistoryGenerator(engine, seed=7).generate(corpus, 1500)
    print(f"  {sum(r.n_bottlenecks for r in records)} bottleneck labels collected")

    print("pre-training per-cluster GNN encoders ...")
    pretrained = pretrain(
        records, max_parallelism=engine.max_parallelism,
        n_clusters=3, epochs=20, seed=7,
    )
    for i, report in enumerate(pretrained.reports):
        print(f"  cluster {i}: accuracy {report.final_accuracy:.3f}")

    # -- 2 + 3. declare the scenario, execute it ------------------------
    # `pretrained=` injects the artifact built above; drop it (and add
    # `model="model_dir"` or `scale="smoke"`) to load or build one.
    session = TuningSession(pretrained=pretrained)
    plan = TuningPlan(query="q2", rates=(3, 10, 5), engine="flink", seed=17)
    result = session.run(plan)
    campaign = result.outcomes[0]
    for multiplier, process in zip(campaign.multipliers, campaign.processes):
        print(
            f"rate {multiplier:>4g} x Wu: parallelisms={process.final_parallelisms} "
            f"reconfigs={process.n_reconfigurations} "
            f"backpressure={'yes' if process.n_backpressure_events else 'no'}"
        )

    # -- 4. the same API drives a concurrent fleet ----------------------
    fleet = CampaignPlan(queries=("q1", "q5"), rates=(3, 7), backend="thread")
    fleet_result = session.run(fleet)
    for member in fleet_result.outcomes:
        print(
            f"fleet {member.query_name}: "
            f"avg reconfigs {member.average_reconfigurations:.2f} "
            f"({member.wall_seconds:.1f}s)"
        )

    # -- 5. sanity: how close to the hidden optimum? --------------------
    query = resolve_query("q2", "flink")
    oracle = build_tuner("oracle", engine)
    deployment = engine.deploy(
        query.flow,
        campaign.processes[-1].final_parallelisms,
        query.rates_at(5),
    )
    optimum = oracle.optimal_parallelisms(deployment, query.rates_at(5))
    print(f"oracle optimum at 5 x Wu: {optimum}")
    engine.stop(deployment)


if __name__ == "__main__":
    main()
