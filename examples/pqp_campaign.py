#!/usr/bin/env python
"""Scenario: tuning a fleet of synthetic PQP join queries.

The PQP workload (from ZeroTune) stresses structural generalisation:
2-way and 3-way windowed joins with heterogeneous windows, selectivities
and costs.  This example

1. pre-trains StreamTune on the full corpus,
2. tunes three *different* 3-way-join queries through a rate sweep,
3. shows how the GED clustering routes each query to its encoder and how
   recommendations track each query's individual bottleneck structure.

Run:  python examples/pqp_campaign.py
"""

from repro.baselines import OracleTuner
from repro.core import HistoryGenerator, StreamTuneTuner, pretrain
from repro.engines import FlinkCluster
from repro.utils.tables import format_table
from repro.workloads import nexmark_queries, pqp_query_set


def main() -> None:
    engine = FlinkCluster(seed=42)
    corpus = nexmark_queries("flink") + [
        q for qs in pqp_query_set().values() for q in qs
    ]
    print("pre-training on the 61-query corpus (3000 records) ...")
    records = HistoryGenerator(engine, seed=7).generate(corpus, 3000)
    pretrained = pretrain(
        records, max_parallelism=engine.max_parallelism,
        n_clusters=4, epochs=30, seed=7,
    )
    print(f"clusters: {pretrained.n_clusters}; centers: "
          f"{[g.name for g in pretrained.clustering.center_graphs]}")

    oracle = OracleTuner(engine)
    targets = pqp_query_set()["3-way-join"][:3]

    rows = []
    for query in targets:
        cluster = pretrained.assign_cluster(query.flow)
        # A tuner serves one query: T accumulates that query's feedback.
        tuner = StreamTuneTuner(engine, pretrained, seed=17)
        tuner.prepare(query)
        deployment = engine.deploy(
            query.flow,
            dict.fromkeys(query.flow.operator_names, 1),
            query.rates_at(2),
        )
        for multiplier in (2, 6, 10):
            result = tuner.tune(deployment, query.rates_at(multiplier))
            optimal = oracle.optimal_parallelisms(deployment, query.rates_at(multiplier))
            rows.append(
                (
                    query.name,
                    cluster,
                    multiplier,
                    result.final_total_parallelism,
                    sum(optimal.values()),
                    result.n_reconfigurations,
                    "yes" if result.converged else "no",
                )
            )
        engine.stop(deployment)

    print()
    print(
        format_table(
            ["query", "cluster", "rate (xWu)", "StreamTune total",
             "oracle total", "reconfigs", "converged"],
            rows,
            title="3-way-join campaign (Flink)",
        )
    )


if __name__ == "__main__":
    main()
