#!/usr/bin/env python
"""Scenario: a day of fluctuating traffic on Nexmark Q5 (Flink).

Drives the paper's periodic source-rate pattern (one permutation, 20
changes) through all four tuning methods on the sliding-window "hot items"
query and reports, per method:

* total reconfigurations and backpressure events,
* average and final total parallelism,
* average recommendation latency.

This mirrors the Fig. 6 / Fig. 7a / Table III protocol on a single query.

Run:  python examples/nexmark_flink_tuning.py
"""

import numpy as np

from repro.baselines import ContTuneTuner, DS2Tuner, OracleTuner
from repro.core import HistoryGenerator, StreamTuneTuner, pretrain
from repro.engines import FlinkCluster
from repro.scenarios.library import periodic_multipliers
from repro.utils.tables import format_table
from repro.workloads import nexmark_queries, nexmark_query, pqp_query_set


def run_campaign(engine, tuner, query, multipliers):
    tuner.prepare(query)
    deployment = engine.deploy(
        query.flow,
        dict.fromkeys(query.flow.operator_names, 1),
        query.rates_at(multipliers[0]),
    )
    processes = [tuner.tune(deployment, query.rates_at(m)) for m in multipliers]
    engine.stop(deployment)
    return processes


def main() -> None:
    query = nexmark_query("q5", "flink")
    multipliers = periodic_multipliers(n_permutations=1)

    corpus = nexmark_queries("flink") + [
        q for qs in pqp_query_set().values() for q in qs
    ]
    base_engine = FlinkCluster(seed=42)
    print("pre-training StreamTune (3000 history records) ...")
    records = HistoryGenerator(base_engine, seed=7).generate(corpus, 3000)
    pretrained = pretrain(
        records, max_parallelism=base_engine.max_parallelism,
        n_clusters=4, epochs=30, seed=7,
    )

    rows = []
    for make in (
        lambda e: OracleTuner(e),
        lambda e: DS2Tuner(e),
        lambda e: ContTuneTuner(e),
        lambda e: StreamTuneTuner(e, pretrained, seed=17),
    ):
        engine = FlinkCluster(seed=42)
        tuner = make(engine)
        processes = run_campaign(engine, tuner, query, multipliers)
        totals = [p.final_total_parallelism for p in processes]
        rows.append(
            (
                tuner.name,
                f"{np.mean([p.n_reconfigurations for p in processes]):.2f}",
                sum(p.n_backpressure_events for p in processes),
                f"{np.mean(totals):.1f}",
                totals[multipliers.index(10)],
                f"{np.mean([p.recommendation_seconds for p in processes]):.3f}",
            )
        )

    print()
    print(
        format_table(
            [
                "method",
                "avg reconfigs",
                "bp events",
                "avg parallelism",
                "parallelism @10Wu",
                "avg rec time (s)",
            ],
            rows,
            title=f"Nexmark Q5 on Flink - {len(multipliers)} rate changes",
        )
    )


if __name__ == "__main__":
    main()
