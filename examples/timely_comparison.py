#!/usr/bin/env python
"""Scenario: resource efficiency on Timely Dataflow (paper §V-F).

Timely workers busy-spin, so useful-time-based tuners (DS2) systematically
over-provision there, while StreamTune's rate-derived bottleneck labels are
immune.  This example tunes Nexmark Q8 (tumbling-window join) at 10 x Wu
with both methods, then compares

* the recommended parallelism (resource cost), and
* the per-epoch latency distribution (performance) under each config —

reproducing the Fig. 8 story: far fewer workers, comparable latency.

Run:  python examples/timely_comparison.py
"""

import numpy as np

from repro.baselines import DS2Tuner
from repro.core import HistoryGenerator, StreamTuneTuner, pretrain
from repro.engines import TimelyCluster
from repro.utils.tables import format_table
from repro.workloads import nexmark_queries, nexmark_query


def main() -> None:
    query = nexmark_query("q8", "timely")
    print("pre-training StreamTune on Timely histories ...")
    engine = TimelyCluster(seed=42)
    records = HistoryGenerator(engine, seed=7).generate(
        nexmark_queries("timely"), 2000
    )
    pretrained = pretrain(
        records, max_parallelism=engine.max_parallelism,
        n_clusters=2, epochs=25, seed=7,
    )

    rows = []
    latencies = {}
    for make in (lambda e: DS2Tuner(e), lambda e: StreamTuneTuner(e, pretrained, seed=17)):
        cluster = TimelyCluster(seed=42)
        tuner = make(cluster)
        tuner.prepare(query)
        deployment = cluster.deploy(
            query.flow,
            dict.fromkeys(query.flow.operator_names, 1),
            query.rates_at(3),
        )
        tuner.tune(deployment, query.rates_at(3))
        result = tuner.tune(deployment, query.rates_at(10))
        sample = cluster.sample_epoch_latencies(deployment, n_epochs=300)
        latencies[tuner.name] = sample
        rows.append(
            (
                tuner.name,
                result.final_total_parallelism,
                f"{np.percentile(sample, 50):.2f}",
                f"{np.percentile(sample, 90):.2f}",
                f"{np.percentile(sample, 99):.2f}",
            )
        )
        cluster.stop(deployment)

    print()
    print(
        format_table(
            ["method", "total parallelism @10Wu", "p50 (s)", "p90 (s)", "p99 (s)"],
            rows,
            title="Nexmark Q8 on Timely Dataflow",
        )
    )
    ds2_total = rows[0][1]
    st_total = rows[1][1]
    saved = 100.0 * (1 - st_total / ds2_total)
    print(f"\nStreamTune uses {saved:.1f}% less parallelism than DS2 "
          f"(paper reports up to 83.3% on Q8).")


if __name__ == "__main__":
    main()
