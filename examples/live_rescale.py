#!/usr/bin/env python
"""Live reconfiguration vs stop-and-restart (paper §VII).

The paper's evaluation uses stop-and-restart reconfiguration with a
10-minute stabilisation wait between changes; §VII describes the live
alternative deployed at ByteDance, where "operators are assigned
parallelism dynamically through APIs, enabling the Flink JobManager to
apply changes at runtime".

This example runs the same StreamTune tuning campaign twice — once on a
stock Flink cluster (stop-and-restart) and once on a live-reconfiguration
variant — and compares the *downtime budget* each spends across a cycle
of source-rate changes.  The tuner is the same: the engine picks the wait
of each ``reconfigure``.  The recommendations are identical; only the
settling accounting differs.

Run:  python examples/live_rescale.py
"""

from repro.core import HistoryGenerator, StreamTuneTuner, pretrain
from repro.engines import FlinkCluster
from repro.engines.base import LIVE_SETTLING_MINUTES, STABILIZATION_MINUTES
from repro.workloads import nexmark_queries, nexmark_query, pqp_query_set


class LiveFlinkCluster(FlinkCluster):
    """A Flink cluster with the §VII operator-level rescale API enabled."""

    name = "flink-live"
    supports_live_reconfigure = True


def build_pretrained(engine, seed: int = 7):
    corpus = nexmark_queries("flink") + [
        q for qs in pqp_query_set().values() for q in qs
    ]
    records = HistoryGenerator(engine, seed=seed).generate(corpus, 1200)
    return pretrain(
        records, max_parallelism=engine.max_parallelism,
        n_clusters=2, epochs=15, seed=seed,
    )


def run_campaign(engine, pretrained, multipliers):
    query = nexmark_query("q5", "flink")
    tuner = StreamTuneTuner(engine, pretrained, model_kind="svm", seed=17)
    tuner.prepare(query)
    deployment = engine.deploy(
        query.flow,
        dict.fromkeys(query.flow.operator_names, 1),
        query.rates_at(multipliers[0]),
    )
    total_reconfigs = 0
    for multiplier in multipliers:
        result = tuner.tune(deployment, query.rates_at(multiplier))
        total_reconfigs += result.n_reconfigurations
    downtime = deployment.sim_minutes
    engine.stop(deployment)
    return total_reconfigs, downtime


def main() -> None:
    multipliers = [3, 7, 4, 10, 5]
    print(f"campaign: Nexmark Q5 through rate multipliers {multipliers}\n")

    stock = FlinkCluster(seed=42)
    pretrained = build_pretrained(stock)
    reconfigs, downtime = run_campaign(stock, pretrained, multipliers)
    print(
        f"stop-and-restart: {reconfigs} reconfigurations x "
        f"{STABILIZATION_MINUTES:.0f} min wait = {downtime:.0f} simulated minutes"
    )

    live = LiveFlinkCluster(seed=42)
    live_pretrained = build_pretrained(live)
    live_reconfigs, live_downtime = run_campaign(live, live_pretrained, multipliers)
    print(
        f"live rescale:     {live_reconfigs} reconfigurations x "
        f"{LIVE_SETTLING_MINUTES:.0f} min settle = {live_downtime:.0f} simulated minutes"
    )

    if live_downtime < downtime:
        saved = downtime - live_downtime
        print(
            f"\nlive reconfiguration saves {saved:.0f} simulated minutes "
            f"({100 * saved / downtime:.0f}% of the settling budget) on this cycle."
        )


if __name__ == "__main__":
    main()
