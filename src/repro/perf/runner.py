"""Named hot-path benchmarks and the timing harness that runs them.

Each :class:`Benchmark` times one of the fleet's real hot paths against
the frozen fixtures of :mod:`repro.perf.fixtures`.  Optimised paths are
benchmarked *next to the path they replaced* — every claimed speedup
ships with the measurement that backs it — and
:data:`RATIO_DEFINITIONS` names those pairs, so the report carries
dimensionless ratios and the regression gate in
:mod:`repro.perf.report` compares ratios, not raw seconds, against a
baseline recorded on the host named in that baseline's header.

Every benchmark here is one half of a pair, and every pair is a micro
or wait-bound ratio one host can claim.  End-to-end questions — what a
campaign costs alone vs in a threaded fleet, what the daemon's
control plane adds — are ``benchmarks/e2e``'s (``tune_cold`` vs
``fleet_thread``, ``daemon_ds2``), which answers them with a noise
study this harness does not have.

The hot paths:

* ``ged_assign_*`` — GED cluster assignment (Algorithm 2 line 1) with
  admissible-bound pruning vs the exhaustive per-center A*-LSa search;
* ``gnn_encode_*`` — bulk operator-embedding requests through
  :mod:`repro.gnn.batch` vs one encoder pass per sample;
* ``failpoint_fire_*`` — the failpoint plane's ``fire()`` on a spool
  hot-path site with no plane active (the production fast path) vs an
  armed never-triggering rule; the pair prices carrying injection
  sites on every ledger write and spool claim;
* ``distributed_fleet_*`` — a 100-campaign paced smoke sweep through
  the spool-based distributed executor with one vs two local worker
  agents: the paced engine's telemetry waits overlap across workers, so
  the pair measures genuine fleet scale-out (claims, leases, ledger
  merging included) rather than single-host core contention.
"""

from __future__ import annotations

import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.perf.fixtures import PerfFixtures


@dataclass(frozen=True)
class Benchmark:
    """One named, timed hot path.

    ``run`` receives the fixtures and performs the full computation —
    including any per-call state (fresh caches, engines, tuners), so
    every repeat is cold where the hot path would be cold in production.
    """

    name: str
    hot_path: str
    description: str
    run: Callable[[PerfFixtures], object]
    repeats: int = 5


#: Repeats for the numpy-bound pair (``gnn_encode_*``) whose best-of-5
#: did not repeat on a shared 2-CPU host.  A burst of neighbour load
#: (which slows these paths 1.5-1.8x) outlasts a 20-40 ms window of 5-7
#: millisecond-long repeats, covering one side of a pair and none of the
#: other: same-code runs read 1.14x against a 2.00x baseline.  25
#: repeats let the best-of statistic reach the quiet time.
BURST_REPEATS = 25


# ----------------------------------------------------------------------
# GED cluster assignment
# ----------------------------------------------------------------------

def _bench_ged_assign_pruned(fixtures: PerfFixtures):
    from repro.ged.search import GEDCache

    cache = GEDCache()
    return [
        cache.nearest(flow, fixtures.centers) for flow in fixtures.assign_flows
    ]


def _bench_ged_assign_exhaustive(fixtures: PerfFixtures):
    from repro.ged.search import GEDCache

    cache = GEDCache()
    assignments = []
    for flow in fixtures.assign_flows:
        distances = [cache.distance(flow, center) for center in fixtures.centers]
        assignments.append(min(range(len(distances)), key=distances.__getitem__))
    return assignments


# ----------------------------------------------------------------------
# batched GNN encoding
# ----------------------------------------------------------------------

#: Inner iterations of the (sub-millisecond) encoding benchmarks: each
#: timed repeat encodes the batch this many times, so one repeat lasts
#: milliseconds and scheduler jitter cannot dominate the measurement.
GNN_INNER_ITERATIONS = 20


def _bench_gnn_batched(fixtures: PerfFixtures):
    from repro.gnn.batch import encode_samples

    for _ in range(GNN_INNER_ITERATIONS):
        result = encode_samples(
            fixtures.encoder, fixtures.samples, parallelism_aware=False
        )
    return result


def _bench_gnn_per_sample(fixtures: PerfFixtures):
    for _ in range(GNN_INNER_ITERATIONS):
        result = [
            fixtures.encoder.encode(sample, parallelism_aware=False)
            for sample in fixtures.samples
        ]
    return result


# ----------------------------------------------------------------------
# distributed fleet scale-out: 1 vs N worker agents on one spool
# ----------------------------------------------------------------------

#: Worker agents on the scaled side of the ``distributed_fleet_*`` pair.
#: Fixed at two (not ``cpu_count``): the paced engine makes the fleet
#: wait-bound, so two agents demonstrate scale-out even on one core and
#: the pair times the same fleet whatever the host's core count.
FLEET_WORKERS = 2

#: The fleet: every distinct smoke query under two rate traces — 100
#: campaign cells of a few hundred milliseconds each, long enough that
#: worker-agent spawn cost does not dominate the scaling measurement.
_FLEET_NEXMARK = ("q1", "q2", "q3", "q5", "q8")
_FLEET_PQP = (
    tuple(f"linear/{index}" for index in range(8))
    + tuple(f"2-way-join/{index}" for index in range(16))
    + tuple(f"3-way-join/{index}" for index in range(21))
)
_FLEET_TRACES = ((3.0, 5.0, 4.0, 2.0), (5.0, 3.0, 6.0, 4.0))


def _run_fleet(workers: int):
    from repro.api.plans import SweepPlan
    from repro.distributed import DistributedSession

    plan = SweepPlan(
        queries=_FLEET_NEXMARK + _FLEET_PQP,
        tuners=("ds2",),
        engines=("flink-paced",),
        rate_traces=_FLEET_TRACES,
        backend="distributed",
        workers=workers,
        scale="smoke",
    )
    return DistributedSession(fsync=False).run(plan)


def _bench_fleet_1worker(fixtures: PerfFixtures):
    return _run_fleet(workers=1)


def _bench_fleet_2workers(fixtures: PerfFixtures):
    return _run_fleet(workers=FLEET_WORKERS)


# ----------------------------------------------------------------------
# failpoint plane: fire() on the spool/ledger hot paths
# ----------------------------------------------------------------------

#: fire() calls per repeat — roughly the order of magnitude a large
#: soak episode's claim/heartbeat/ledger hot paths see in total.
FAILPOINT_CALLS = 200_000


def _bench_failpoint_inactive(fixtures: PerfFixtures):
    from repro.faults import deactivate, fire

    # The production steady state: no plane active, every call must be
    # a near-free early return (these sit on the ledger write path).
    deactivate()
    for _ in range(FAILPOINT_CALLS):
        fire("spool.claim.race-delay")
    return FAILPOINT_CALLS


def _bench_failpoint_active(fixtures: PerfFixtures):
    from repro.faults import FaultPlan, activate, deactivate, fire

    # A plane armed with a never-triggering rule on the fired site: the
    # full match path (lock, counter, trigger check) with no effect.
    activate(FaultPlan(
        rules=[{
            "site": "spool.claim.race-delay",
            "effect": "delay",
            "hits": [FAILPOINT_CALLS + 1],
        }],
        seed=1,
    ))
    try:
        for _ in range(FAILPOINT_CALLS):
            fire("spool.claim.race-delay")
    finally:
        deactivate()
    return FAILPOINT_CALLS


#: The registry, in execution order (micro paths first, the fleet pair
#: last so its worker subprocesses cannot skew the micro timings).
BENCHMARKS: tuple[Benchmark, ...] = (
    Benchmark(
        name="ged_assign_pruned",
        hot_path="ged-cluster-assignment",
        description="bound-pruned nearest-center assignment (cold cache)",
        run=_bench_ged_assign_pruned,
        repeats=5,
    ),
    Benchmark(
        name="ged_assign_exhaustive",
        hot_path="ged-cluster-assignment",
        description="exhaustive per-center A*-LSa assignment (cold cache)",
        run=_bench_ged_assign_exhaustive,
        repeats=5,
    ),
    Benchmark(
        name="gnn_encode_batched",
        hot_path="gnn-encoding",
        description="bulk embeddings through repro.gnn.batch",
        run=_bench_gnn_batched,
        repeats=BURST_REPEATS,
    ),
    Benchmark(
        name="gnn_encode_per_sample",
        hot_path="gnn-encoding",
        description="one encoder pass per sample",
        run=_bench_gnn_per_sample,
        repeats=BURST_REPEATS,
    ),
    Benchmark(
        name="failpoint_fire_inactive",
        hot_path="failpoint-plane",
        description=(
            f"{FAILPOINT_CALLS} fire() calls with no fault plane active "
            "(the production fast path)"
        ),
        run=_bench_failpoint_inactive,
        repeats=5,
    ),
    Benchmark(
        name="failpoint_fire_active",
        hot_path="failpoint-plane",
        description=(
            f"{FAILPOINT_CALLS} fire() calls against an armed, "
            "never-triggering rule (full match path)"
        ),
        run=_bench_failpoint_active,
        repeats=5,
    ),
    Benchmark(
        name="distributed_fleet_1worker",
        hot_path="distributed-fleet",
        description=(
            "100-campaign paced sweep through the spool with one worker "
            "agent"
        ),
        run=_bench_fleet_1worker,
        repeats=2,
    ),
    Benchmark(
        name="distributed_fleet_2workers",
        hot_path="distributed-fleet",
        description=(
            f"the same fleet claimed by {FLEET_WORKERS} competing worker "
            "agents"
        ),
        run=_bench_fleet_2workers,
        repeats=2,
    ),
)

#: Speedup ratios the regression gate checks: ``slow / fast`` over the
#: named benchmark pair's best observed times (see :func:`compute_ratios`).
#: >1 means the optimisation pays off.
RATIO_DEFINITIONS: dict[str, tuple[str, str]] = {
    "ged_assign_speedup": ("ged_assign_exhaustive", "ged_assign_pruned"),
    "gnn_batch_speedup": ("gnn_encode_per_sample", "gnn_encode_batched"),
    # 1 -> N worker agents on the same spool; the paced engine's waits
    # are the parallelisable resource, so the ratio approaches the
    # worker count as campaigns get longer (spawn cost amortises out).
    "distributed_fleet_speedup": (
        "distributed_fleet_1worker", "distributed_fleet_2workers"
    ),
    # slow/fast with the armed plane as the "slow" side: the
    # multiplicative cost of *carrying* failpoints on the hot paths —
    # large means the inactive fast path is effectively free, which is
    # the property that lets fire() sit on every ledger write.
    "failpoint_overhead": (
        "failpoint_fire_active", "failpoint_fire_inactive"
    ),
}


def benchmark_names() -> list[str]:
    return [bench.name for bench in BENCHMARKS]


def time_benchmark(bench: Benchmark, fixtures: PerfFixtures) -> dict:
    """Run ``bench`` for its configured repeats and report the timings."""
    times: list[float] = []
    for _ in range(bench.repeats):
        started = time.perf_counter()
        bench.run(fixtures)
        times.append(time.perf_counter() - started)
    return {
        "hot_path": bench.hot_path,
        "description": bench.description,
        "seconds": statistics.median(times),
        "min_seconds": min(times),
        "max_seconds": max(times),
        "repeats": bench.repeats,
    }


def run_benchmarks(
    fixtures: PerfFixtures,
    only: "list[str] | None" = None,
    echo=None,
) -> dict:
    """Time every (selected) benchmark; returns ``name -> result``."""
    selected = list(BENCHMARKS)
    if only is not None:
        known = {bench.name for bench in BENCHMARKS}
        unknown = sorted(set(only) - known)
        if unknown:
            raise ValueError(
                f"unknown benchmark(s) {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        wanted = set(only)
        selected = [bench for bench in BENCHMARKS if bench.name in wanted]
    results: dict = {}
    for bench in selected:
        result = time_benchmark(bench, fixtures)
        results[bench.name] = result
        if echo is not None:
            echo(
                f"  {bench.name:<30} {result['seconds'] * 1000:9.1f} ms "
                f"(x{result['repeats']})"
            )
    return results


def compute_ratios(results: dict) -> dict:
    """Speedup ratios for every pair whose two benchmarks both ran.

    Ratios are built from each side's *best* observed time: the minimum
    is the classic microbenchmark statistic — scheduler noise only ever
    adds time — which keeps the regression gate stable run to run.
    """
    ratios: dict = {}
    for name, (slow, fast) in RATIO_DEFINITIONS.items():
        if slow in results and fast in results:
            best = lambda result: result.get("min_seconds", result["seconds"])  # noqa: E731
            denominator = best(results[fast])
            if denominator > 0:
                ratios[name] = best(results[slow]) / denominator
    return ratios
