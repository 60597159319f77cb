"""The end-to-end benchmark's command line.

One run (what the driver calls)::

    python3 benchmarks/e2e/run.py --workload tune_cold --seed 1 --seconds 14 --trace 0

measures one workload in this process and prints, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1``.  ``--all`` runs the four
workloads one after another, each mode in a fresh subprocess;
``--check-agreement`` runs two such sets and compares them against the
bounds in ``BENCHMARK.json``; ``--list`` prints the metric table.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()          # "runner start" of `setup_s`

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# One BLAS thread: the workloads are single-process by design and a BLAS
# pool on 2 shared cores is a noise source.  Set before numpy loads.
for _variable in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_variable] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
SCRATCH = HERE / ".tmp"

DEFAULT_SEED = 20250711
MIN_PASSES = 3
#: Runs per workload in each of `--check-agreement`'s two sets.
RUNS_PER_SET = 3
#: p90/p10 of a run's kernel samples above this marks the run noisy.
NOISY_SPREAD = 1.25
#: Seeded and deterministic: two runs of the same code must agree exactly.
DETERMINISTIC = (
    "reconfigs_per_process", "parallelism_per_process", "backpressure_per_process",
)


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def host_facts() -> dict:
    import platform

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 — a fact for the report, never fatal
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": 1,
    }


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------

def kernel_spread(samples) -> float:
    """p90 over p10 of a run's kernel samples: how unsteady the host was."""
    from stats import percentile

    return percentile(samples, 90, claim=False) / percentile(samples, 10, claim=False)


def end_to_end_metrics(workload, passes, setup_s: float) -> tuple[dict, dict]:
    import resource

    from stats import percentile, supports

    latencies = [value for record in passes for value in record.latencies()]
    ops_per_pass = len(passes[0].ops)
    claimable = supports(len(latencies), 90)
    reconfigs, parallelism, backpressure = workload.quality(passes[0])
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": ops_per_pass * workload.work_per_op
        / statistics.median(record.seconds() for record in passes),
        "latency_ms_p50": 1e3 * statistics.median(latencies),
        "latency_ms_p90": 1e3 * percentile(latencies, 90, claim=claimable),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reconfigs_per_process": reconfigs,
        "parallelism_per_process": parallelism,
        "backpressure_per_process": backpressure,
    }
    notes = {
        "passes": len(passes),
        "ops_per_pass": ops_per_pass,
        "n_latency": len(latencies),
        "p90_claimable": claimable,
        "throughput_counts": workload.work_unit,
    }
    return metrics, notes


def per_layer_metrics(workload, passes, traced, spans, kernel_samples) -> dict:
    from tracing import covered_seconds, reduce_spans

    layers = reduce_spans(spans)
    facts = workload.layer_facts()

    def get(name: str, field: str) -> float:
        return float(layers.get(name, {}).get(field, 0))

    def mean_value(name: str) -> float:
        row = layers.get(name)
        return row["value_sum"] / row["value_n"] if row and row["value_n"] else 0.0

    def childless_share(name: str) -> float:
        calls = get(name, "calls")
        return get(name, "childless") / calls if calls else 0.0

    def p50(values) -> float:
        return statistics.median(values) if values else 0.0

    metrics: dict[str, float] = {}
    for name in (
        "engines.measure", "clustering.kmeans_fit", "gnn.train", "gnn.encode",
        "core.pretrain.assign_cluster", "core.finetune.warmup",
        "core.finetune.distill", "core.finetune.embed", "models.fit",
        "models.search", "core.tuner.tune", "api.events.recorder",
    ):
        metrics[f"{name}.calls"] = get(name, "calls")
        metrics[f"{name}.self_s"] = get(name, "self_s")
    for name in (
        "engines.history_generate", "clustering.elbow", "core.pretrain.pretrain",
        "core.persistence.save", "core.persistence.load", "service.cache",
        "service.prewarm", "service.tuning.stream", "api.session.stream",
        "daemon.submit", "daemon.jobstore",
    ):
        metrics[f"{name}.self_s"] = get(name, "self_s")
    metrics["ged.distance.calls"] = get("ged.distance", "calls")
    metrics["ged.exact_search.calls"] = get("ged.exact_search", "calls")
    metrics["ged.self_s"] = sum(
        get(name, "self_s") for name in ("ged.distance", "ged.nearest", "ged.exact_search")
    )
    metrics["ged.cache_hit_ratio"] = childless_share("ged.distance")
    metrics["core.persistence.artifact_bytes"] = facts.get(
        "core.persistence.artifact_bytes", 0.0
    )
    metrics["models.fit.rows_mean"] = mean_value("models.fit")
    metrics["core.tuner.steps_per_process"] = mean_value("core.tuner.tune")
    metrics["service.cache.lookups"] = get("service.cache", "calls")
    metrics["service.cache.hit_ratio"] = childless_share("service.cache")
    metrics["service.prewarm.entries"] = get("service.prewarm", "value_sum")
    metrics["service.tuning.first_event_s"] = facts.get("service.tuning.first_event_s", 0.0)
    traced_wall = traced.wall_seconds()
    workers = getattr(workload, "workers", 1)
    metrics["service.tuning.worker_busy_share"] = (
        get("service.tuning.execute", "busy_s") / (workers * traced_wall)
    )
    metrics["api.events.publish.calls"] = get("api.events.publish", "calls")
    lags = facts.get("lags", {})
    metrics["api.events.recorder.bytes"] = float(sum(lags.get("ledger_bytes", ())))
    metrics["daemon.queue_wait_s_p50"] = p50(lags.get("queue_wait"))
    metrics["daemon.run_s_p50"] = p50(lags.get("run"))
    metrics["daemon.follow_lag_s_p50"] = p50(lags.get("follow_lag"))
    metrics["daemon.jobs_in_store"] = facts.get("daemon.jobs_in_store", 0.0)

    untraced_wall = sum(record.wall_seconds() for record in passes)
    untraced_ops = sum(len(record.ops) for record in passes)
    metrics["harness.ref_kernel_ms_p50"] = 1e3 * statistics.median(kernel_samples)
    metrics["harness.ref_kernel_spread"] = kernel_spread(kernel_samples)
    metrics["harness.wall_throughput_per_s"] = (
        untraced_ops * workload.work_per_op / untraced_wall
    )
    metrics["harness.cpu_s_per_op"] = (
        sum(record.cpu_seconds for record in passes) / untraced_ops
    )
    metrics["harness.trace_overhead"] = traced.seconds() / statistics.median(
        record.seconds() for record in passes
    )
    covered = sum(
        covered_seconds(
            [interval for s in spans if s.parent is None for interval in s.intervals],
            chunk.wall_start, chunk.wall_end,
        )
        for chunk in traced.chunks
    )
    metrics["harness.unattributed_share"] = 1.0 - covered / traced_wall
    return metrics


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, spans_path, raw_path=None
) -> int:
    """Measure one workload in this process; print the result line."""
    if not SOURCE.is_dir():
        print(f"no program to measure: {SOURCE} is missing", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Recorder

    if WORKLOADS[name].pin_cpu and hasattr(os, "sched_setaffinity"):
        # Before the imports, so that every thread and all of set-up run there.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SOURCE))
    import repro.api  # noqa: F401 — every import the workloads make lazily,
    import repro.core.persistence  # noqa: F401   paid here so that set-up's
    import repro.daemon  # noqa: F401              repeats time the same work
    import repro.experiments.context  # noqa: F401
    import repro.service.tuning  # noqa: F401

    from refkernel import R0, kernel_for, scale_factor
    from tracing import Tracer, installed

    import_s = time.perf_counter() - _STARTED
    spec = load_spec()
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="repro-bench-", dir=SCRATCH))
    workload = WORKLOADS[name](seed, workdir)
    try:
        kernel = kernel_for(workload.time_base, workdir)
        kernel_samples = [kernel.sample()]
        began = time.perf_counter()
        workload.build()
        build_s = time.perf_counter() - began
        kernel_samples.append(kernel.sample())
        recorder = Recorder(kernel)
        workload.warm_pass(recorder)
        warm = recorder.finish()
        setup_s = (
            (import_s + build_s) * scale_factor(kernel_samples[0], kernel_samples[1])
            + warm.seconds()
        )

        # The traced pass comes out of the same budget as the timed ones.
        reserve = 2 if trace else 1
        needed = MIN_PASSES - 1 if trace else MIN_PASSES
        passes = []
        began = time.perf_counter()
        while True:
            recorder = Recorder(kernel)
            workload.run_pass(recorder)
            passes.append(recorder.finish())
            elapsed = time.perf_counter() - began
            if len(passes) >= needed and elapsed * (1 + reserve / len(passes)) > seconds:
                break
        metrics, notes = end_to_end_metrics(workload, passes, setup_s)

        checked = list(passes)
        if trace:
            tracer = Tracer()
            recorder = Recorder(kernel, tracer=tracer)
            with installed(tracer):
                workload.run_pass(recorder)
            traced = recorder.finish()
            checked.append(traced)
        for record in checked:
            kernel_samples.extend(record.kernel_samples())
        if trace:
            layer = per_layer_metrics(
                workload, passes, traced, tracer.spans, kernel_samples
            )
            unknown = set(layer) - {entry["name"] for entry in spec["per_layer"]}
            if unknown:
                raise SystemExit(f"per-layer metrics not in BENCHMARK.json: {sorted(unknown)}")
            if spans_path is not None:
                Path(spans_path).write_text(
                    json.dumps([span.to_dict() for span in tracer.spans]),
                    encoding="utf-8",
                )
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass                        # another run is using it

    from stats import failed_ops

    attempted = sum(len(record.ops) for record in checked)
    failures = [sorted(failed_ops(warm, record)) for record in checked]
    failed = sum(len(ids) for ids in failures)
    problems = [
        problem for record in checked for problem in record.extras.get("problems", ())
    ]
    spread = kernel_spread(kernel_samples)
    notes.update(
        workload=name, seed=seed, time_base=workload.time_base, R0=R0,
        noisy=spread > NOISY_SPREAD, kernel_spread=spread,
        failed_share=failed / attempted, host=host_facts(),
    )

    if raw_path is not None:
        # What the noise study reads: the un-reduced timings of every pass.
        Path(raw_path).write_text(json.dumps({
            "notes": notes,
            "setup": {"import_s": import_s, "build_s": build_s, "warm_s": warm.seconds()},
            "passes": [
                {
                    "chunks": [
                        [c.start, c.end, c.kernel_before, c.kernel_after]
                        for c in record.chunks
                    ],
                    "wall": [[c.wall_start, c.wall_end] for c in record.chunks],
                    "ops": [[op.op_id, op.start, op.end] for op in record.ops],
                    "cpu_s": record.cpu_seconds,
                }
                for record in passes
            ],
        }), encoding="utf-8")

    section = "per_layer" if trace else "end_to_end"
    values = layer if trace else metrics
    reported = {
        entry["name"]: {"value": float(values.get(entry["name"], 0.0)), "unit": entry["unit"]}
        for entry in spec[section]
    }
    why = next(entry["why"] for entry in spec["workloads"] if entry["name"] == name)
    print(f"# {name}: {why}")
    print(f"# {json.dumps(notes, sort_keys=True)}")
    for metric, body in reported.items():
        print(f"{name:18s} {metric:42s} {body['value']:16.6f} {body['unit']}")
    if not trace and not notes["p90_claimable"]:
        print(
            f"# latency_ms_p90 rests on n={notes['n_latency']} samples: "
            "reported, not claimable"
        )
    for ids in failures:
        if ids:
            print(f"# failed ops: {ids[:8]}{' ...' if len(ids) > 8 else ''}")
    for problem in problems[:8]:
        print(f"# {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# sets of runs
# ----------------------------------------------------------------------

def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in a fresh subprocess; its result line plus its notes."""
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        capture_output=True, text=True,
    )
    lines = completed.stdout.splitlines()
    if completed.returncode != 0 or not lines:
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{name} (--trace {trace}) exited with {completed.returncode}")
    result = json.loads(lines[-1])
    result["notes"] = json.loads(lines[1][2:])
    result["text"] = "\n".join(lines[:-1])
    return result


def run_all(seed: int, seconds: float, out) -> int:
    spec = load_spec()
    report = {"seed": seed, "run_seconds": seconds, "workloads": {}}
    for entry in spec["workloads"]:
        name = entry["name"]
        body = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = run_child(name, seed, seconds, trace)
            print(result["text"], flush=True)
            body[section] = result["metrics"]
            body.setdefault("notes", result["notes"])
        report["workloads"][name] = body
    if out is not None:
        Path(out).write_text(json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")
    return 0


def check_agreement(seed: int, seconds: float) -> int:
    """Two sets of runs of the same code, compared against the bounds."""
    from stats import compare_sets

    spec = load_spec()
    sets = []
    for index in range(2):
        sets.append({
            entry["name"]: [
                {
                    metric: body["value"]
                    for metric, body in run_child(
                        entry["name"], seed + run, seconds, 0
                    )["metrics"].items()
                }
                for run in range(RUNS_PER_SET)
            ]
            for entry in spec["workloads"]
        })
        print(f"# set {index + 1} of 2 done", flush=True)
    rows = compare_sets(*sets, spec["end_to_end"], exact=DETERMINISTIC)
    print(f"{'workload':18s} {'metric':26s} {'median 1':>14s} {'median 2':>14s} "
          f"{'gap':>8s} {'set 2 is':>8s} {'bound':>6s}")
    for row in rows:
        side = row["worse_by"]
        print(f"{row['workload']:18s} {row['metric']:26s} {row['first']:14.4f} "
              f"{row['second']:14.4f} {row['gap']:8.3%} "
              f"{'worse' if side > 0 else 'better' if side < 0 else 'equal':>8s} "
              f"{row['bound']:6.2f}{'  DISAGREE' if row['disagree'] else ''}")
    return 1 if any(row["disagree"] for row in rows) else 0


def list_metrics() -> int:
    spec = load_spec()
    for entry in spec["workloads"]:
        print(f"workload   {entry['name']:42s} {entry['why']}")
    for entry in spec["end_to_end"]:
        print(f"end_to_end {entry['name']:42s} {entry['unit']:10s} "
              f"better={entry['better']:6s} bound={entry['bound']}")
    for entry in spec["per_layer"]:
        print(f"per_layer  {entry['name']:42s} {entry['unit']:10s} better={entry['better']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure this one workload in-process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase of a run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1: dump the spans to this file")
    parser.add_argument("--raw", help="dump every timed pass's un-reduced timings to this file")
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced then traced, one subprocess each")
    parser.add_argument("--out", help="with --all: write the report to this file")
    parser.add_argument("--check-agreement", action="store_true",
                        help="two sets of runs of the same code, compared to the bounds")
    parser.add_argument("--list", action="store_true",
                        help="print every workload and metric without running")
    args = parser.parse_args(argv)
    if args.list:
        return list_metrics()
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.check_agreement:
        return check_agreement(args.seed, seconds)
    if args.all:
        return run_all(args.seed, seconds, args.out)
    if args.workload is None:
        parser.error("one of --workload, --all, --check-agreement or --list is required")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    return run_workload(
        args.workload, args.seed, seconds, bool(args.trace), args.spans, args.raw
    )


if __name__ == "__main__":
    sys.exit(main())
