"""Command-line interface for the StreamTune reproduction.

Every tuning run is a plan file executed by a
:class:`~repro.api.TuningSession`: ``run-plan`` loads a
:class:`~repro.api.TuningPlan` / :class:`~repro.api.CampaignPlan` /
:class:`~repro.api.SweepPlan` (the plan's ``model`` field points at a
``pretrain`` artifact) and runs it on the plan's backend — the
in-process pools or, with ``backend = "distributed"``, a spool of
``worker`` agents.  Component names — engines, prediction layers, queries —
resolve through the ``repro.api`` registries, so a newly registered
component is immediately available to every subcommand.

Subcommands mirror the library's lifecycle::

    python -m repro.cli history   --engine flink --records 3000 --output history.jsonl
    python -m repro.cli pretrain  --history history.jsonl --output model_dir
    python -m repro.cli run-plan  tuning.toml          # one query: kind = "tuning"
    python -m repro.cli run-plan  campaign.toml --follow
    python -m repro.cli run-plan  sweep.toml --record events.jsonl
    python -m repro.cli run-plan  fleet.toml --spool-dir /shared/spool --workers 0
    python -m repro.cli run-plan  examples/matrix_smoke.toml --report BENCH_MATRIX.json
    python -m repro.cli perf
    python -m repro.cli experiments --scale smoke --output paper.json

``history`` and ``pretrain`` persist their outputs, so a tuned model can
be built once and reused across tuning sessions (the paper's
offline/online split).  ``run-plan`` executes through the streaming
session: ``--follow`` prints one line per execution event as campaigns
progress, ``--record`` writes the full typed event stream to a JSONL
file and, for a sweep, ``--report`` writes its benchmark-matrix summary.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.api import (
    ENGINES,
    EventBus,
    JsonlRecorder,
    PlanError,
    ProgressPrinter,
    ResumeError,
    ResumeLog,
    SweepPlan,
    SweepResult,
    TuningPlan,
    TuningSession,
    UnknownComponentError,
    build_engine,
    discover_latest_log,
    load_plan,
)
from repro.api.plans import PLAN_BACKENDS, plan_type
from repro.service import CampaignExecutionError
from repro.service.cache import SnapshotError
from repro.core.history import HistoryGenerator
from repro.core.persistence import load_history, save_history, save_pretrained
from repro.core.pretrain import pretrain
from repro.experiments.context import corpus
from repro.experiments.scale import resolve_scale
from repro.utils.config import read_config
from repro.utils.tables import format_table


# ----------------------------------------------------------------------
# offline lifecycle: history + pretrain
# ----------------------------------------------------------------------

def _cmd_history(args: argparse.Namespace) -> int:
    scale = resolve_scale(args.scale)
    engine = build_engine(args.engine, seed=scale.seed)
    generator = HistoryGenerator(engine, seed=args.seed)
    records = generator.generate(corpus(args.engine), args.records)
    save_history(records, args.output)
    n_labelled = sum(r.n_labelled for r in records)
    n_bottlenecks = sum(r.n_bottlenecks for r in records)
    print(
        f"wrote {len(records)} records to {args.output} "
        f"({n_labelled} labelled operators, {n_bottlenecks} bottlenecks)"
    )
    return 0


def _cmd_pretrain(args: argparse.Namespace) -> int:
    if not Path(args.history).is_file():
        raise PlanError(
            f"--history {args.history} does not exist; write one with "
            "`repro history --output`"
        )
    records = load_history(args.history)
    scale = resolve_scale(args.scale)
    engine = build_engine(args.engine, seed=scale.seed)
    artifact = pretrain(
        records,
        max_parallelism=engine.max_parallelism,
        n_clusters=args.clusters,
        epochs=args.epochs,
        seed=args.seed,
    )
    save_pretrained(artifact, args.output)
    accuracies = ", ".join(f"{r.final_accuracy:.3f}" for r in artifact.reports)
    print(
        f"pre-trained {artifact.n_clusters} cluster encoder(s) "
        f"(accuracies: {accuracies}) -> {args.output}"
    )
    return 0


# ----------------------------------------------------------------------
# online lifecycle: run a plan file
# ----------------------------------------------------------------------

def _print_tuning_result(result) -> None:
    rows = [
        (
            f"{multiplier:g}",
            process.final_total_parallelism,
            process.n_reconfigurations,
            process.n_backpressure_events,
            "yes" if process.converged else "no",
        )
        for multiplier, process in zip(result.multipliers, result.processes)
    ]
    print(
        format_table(
            ["rate (xWu)", "total parallelism", "reconfigs", "bp events", "converged"],
            rows,
            title=f"{result.method} tuning {result.query_name}",
        )
    )


def _print_campaigns(result) -> None:
    """One row per campaign of a campaign plan's or a sweep's result; a
    sweep's rows lead with their scenario."""
    if isinstance(result, SweepResult):
        cells, headers, stats = result.scenarios, ["scenario"], {}
        title = (
            f"sweep: {result.plan.n_scenarios} scenario(s), "
            f"{result.n_campaigns} campaign(s) in {result.wall_seconds:.2f}s"
        )
    else:
        cells, headers, stats = [(None, result)], [], result.cache_stats
        title = f"tuning service ({result.plan.backend})"
    headers += ["query", "processes", "avg reconfigs", "bp events",
                "mean final parallelism", "wall"]
    rows = [
        ((label,) if label is not None else ()) + (
            campaign.query_name,
            campaign.n_processes,
            f"{campaign.average_reconfigurations:.2f}",
            campaign.total_backpressure_events,
            f"{campaign.mean_final_parallelism:.2f}",
            f"{campaign.wall_seconds:.2f}s",
        )
        for label, cell in cells
        for campaign in cell.outcomes
    ]
    print(format_table(headers, rows, title=title))
    if stats:
        summary = ", ".join(
            f"{kind}: {values.get('hits', 0)}h/{values.get('misses', 0)}m"
            for kind, values in stats.items()
        )
        print(f"cache hits/misses — {summary}")


def _event_bus(args: argparse.Namespace) -> tuple[EventBus | None, JsonlRecorder | None]:
    """The subscriber set ``--follow`` / ``--record`` asked for."""
    recorder = None
    subscribers = []
    if args.follow:
        subscribers.append(ProgressPrinter())
    if args.record:
        recorder = JsonlRecorder(args.record)
        subscribers.append(recorder)
    if not subscribers:
        return None, None
    return EventBus(*subscribers), recorder


def _resume_log(plan, args: argparse.Namespace) -> ResumeLog | None:
    """Load ``--resume`` (if given) and say what it will save.

    ``--resume auto`` discovers the most recent ``*.jsonl`` record in the
    plan's record directory — the directory of ``--record`` when given,
    the working directory otherwise — excluding the current run's own
    ``--record`` target.
    """
    path = args.resume
    if path is None:
        return None
    if path == "auto":
        record = args.record
        directory = Path(record).parent if record else Path(".")
        path = discover_latest_log(
            directory, exclude={Path(record)} if record else frozenset()
        )
        print(f"resume: auto-discovered {path}", file=sys.stderr)
    log = ResumeLog.load(path)
    keys = plan.cell_keys()
    recorded, missing = log.covers(keys)
    print(
        f"resume: {len(recorded)} of {len(keys)} campaign(s) already "
        f"recorded in {log.path}; executing {len(missing)}",
        file=sys.stderr,
    )
    return log


def _run_with_events(plan, args: argparse.Namespace, session=None):
    """Execute a plan through the streaming session, honouring
    ``--follow``/``--record``/``--resume``, and return its result."""
    resume = _resume_log(plan, args)
    bus, recorder = _event_bus(args)
    try:
        result = (session or TuningSession()).run(plan, bus=bus, resume=resume)
    finally:
        if recorder is not None:
            recorder.close()
    # Subscriber failures are isolated by the bus so they never kill a
    # fleet, but the operator must still hear about them — a broken
    # --record target would otherwise fail silently.
    if bus is not None and bus.errors:
        _, _, first_error = bus.errors[0]
        print(
            f"warning: {len(bus.errors)} event subscriber failure(s); "
            f"first: {first_error}",
            file=sys.stderr,
        )
    if recorder is not None:
        if recorder.n_events:
            print(f"recorded {recorder.n_events} events -> {recorder.path}")
        else:
            print(f"warning: no events were recorded to {recorder.path}", file=sys.stderr)
    return result


def _load_plan(path: str, overrides: dict, tuning_error: str | None):
    """The plan file with the command line's ``overrides`` merged into its
    table, validated once — so a file that is valid only with them loads.
    A tuning plan takes no fleet settings: with ``tuning_error`` given,
    one fails with it."""
    if tuning_error is not None:
        try:
            tuning = plan_type(read_config(path, PlanError, "plan")) is TuningPlan
        except PlanError:
            tuning = False      # load_plan reports it, naming the file
        if tuning:
            raise PlanError(tuning_error)
    return load_plan(path, overrides)


def _session(plan, args: argparse.Namespace):
    """The session ``--ttl``/``--no-fsync`` configure: both are recorded
    in the spool a ``distributed`` plan creates, so no other backend
    takes them."""
    if args.ttl is None and not args.no_fsync:
        return None
    if plan.backend != "distributed":
        raise PlanError(
            f"--ttl and --no-fsync apply to the distributed backend only; "
            f"this plan runs on {plan.backend!r}"
        )
    from repro.distributed import DistributedSession

    return DistributedSession(
        ttl_seconds=args.ttl, fsync=False if args.no_fsync else None
    )


def _cmd_run_plan(args: argparse.Namespace) -> int:
    overrides = {
        field: getattr(args, field)
        for field in ("backend", "workers", "spool_dir", "scale")
        if getattr(args, field) is not None
    }
    fleet_only = [field for field in overrides if field != "scale"]
    tuning_error = None
    if fleet_only:
        flag = "--" + fleet_only[0].replace("_", "-")
        tuning_error = f"{flag} applies to campaign and sweep plans only"
    plan = _load_plan(args.plan, overrides, tuning_error)
    if args.report is not None and not isinstance(plan, SweepPlan):
        raise PlanError(
            f"{args.plan} holds a {type(plan).__name__} (kind "
            f"{plan.kind!r}); --report needs kind = \"sweep\" — a "
            "benchmark matrix is a sweep grid with a summary report"
        )
    result = _run_with_events(plan, args, session=_session(plan, args))
    if isinstance(plan, TuningPlan):
        _print_tuning_result(result.outcomes[0])
    else:
        _print_campaigns(result)
    if args.report is not None:
        import json

        from repro.scenarios import matrix_report

        report = matrix_report(result)
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(
            f"matrix report: {report['n_scenarios']} scenario(s), "
            f"{report['n_campaigns']} campaign cell(s) -> {args.report}"
        )
    return 0


# ----------------------------------------------------------------------
# the distributed fleet: worker agents
# ----------------------------------------------------------------------

def _cmd_worker(args: argparse.Namespace) -> int:
    import signal

    from repro.distributed import Spool, WorkerAgent

    spool = Spool(args.spool)
    if args.fault_plan is not None:
        from repro.faults import activate, load_fault_plan

        # Claims in the spool: a rule's max_triggers budget is spent once
        # per spool, not once per (re)spawned worker.
        activate(load_fault_plan(args.fault_plan), spool.root / "fault-claims")
    agent = WorkerAgent(
        spool,
        worker_id=args.worker_id,
        poll_seconds=args.poll,
        exit_when_done=args.exit_when_done,
        max_cells=args.max_cells,
    )

    def drain(signum, frame) -> None:
        agent.request_stop()

    # SIGTERM/SIGINT drain: finish the in-flight cell, then exit.  A
    # SIGKILL needs no handling at all — the lease expires and a peer
    # reclaims the cell.
    signal.signal(signal.SIGTERM, drain)
    signal.signal(signal.SIGINT, drain)
    print(
        f"worker {agent.worker_id} draining spool {args.spool}",
        file=sys.stderr,
    )
    completed = agent.run()
    abandoned = (
        f", abandoned {agent.n_abandoned} reclaimed attempt(s)"
        if agent.n_abandoned else ""
    )
    print(
        f"worker {agent.worker_id} exiting: completed {completed} "
        f"cell(s){abandoned}",
        file=sys.stderr,
    )
    return 0


# ----------------------------------------------------------------------
# the daemon: serve / submit / jobs
# ----------------------------------------------------------------------

def _cmd_soak(args: argparse.Namespace) -> int:
    import json

    from repro.faults.supervisor import ChurnSpec, FleetSupervisor

    overrides = {"backend": "distributed", "workers": args.workers}
    if args.spool_dir is not None:
        overrides["spool_dir"] = args.spool_dir
    plan = _load_plan(
        args.plan, overrides,
        "soak churns a worker fleet over campaign and sweep plans; a "
        "single-query TuningPlan has no fleet to churn — use run-plan",
    )
    supervisor = FleetSupervisor(
        plan,
        workers=args.workers,
        churn=ChurnSpec(kills_per_worker=args.kills_per_worker, seed=args.seed),
        ttl_seconds=args.ttl,
        spool_dir=args.spool_dir,
        fsync=not args.no_fsync,
        fault_plan=args.fault_plan,
    )
    progress = (
        None if args.json
        else (lambda message: print(message, file=sys.stderr))
    )
    report = supervisor.run(
        record=args.record,
        reference=not args.no_reference,
        progress=progress,
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
            )
    if args.json:
        print(json.dumps(
            report.deterministic_view(), indent=2, sort_keys=True
        ))
    else:
        verdict = "ok" if report.ok else "FAILED"
        checks = report.invariant_failures + (report.stream_failures or [])
        print(
            f"soak {verdict}: {report.n_cells} cell(s) on {report.workers} "
            f"worker(s), {len(report.kills)}/{len(report.schedule)} "
            f"scheduled kill(s), {report.unplanned_respawns} unplanned "
            f"respawn(s), {report.wall_seconds:.1f}s"
        )
        if report.stream_failures is not None and not report.stream_failures:
            print("event stream bit-identical to the sequential reference")
        for failure in checks:
            print(f"  violation: {failure}", file=sys.stderr)
        if report.error is not None:
            print(f"  error: {report.error}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.daemon import TuningDaemon

    daemon = TuningDaemon(
        host=args.host,
        port=args.port,
        ledger_dir=args.ledger_dir,
        max_queue_depth=args.max_queue_depth,
        cache_path=args.cache_path,
        resume=args.resume,
        fsync=not args.no_fsync,
        spool_dir=args.spool_dir,
    )

    def announce(ready) -> None:
        print(
            f"repro daemon serving on {ready.url} "
            f"(ledger: {ready.ledger_dir}); SIGTERM/SIGINT drains and exits",
            file=sys.stderr,
        )

    daemon.serve(on_ready=announce)
    print("repro daemon stopped cleanly", file=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.api import event_from_dict
    from repro.daemon import DaemonClient

    client = DaemonClient(args.url)
    job = client.submit_plan(
        args.plan, tenant=args.tenant, priority=args.priority
    )
    if args.json:
        print(json.dumps(job, sort_keys=True))
    else:
        print(
            f"submitted {job['job']} ({job['plan_kind']}, {job['n_cells']} "
            f"cell(s), tenant {job['tenant']}) -> "
            f"{client.url}/v1/jobs/{job['job']}"
        )
    if not (args.follow or args.wait):
        return 0
    printer = ProgressPrinter() if args.follow and not args.json else None
    for data in client.follow(job["job"]):
        if args.json and args.follow:
            print(json.dumps(data, sort_keys=True))
        elif printer is not None:
            try:
                printer(event_from_dict(data))
            except ValueError:
                pass  # a daemon newer than this client; skip unknown events
    final = client.job(job["job"])
    if args.json:
        print(json.dumps(final, sort_keys=True))
    else:
        suffix = f": {final['error']}" if final.get("error") else ""
        print(f"job {final['job']} {final['state']}{suffix}")
    return 1 if final["state"] == "failed" else 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json

    from repro.daemon import DaemonClient

    client = DaemonClient(args.url)
    if args.events:
        for line in client.event_lines(args.events):
            print(line)
        return 0
    jobs = client.jobs(tenant=args.tenant, state=args.state)
    if args.json:
        for job in jobs:
            print(json.dumps(job, sort_keys=True))
        return 0
    rows = [
        (
            job["job"],
            job["tenant"],
            job["priority"],
            job["state"],
            job["plan_kind"],
            job["n_cells"],
            job["n_events"],
            "yes" if job["replayed"] else "no",
        )
        for job in jobs
    ]
    print(
        format_table(
            ["job", "tenant", "priority", "state", "kind", "cells",
             "events", "replayed"],
            rows,
            title=f"jobs at {client.url}",
        )
    )
    return 0


# ----------------------------------------------------------------------
# experiment harness passthroughs
# ----------------------------------------------------------------------

def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.__main__ import main as run_all

    return run_all(resolve_scale(args.scale), args.output)


# ----------------------------------------------------------------------
# hot-path benchmarks
# ----------------------------------------------------------------------

def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.perf import BENCHMARKS, run_perf

    if args.list:
        for bench in BENCHMARKS:
            print(f"{bench.name:<30} [{bench.hot_path}] {bench.description}")
        return 0
    only = None
    if args.only:
        only = [token.strip() for token in args.only.split(",") if token.strip()]
    return run_perf(
        only=only,
        output=args.output,
        baseline_path=args.baseline,
        tolerance=args.tolerance,
        update_baseline=args.update_baseline,
    )


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="StreamTune reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    engine_names = ENGINES.names()

    history = sub.add_parser("history", help="generate an execution history")
    history.add_argument("--engine", choices=engine_names, default="flink")
    history.add_argument("--records", type=int, default=3000)
    history.add_argument("--output", required=True)
    history.add_argument("--seed", type=int, default=7)
    history.add_argument("--scale", default=None)
    history.set_defaults(func=_cmd_history)

    pre = sub.add_parser("pretrain", help="cluster + pre-train encoders")
    pre.add_argument("--history", required=True)
    pre.add_argument("--output", required=True)
    pre.add_argument("--engine", choices=engine_names, default="flink")
    pre.add_argument("--clusters", type=int, default=None)
    pre.add_argument("--epochs", type=int, default=40)
    pre.add_argument("--seed", type=int, default=7)
    pre.add_argument("--scale", default=None)
    pre.set_defaults(func=_cmd_pretrain)

    from repro.distributed.spool import DEFAULT_TTL_SECONDS

    def add_spool_flags(command, *, ttl: float | None, spool_dir: str) -> None:
        """The options of a command that creates a spool: ``--ttl`` and
        ``--no-fsync`` are recorded in it for every worker to read, and
        an existing spool must already record them.  ``ttl`` is the
        ``--ttl`` default (``None``: adopt the spool's) and ``spool_dir``
        the ``--spool-dir`` help."""
        default = (
            "%(default)s" if ttl is not None
            else f"what an existing spool records, else {DEFAULT_TTL_SECONDS:g}"
        )
        command.add_argument(
            "--ttl", type=float, default=ttl, metavar="SECONDS",
            help="lease time-to-live; a worker silent this long is presumed "
                 f"dead and its cells are reclaimed (default: {default})",
        )
        command.add_argument(
            "--no-fsync", action="store_true",
            help="workers skip the per-event fsync of ledgers (faster, loses "
                 "crash-durability of the tail)",
        )
        command.add_argument(
            "--spool-dir", default=None, metavar="DIR", help=spool_dir
        )

    def add_fault_plan_flag(command) -> None:
        command.add_argument(
            "--fault-plan", default=None, metavar="PATH",
            help="deterministic failpoint plan (.json/.toml) activated in "
                 "every worker agent — fault-injection testing only",
        )

    run_plan = sub.add_parser(
        "run-plan",
        help="execute a TuningPlan/CampaignPlan/SweepPlan config file on "
             "any backend",
    )
    run_plan.add_argument("plan", help="path to a .json or .toml plan file")
    run_plan.add_argument(
        "--backend", choices=PLAN_BACKENDS, default=None,
        help="override the plan's worker-pool backend",
    )
    run_plan.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="override the plan's pool size; for backend=\"distributed\", "
             "the local worker agents that staff the spool (default: 2 for "
             "an ephemeral spool, 0 for a --spool-dir fleet)",
    )
    run_plan.add_argument("--scale", default=None, help="override the plan's scale")
    add_spool_flags(
        run_plan,
        ttl=None,
        spool_dir="backend=\"distributed\" only: the shared work spool a "
                  "standing fleet of `repro worker` agents is draining "
                  "(default: an ephemeral local spool)",
    )
    run_plan.add_argument(
        "--report", default=None, metavar="PATH",
        help="sweep plans only: write the benchmark-matrix summary report "
             "(the format of BENCH_MATRIX.json) to PATH",
    )
    run_plan.add_argument(
        "--follow", action="store_true",
        help="print one line per execution event as campaigns progress",
    )
    run_plan.add_argument(
        "--record", default=None, metavar="PATH",
        help="write the typed event stream to PATH as JSON lines "
             "(overwrites an existing file)",
    )
    run_plan.add_argument(
        "--resume", default=None, metavar="PATH",
        help="replay campaigns already recorded in PATH (a --record JSONL "
             "log, possibly from an interrupted run) instead of "
             "re-executing them; results are bit-identical to an "
             "uninterrupted run.  PATH may be 'auto' to pick the most "
             "recent *.jsonl log in the record directory (--record's "
             "directory, else the working directory)",
    )
    run_plan.set_defaults(func=_cmd_run_plan)

    worker = sub.add_parser(
        "worker",
        help="run a long-lived worker agent claiming campaign cells from "
             "a shared work spool (see `run-plan --spool-dir`)",
    )
    worker.add_argument("spool", help="the spool directory to drain")
    worker.add_argument(
        "--poll", type=float, default=0.2, metavar="SECONDS",
        help="idle delay between spool scans (default: %(default)s)",
    )
    worker.add_argument(
        "--exit-when-done", action="store_true",
        help="exit once every spooled cell has completed, instead of "
             "polling for newly seeded work forever",
    )
    worker.add_argument(
        "--max-cells", type=int, default=None,
        help="exit after completing this many cells",
    )
    worker.add_argument(
        "--worker-id", default=None,
        help="stable identity in leases/ledgers (default: <host>-<pid>)",
    )
    add_fault_plan_flag(worker)
    worker.set_defaults(func=_cmd_worker)

    soak = sub.add_parser(
        "soak",
        help="run a campaign/sweep plan through an N-worker fleet under a "
             "seeded worker-churn schedule, then assert the standing "
             "invariants (exactly-once, zero stale leases, bit-identical "
             "event stream)",
    )
    soak.add_argument("plan", help="path to a .json or .toml plan file")
    soak.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="fleet size (default: %(default)s)",
    )
    soak.add_argument(
        "--kills-per-worker", type=int, default=2, metavar="N",
        help="SIGKILL every worker slot this many times (default: %(default)s)",
    )
    soak.add_argument(
        "--seed", type=int, default=0,
        help="churn-schedule seed; the same seed replays the same kill "
             "schedule and report (default: %(default)s)",
    )
    soak.add_argument(
        "--record", default=None, metavar="PATH",
        help="write the merged distributed event stream to this JSONL file",
    )
    soak.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the full soak report (JSON) here",
    )
    soak.add_argument(
        "--no-reference", action="store_true",
        help="skip the in-process sequential reference run and the "
             "bit-identity check",
    )
    # A short lease, so killed workers' cells are reclaimed quickly.
    add_spool_flags(
        soak,
        ttl=2.0,
        spool_dir="keep the spool (ledgers, logs, done markers) here instead "
                  "of an ephemeral temp directory",
    )
    add_fault_plan_flag(soak)
    soak.add_argument(
        "--json", action="store_true",
        help="print the deterministic report view as JSON (the part that "
             "must be identical across same-seed episodes)",
    )
    soak.set_defaults(func=_cmd_soak)

    from repro.perf.report import BASELINE_PATH, REPORT_PATH

    perf = sub.add_parser(
        "perf",
        help="time the fleet's hot paths against frozen fixtures and gate "
             "speedup ratios against the committed baseline",
    )
    perf.add_argument(
        "--output", default=REPORT_PATH, metavar="PATH",
        help="machine-readable report target (default: %(default)s)",
    )
    perf.add_argument(
        "--baseline", default=BASELINE_PATH, metavar="PATH",
        help="baseline report to gate against; a missing file is an "
             "error, not a skipped gate (default: %(default)s)",
    )
    perf.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional drop of a speedup ratio before the gate "
             "fails (default: %(default)s)",
    )
    perf.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from this run instead of gating",
    )
    perf.add_argument(
        "--only", default=None, metavar="NAMES",
        help="comma-separated benchmark names to run (skips the gate)",
    )
    perf.add_argument(
        "--list", action="store_true", help="list benchmarks and exit"
    )
    perf.set_defaults(func=_cmd_perf)

    serve_cmd = sub.add_parser(
        "serve",
        help="run the persistent tuning daemon (HTTP plan submission, "
             "per-tenant queueing, live event streams, /metrics)",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=8642,
        help="listen port; 0 binds an ephemeral port (default: %(default)s)",
    )
    serve_cmd.add_argument(
        "--ledger-dir", default="daemon-ledger", metavar="DIR",
        help="where the job manifest and per-job JSONL ledgers live "
             "(default: %(default)s)",
    )
    serve_cmd.add_argument(
        "--max-queue-depth", type=int, default=16,
        help="queued jobs each tenant may hold before submissions get "
             "429 (default: %(default)s)",
    )
    serve_cmd.add_argument(
        "--cache-path", default=None, metavar="PATH",
        help="load the shared cache plane from this snapshot at start and "
             "save it back on shutdown",
    )
    serve_cmd.add_argument(
        "--resume", choices=("auto",), default=None,
        help="replay the ledger directory at start: finished jobs serve "
             "their events bit-identically, interrupted jobs re-run only "
             "their missing cells",
    )
    serve_cmd.add_argument(
        "--no-fsync", action="store_true",
        help="skip the per-event fsync of the daemon's ledgers (faster, "
             "loses crash-durability of the tail)",
    )
    serve_cmd.add_argument(
        "--spool-dir", default=None, metavar="DIR",
        help="shared work spool for backend=\"distributed\" plans: jobs "
             "without their own spool_dir execute across the worker "
             "agents draining DIR",
    )
    serve_cmd.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a plan file to a running daemon"
    )
    submit.add_argument("plan", help="path to a .json or .toml plan file")
    submit.add_argument(
        "--url", default="http://127.0.0.1:8642",
        help="daemon base URL (default: %(default)s)",
    )
    submit.add_argument("--tenant", default="default")
    submit.add_argument(
        "--priority", type=int, default=0,
        help="higher dispatches first (default: %(default)s)",
    )
    submit.add_argument(
        "--follow", action="store_true",
        help="stream the job's events live (one line per event) and exit "
             "with the job's outcome",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes (no per-event output) and exit "
             "with its outcome",
    )
    submit.add_argument(
        "--json", action="store_true",
        help="machine-readable output: one JSON object per line (the "
             "submission, each --follow event, the final job state)",
    )
    submit.set_defaults(func=_cmd_submit)

    jobs_cmd = sub.add_parser(
        "jobs", help="list a running daemon's jobs (or dump one job's events)"
    )
    jobs_cmd.add_argument(
        "--url", default="http://127.0.0.1:8642",
        help="daemon base URL (default: %(default)s)",
    )
    jobs_cmd.add_argument("--tenant", default=None, help="filter by tenant")
    jobs_cmd.add_argument(
        "--state", choices=("queued", "running", "finished", "failed"),
        default=None, help="filter by lifecycle state",
    )
    jobs_cmd.add_argument(
        "--events", default=None, metavar="JOB_ID",
        help="print JOB_ID's event ledger as JSON lines instead of the table",
    )
    jobs_cmd.add_argument(
        "--json", action="store_true",
        help="machine-readable output: one JSON object per job instead of "
             "the table",
    )
    jobs_cmd.set_defaults(func=_cmd_jobs)

    experiments = sub.add_parser(
        "experiments",
        help="run every paper experiment and ablation once and judge its "
             "claims (exit 1 unless the paper is reproduced)",
    )
    experiments.add_argument(
        "--scale", default=None, help="scale preset (default: $REPRO_SCALE, else 'default')"
    )
    experiments.add_argument(
        "--output", default=None, metavar="PATH",
        help="also write the judged claims as a repro.paper/v1 report",
    )
    experiments.set_defaults(func=_cmd_experiments)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from repro.daemon.client import DaemonClientError
    from repro.faults import FaultError
    from repro.perf.report import PerfError

    try:
        return args.func(args)
    except (
        PlanError, UnknownComponentError, SnapshotError, ResumeError, PerfError,
        DaemonClientError, FaultError,
    ) as error:
        # Operator errors (bad plan file, unknown component, stale cache
        # snapshot, unusable resume log, unusable perf baseline, refused
        # or unreachable daemon, malformed fault/churn plan) exit 2 with
        # one line, never a traceback.
        print(f"{parser.prog}: error: {error}", file=sys.stderr)
        return 2
    except CampaignExecutionError as error:
        # Worker failures: the surviving fleet finished (and was recorded
        # if --record was given) before this surfaced, so the operator can
        # retry just the lost campaigns with --resume.
        names = ", ".join(event.campaign for event in error.failures)
        first = error.failures[0]
        if first.traceback:
            print(first.traceback, file=sys.stderr, end="")
        print(
            f"{parser.prog}: error: {len(error.failures)} campaign(s) "
            f"failed ({names}); completed campaigns were not lost — "
            "re-run with --record and retry via --resume <log.jsonl>",
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
