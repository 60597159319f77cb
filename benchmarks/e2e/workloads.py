"""The four workloads: what one pass does, and how its outputs are checked.

Every workload is a closed loop in one process.  The op pool of a
workload is fixed; ``--seed`` decides the order it is issued in (and which
flows probe a reloaded artifact), so the seeded, deterministic quality
metrics repeat exactly across seeds while the inputs still come from the
seed.  Sizes were cut from the issue's 30-s passes to what the driver's
run budget allows: see README.md.
"""

from __future__ import annotations

import importlib
import json
import random
import shutil
import time
from pathlib import Path

from stats import Chunk, Op, PassRecord

#: First steps of the paper's §V-A periodic cycle (x Wu).
TRACE = (3.0, 7.0, 4.0, 2.0)

ENGINE = "flink"
SCALE = "smoke"
#: History records behind the artifact the tuning workloads set up.
ARTIFACT_RECORDS = 200
GNN_EPOCHS = 25
#: Seeds of the repo's smoke scale (`repro.experiments.scale.SMOKE.seed` + 0/1/2).
ENGINE_SEED = 20250711
HISTORY_SEED = ENGINE_SEED + 1
PRETRAIN_SEED = ENGINE_SEED + 2


class Recorder:
    """Builds one `PassRecord`: chunks between kernel samples, ops inside.

    Ops are stamped with `now()`: the wall clock, or a test's own.
    """

    def __init__(self, kernel, clock=time.perf_counter, tracer=None) -> None:
        self._kernel = kernel
        self.now = clock
        self._tracer = tracer
        self._record = PassRecord()
        self._open: Chunk | None = None
        self._cpu_mark = 0.0

    def boundary(self, reopen: bool = True) -> None:
        """End the running chunk, sample the kernel, start the next chunk."""
        if self._open is not None:
            self._open.end = self.now()
            self._open.wall_end = time.perf_counter()
            self._record.cpu_seconds += time.process_time() - self._cpu_mark
        sample = self._kernel.sample(self.now)
        if self._open is not None:
            self._open.kernel_after = sample
            self._record.chunks.append(self._open)
            self._open = None
        if reopen:
            self._cpu_mark = time.process_time()
            self._open = Chunk(
                start=self.now(), end=0.0, kernel_before=sample, kernel_after=0.0,
                wall_start=time.perf_counter(),
            )

    def mark_op(self, op_id: str) -> None:
        """Tell the tracer which op the calling thread works on next."""
        if self._tracer is not None:
            self._tracer.set_op(op_id)

    def op(self, op_id: str, start: float, end: float, output, ok: bool = True) -> None:
        self._record.ops.append(Op(op_id, start, end, output, ok))

    def extra(self, name: str, value) -> None:
        self._record.extras[name] = value

    def finish(self) -> PassRecord:
        self.boundary(reopen=False)
        return self._record


def _step_output(parallelisms: dict, reconfigurations: int, backpressure: int) -> tuple:
    return (tuple(sorted(parallelisms.items())), reconfigurations, backpressure)


def _event_output(event) -> tuple:
    """The output of an op that is one tuning process: its one step."""
    return (_step_output(
        event.parallelisms, event.reconfigurations, event.backpressure_events
    ),)


def _quality(outputs) -> tuple[float, float, float]:
    """Means over tuning processes: reconfigurations, total parallelism,
    backpressure events (the paper's Fig. 7a / Fig. 6 / Table III)."""
    steps = [step for output in outputs if output for step in output]
    n = len(steps)
    return (
        sum(step[1] for step in steps) / n,
        sum(sum(degree for _, degree in step[0]) for step in steps) / n,
        sum(step[2] for step in steps) / n,
    )


class Workload:
    """Base: subclasses fill in ``build``, ``run_pass`` and the constants."""

    name = ""
    #: Which kernel scales the wall-clock timings (`refkernel.kernel_for`):
    #: "reference" = numpy and interpreter work, "relay" = hand-offs and fsyncs.
    time_base = "reference"
    #: Run on one CPU only (the highest-numbered one the process may use).
    pin_cpu = False
    #: What `throughput_per_s` counts, and how many of it one op is.
    work_unit = "tuning processes"
    work_per_op = 1

    #: The fixed op pool; ``order`` is the seeded order a pass issues it in.
    pool: tuple = ()
    shuffle_pool = True

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.order = list(self.pool)
        if self.shuffle_pool:
            self.rng.shuffle(self.order)

    def build(self) -> None:
        """The repeatable part of set-up: artifacts and long-lived objects."""

    def run_pass(self, rec: Recorder) -> None:
        raise NotImplementedError

    def warm_pass(self, rec: Recorder) -> None:
        """The untimed pass that fills caches; its outputs are the reference."""
        self.run_pass(rec)

    def quality(self, record: PassRecord) -> tuple[float, float, float]:
        return _quality([op.output for op in record.ops])

    def layer_facts(self) -> dict:
        """Per-layer numbers only the workload can read (traced pass only)."""
        return {}

    def close(self) -> None:
        """Release what ``build`` opened."""


def pretrain_from_scratch(corpus, n_records: int, history_seed: int):
    """Smoke history + pre-training with no on-disk reuse: the op of
    `pretrain_offline`, and what every run of a tuning workload sets up.

    The callables are looked up through their modules on every call, so
    the traced pass's substituted wrappers are what runs.
    """
    from repro.api.components import build_engine
    from repro.core import history

    # `repro.core` re-exports the function under the module's name.
    pretrain_module = importlib.import_module("repro.core.pretrain")

    engine = build_engine(ENGINE, seed=ENGINE_SEED)
    records = history.HistoryGenerator(engine, seed=history_seed).generate(
        corpus, n_records
    )
    return pretrain_module.pretrain(
        records,
        max_parallelism=engine.max_parallelism,
        n_clusters=None,
        epochs=GNN_EPOCHS,
        seed=PRETRAIN_SEED,
    )


def build_artifact():
    """The artifact the tuning workloads tune with."""
    from repro.experiments.context import corpus

    return pretrain_from_scratch(corpus(ENGINE), ARTIFACT_RECORDS, HISTORY_SEED)


class PretrainOffline(Workload):
    name = "pretrain_offline"
    work_unit = "history records"
    #: Records per op: half the tuning artifact's, so that an op (and with
    #: it a chunk) stays under a second.
    work_per_op = 100
    pool = (HISTORY_SEED, HISTORY_SEED + 10, HISTORY_SEED + 20)
    n_probes = 5

    def build(self) -> None:
        from repro.experiments.context import corpus

        self.corpus = corpus(ENGINE)
        self.probes = [q.flow for q in self.rng.sample(self.corpus, self.n_probes)]
        self.artifact_bytes = 0

    def run_pass(self, rec: Recorder) -> None:
        from repro.core import persistence   # module lookup: see above

        for history_seed in self.order:
            rec.boundary()
            op_id = f"pretrain/{history_seed}"
            rec.mark_op(op_id)
            directory = self.workdir / f"artifact-{history_seed}"
            started = rec.now()
            artifact = pretrain_from_scratch(self.corpus, self.work_per_op, history_seed)
            persistence.save_pretrained(artifact, directory)
            reloaded = persistence.load_pretrained(directory)
            in_memory = [artifact.assign_cluster(flow) for flow in self.probes]
            from_disk = [reloaded.assign_cluster(flow) for flow in self.probes]
            ended = rec.now()
            accuracies = [report.final_accuracy for report in artifact.reports]
            self.artifact_bytes = sum(
                path.stat().st_size for path in directory.iterdir()
            )
            shutil.rmtree(directory)
            rec.op(
                op_id, started, ended,
                output=(artifact.n_clusters, tuple(in_memory)),
                ok=in_memory == from_disk and min(accuracies) >= 0.9,
            )

    def quality(self, record: PassRecord) -> tuple[float, float, float]:
        # No tuning process runs here; a constant that is never 0 keeps
        # ratios against it defined.
        return (1.0, 1.0, 1.0)

    def layer_facts(self) -> dict:
        return {"core.persistence.artifact_bytes": float(self.artifact_bytes)}


class TuneCold(Workload):
    name = "tune_cold"
    pool = ("q5", "linear/0", "2-way-join/0")

    def build(self) -> None:
        self.artifact = build_artifact()

    def run_pass(self, rec: Recorder) -> None:
        from repro.api import StepCompleted, TuningPlan, TuningSession

        for query in self.order:
            rec.boundary()
            plan = TuningPlan(query=query, tuner="streamtune", rates=TRACE, scale=SCALE)
            last = rec.now()
            for event in TuningSession(pretrained=self.artifact).stream(plan):
                if isinstance(event, StepCompleted):
                    now = rec.now()
                    rec.op(f"{query}/{event.step_index}", last, now, _event_output(event))
                    last = now


class FleetThread(Workload):
    name = "fleet_thread"
    pool = (
        "q1", "q3", "q5", "q8", "linear/0", "linear/1",
        "2-way-join/0", "2-way-join/1", "3-way-join/0",
    )
    # With two workers the order of the plan decides which campaigns share
    # the tail of a pass, and so the pass time: across ten seeds a shuffled
    # plan spread throughput by 18 %.  The plan is the same for every seed.
    shuffle_pool = False
    workers = 2
    #: Campaigns per plan.  A pass streams the pool as several plans, so
    #: that a kernel sample can be taken between them: no plan is running
    #: then, and chunks stay near a second.
    plan_size = 3

    def build(self) -> None:
        from repro.api import CampaignPlan, TuningSession
        from repro.service.cache import TuningCacheSet

        self.artifact = build_artifact()
        self.caches = TuningCacheSet()
        self.session = TuningSession(pretrained=self.artifact, caches=self.caches)
        self.plans = [
            CampaignPlan(
                queries=tuple(self.order[start:start + self.plan_size]),
                rates=TRACE, tuner="streamtune", backend="thread",
                workers=self.workers, scale=SCALE,
            )
            for start in range(0, len(self.order), self.plan_size)
        ]
        self.first_event_s = 0.0

    def _stream(self, rec: Recorder, backend: str) -> None:
        import dataclasses

        from repro.api import CampaignStarted, StepCompleted

        for plan in self.plans:
            rec.boundary()
            began = rec.now()
            last: dict[str, float] = {}
            first = None
            for event in self.session.stream(dataclasses.replace(plan, backend=backend)):
                now = rec.now()
                if isinstance(event, CampaignStarted):
                    last[event.campaign] = now
                elif isinstance(event, StepCompleted):
                    if first is None:
                        first = now - began
                    rec.op(
                        f"{event.campaign}/{event.step_index}",
                        last[event.campaign], now, _event_output(event),
                    )
                    last[event.campaign] = now
            self.first_event_s = first or 0.0

    def warm_pass(self, rec: Recorder) -> None:
        # The single-threaded baseline of the same plans: it fills the
        # shared caches exactly as a thread pass would, and every thread
        # pass must reproduce its outputs.
        self._stream(rec, "sequential")

    def run_pass(self, rec: Recorder) -> None:
        self._stream(rec, "thread")

    def layer_facts(self) -> dict:
        return {"service.tuning.first_event_s": self.first_event_s}


class DaemonDs2(Workload):
    name = "daemon_ds2"
    # A job is hand-offs between four threads (client, HTTP handler,
    # dispatcher, follower), socket writes and fsyncs.  Which of two shared
    # vCPUs the threads wake up on decided its wall time (p50 moved by
    # 30-50 % between sets of the same code), so they all get one CPU; and
    # the numpy kernel does not slow down when hand-offs do, so the kernel
    # is one that hands off.
    time_base = "relay"
    pin_cpu = True
    work_unit = "jobs"
    # Two 3-way joins, so that the heaviest fifth of the jobs is one kind
    # and p90 falls inside it: with one, p90 sat on the edge between two
    # kinds of job and moved by 12 % between runs of the same code.
    pool = FleetThread.pool + ("3-way-join/1",)
    jobs_per_pass = 4 * len(pool)      # every query equally often, whatever the order
    jobs_per_chunk = 10
    ledger_check_every = 10

    daemon = None

    def build(self) -> None:
        from repro.daemon import TuningDaemon

        self.daemon = TuningDaemon(
            port=0, ledger_dir=self.workdir / "ledger", fsync=True, use_shm=False,
        )
        self.daemon.start()
        self.jobs = [
            self.order[index % len(self.order)] for index in range(self.jobs_per_pass)
        ]
        self.lags: dict[str, list[float]] = {}

    def run_pass(self, rec: Recorder) -> None:
        from repro.daemon import DaemonClient

        self.lags = {"queue_wait": [], "run": [], "follow_lag": [], "ledger_bytes": []}
        problems: list[str] = []
        client = DaemonClient(self.daemon.url)
        for index, query in enumerate(self.jobs):
            if index % self.jobs_per_chunk == 0:
                rec.boundary()
            plan = {
                "kind": "tuning", "query": query, "tuner": "ds2",
                "rates": list(TRACE), "scale": SCALE,
            }
            started = rec.now()
            try:
                # What `repro submit --follow` does: submit, follow the
                # stream to the terminal state, read the final job record.
                job_id = client.submit_plan(plan)["job"]
                events = list(client.follow(job_id))
                followed_at = time.time()
                final = client.job(job_id)
                ended = rec.now()
                ok = self._check_job(index, job_id, final, events, followed_at)
                steps = tuple(
                    _step_output(
                        event["parallelisms"],
                        event["reconfigurations"],
                        event["backpressure_events"],
                    )
                    for event in events if event["event"] == "StepCompleted"
                )
            except Exception as error:  # noqa: BLE001 — counted as a failed op
                problems.append(f"job {index} ({query}): {type(error).__name__}: {error}")
                rec.op(f"{index}:{query}", started, rec.now(), None, ok=False)
                continue
            rec.op(f"{index}:{query}", started, ended, output=steps, ok=ok)
        rec.extra("problems", problems)

    def _check_job(self, index, job_id, final, events, followed_at) -> bool:
        kinds = [event["event"] for event in events]
        ok = (
            final["state"] == "finished"
            and "CampaignFinished" in kinds
            and kinds[-1] == "CacheStats"
        )
        job = self.daemon.store.get(job_id)
        if index % self.ledger_check_every == 0:
            followed = "".join(
                json.dumps(event, sort_keys=True) + "\n" for event in events
            )
            ok = ok and followed.encode() == job.ledger_path.read_bytes()
        self.lags["queue_wait"].append(job.started_at - job.submitted_at)
        self.lags["run"].append(job.finished_at - job.started_at)
        self.lags["follow_lag"].append(followed_at - job.finished_at)
        self.lags["ledger_bytes"].append(job.ledger_path.stat().st_size)
        return ok

    def layer_facts(self) -> dict:
        return {
            "lags": self.lags,
            "daemon.jobs_in_store": float(len(self.daemon.store.jobs())),
        }

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()


WORKLOADS = {
    cls.name: cls for cls in (PretrainOffline, TuneCold, FleetThread, DaemonDs2)
}
