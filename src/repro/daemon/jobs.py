"""Jobs and the durable job store behind the ``repro serve`` daemon.

A **job** is one submitted plan travelling through the lifecycle
``queued -> running -> finished | failed``.  Everything a job does is
recorded twice, in the same typed-event currency the rest of the repo
speaks:

* the **manifest** (``manifest.jsonl`` in the store directory) is an
  append-only ledger of :class:`~repro.api.events.JobSubmitted` and
  :class:`~repro.api.events.JobStateChanged` events — the submissions
  themselves (full plan payload included) and every state transition,
  fsynced as written (a submission and its ``queued`` line share one
  write) so a killed daemon can reconstruct its job table;
* each job's **ledger** (``<job_id>.jsonl``) is the JSONL event log of
  its execution, written by a :class:`~repro.api.events.JsonlRecorder`
  that fsyncs once per event block (a step's ``Reconfigured`` lines
  and the ``StepCompleted`` that closes them share one write) —
  exactly the format ``--record`` produces, so it doubles as the job's
  :class:`~repro.api.resume.ResumeLog`.  A block reaches the job's
  line buffer, and so its followers, only once it is synced.

A job keeps in memory only what a live job needs.  Its event lines are
buffered while it runs and released when it turns terminal: from then on
its ledger is the one copy, read by :meth:`JobStore.event_lines` — for a
job this daemon finished and for one a previous life finished alike.  Its
cell count is taken once, at submission.  Expanding its plan
(``cell_keys()`` there, ``specs()`` in the session) resolves PQP queries
through :func:`~repro.workloads.pqp.pqp_queries`, which builds each
template once per process and hands every job the same query objects;
they are read-only by contract, and nothing here or in the session writes
to a query, its flow or its ``rate_units``.

:meth:`JobStore.recover` is the restart path (``repro serve --resume
auto``): it replays the manifest, marks jobs whose recorded state is
terminal as replayed (their ledgers serve ``GET /v1/jobs/{id}/events``
bit-identically, read when asked for), and re-queues interrupted jobs
with their partial ledger as the resume source — so the restarted daemon
executes exactly the cells the kill lost.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from pathlib import Path

from repro.api.events import JobStateChanged, JobSubmitted, read_event_log
from repro.api.plans import plan_from_dict
from repro.api.resume import ResumeLog

__all__ = ["JOB_STATES", "Job", "JobStore", "TERMINAL_STATES"]

#: The lifecycle, in order.  ``failed`` covers both campaign failures
#: (CampaignExecutionError after the fleet drained) and daemon-side
#: errors; a failed job is terminal — resubmit to retry.
JOB_STATES = ("queued", "running", "finished", "failed")
TERMINAL_STATES = frozenset({"finished", "failed"})


class Job:
    """One submitted plan and its live, in-memory execution view.

    ``events`` buffers the job's serialized event lines (identical bytes
    to its on-disk ledger) while it is live and is ``None`` once it is
    terminal; read lines through :meth:`JobStore.event_lines`, which
    serves a terminal job from its ledger.  ``condition`` wakes
    followers streaming those lines live.  All mutation goes through the
    owning :class:`JobStore`, under the store lock.
    """

    def __init__(
        self,
        job_id: str,
        plan,
        tenant: str = "default",
        priority: int = 0,
        ledger_path: Path | None = None,
        submitted_at: float = 0.0,
        n_cells: int = 0,
    ) -> None:
        self.id = job_id
        self.plan = plan
        self.tenant = tenant
        self.priority = priority
        self.ledger_path = Path(ledger_path) if ledger_path else None
        #: Campaigns the plan runs, counted once at submission (the
        #: ``JobSubmitted.n_cells`` the manifest records).
        self.n_cells = n_cells
        self.state = "queued"
        self.error = ""
        self.submitted_at = submitted_at
        self.started_at: float | None = None
        self.finished_at: float | None = None
        #: Serialized event lines (no trailing newline), ledger-identical,
        #: while the job is live; ``None`` once it is terminal.
        self.events: list[str] | None = []
        #: Lines recorded; ``None`` for a replayed job until
        #: :attr:`n_events` first counts its ledger.
        self._n_events: int | None = 0
        self.condition = threading.Condition()
        #: Set on recovery when the terminal state was replayed from a
        #: previous daemon life rather than executed by this one.
        self.replayed = False
        #: ResumeLog for a recovered, partially executed job (else None).
        self.resume: ResumeLog | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def n_events(self) -> int:
        """Event lines recorded; a replayed job counts its ledger on the
        first read."""
        if self._n_events is None:
            self._n_events = len(JobStore._ledger_lines(self))
        return self._n_events

    def to_dict(self) -> dict:
        """The job's API view (``GET /v1/jobs/{id}``)."""
        return {
            "job": self.id,
            "tenant": self.tenant,
            "priority": self.priority,
            "state": self.state,
            "error": self.error,
            "plan_kind": self.plan.kind,
            "n_cells": self.n_cells,
            "n_events": self.n_events,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "ledger": self.ledger_path.name if self.ledger_path else "",
            "replayed": self.replayed,
        }


class JobStore:
    """The daemon's job table, durably mirrored to a manifest ledger."""

    def __init__(self, root: str | Path, *, fsync: bool = True) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.root / "manifest.jsonl"
        self.fsync = fsync
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._next_id = 1
        self._manifest_seq = 0
        #: Submissions per tenant, over the store's whole recorded life.
        self.submitted_per_tenant: dict[str, int] = {}

    # -- durable manifest append ---------------------------------------

    def _append_manifest(self, *events) -> None:
        """Append ``events`` under consecutive ``seq`` numbers with one
        write and one fsync."""
        lines = []
        for event in events:
            event = dataclasses.replace(event, seq=self._manifest_seq)
            self._manifest_seq += 1
            lines.append(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        with open(self.manifest_path, "a", encoding="utf-8") as handle:
            handle.write("".join(lines))
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())

    # -- the write path -------------------------------------------------

    def submit(
        self, plan, plan_data: dict, tenant: str = "default", priority: int = 0
    ) -> Job:
        """Create a job for an already-validated plan and record it.

        ``plan_data`` goes into the manifest as submitted; the job keeps
        the parsed ``plan`` and its cell count, taken here once."""
        n_cells = len(plan.cell_keys())
        with self._lock:
            job_id = f"j{self._next_id:06d}"
            self._next_id += 1
            job = Job(
                job_id,
                plan,
                tenant=tenant,
                priority=priority,
                ledger_path=self.root / f"{job_id}.jsonl",
                submitted_at=time.time(),
                n_cells=n_cells,
            )
            self._jobs[job_id] = job
            self._order.append(job_id)
            self.submitted_per_tenant[tenant] = (
                self.submitted_per_tenant.get(tenant, 0) + 1
            )
            self._append_manifest(
                JobSubmitted(
                    job=job.id,
                    tenant=tenant,
                    priority=priority,
                    plan_kind=plan.kind,
                    n_cells=n_cells,
                    ledger=job.ledger_path.name,
                    plan=dict(plan_data),
                    submitted_at=job.submitted_at,
                ),
                JobStateChanged(job=job.id, state="queued", at=job.submitted_at),
            )
        return job

    def mark(self, job: Job, state: str, error: str = "") -> None:
        """Transition ``job`` (durably) and wake its followers.

        A terminal transition releases the job's line buffer: its ledger
        is complete by then (the daemon closes the recorder first), and
        :meth:`event_lines` reads it from there on."""
        if state not in JOB_STATES:
            raise ValueError(
                f"state must be one of {JOB_STATES}, got {state!r}"
            )
        now = time.time()
        with self._lock:
            self._append_manifest(JobStateChanged(
                job=job.id, state=state, error=error, at=now,
            ))
        with job.condition:
            job.state = state
            job.error = error
            if state == "running":
                job.started_at = now
            elif state in TERMINAL_STATES:
                job.finished_at = now
                job.events = None
            job.condition.notify_all()

    def append_event(self, job: Job, lines: list[str]) -> None:
        """Buffer one committed block of serialized event lines and wake
        live followers once."""
        with job.condition:
            job.events.extend(lines)
            job._n_events += len(lines)
            job.condition.notify_all()

    # -- the read path --------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """Every job, submission order."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def counts_by_state(self) -> dict[str, int]:
        counts = dict.fromkeys(JOB_STATES, 0)
        for job in self.jobs():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def event_lines(self, job: Job, start: int = 0) -> list[str]:
        """The job's serialized event lines from index ``start`` on: its
        buffer while it is live, its ledger once it is terminal —
        finished by this daemon or replayed from a previous life alike."""
        with job.condition:
            if job.events is not None:
                return job.events[start:]
        return self._ledger_lines(job)[start:]

    # -- restart recovery ----------------------------------------------

    def recover(self) -> list[Job]:
        """Rebuild the job table from the manifest; return jobs to re-run.

        * a job whose recorded state is terminal is **replayed**: its
          ledger is left on disk and :meth:`event_lines` serves it when
          asked, so clients re-reading ``/events`` get bit-identical
          bytes;
        * a job recorded ``queued``/``running`` (the kill interrupted it)
          is returned for re-queueing, carrying its partial ledger as a
          :class:`~repro.api.resume.ResumeLog` when one parses — the
          re-run replays completed cells and executes only the missing
          ones;
        * malformed manifest/ledger tails (the crash's half-written last
          line) are tolerated, exactly like ``--resume`` logs.
        """
        if not self.manifest_path.exists():
            return []
        with self._lock:
            events, _ = read_event_log(self.manifest_path)
            for event in events:
                self._manifest_seq = max(self._manifest_seq, event.seq + 1)
                if isinstance(event, JobSubmitted):
                    # Reserve the id first: a job whose plan no longer
                    # parses is dropped, but its id and ledger stay taken.
                    if event.job.startswith("j") and event.job[1:].isdigit():
                        self._next_id = max(self._next_id, int(event.job[1:]) + 1)
                    try:
                        plan = plan_from_dict(event.plan)
                    except Exception:  # noqa: BLE001 — foreign/stale manifest line
                        continue
                    job = Job(
                        event.job,
                        plan,
                        tenant=event.tenant,
                        priority=event.priority,
                        ledger_path=self.root / (
                            event.ledger or f"{event.job}.jsonl"
                        ),
                        submitted_at=event.submitted_at,
                        n_cells=event.n_cells,
                    )
                    self._jobs[job.id] = job
                    self._order.append(job.id)
                    self.submitted_per_tenant[job.tenant] = (
                        self.submitted_per_tenant.get(job.tenant, 0) + 1
                    )
                elif isinstance(event, JobStateChanged):
                    job = self._jobs.get(event.job)
                    if job is None:
                        continue
                    job.state = event.state
                    job.error = event.error
                    if event.state == "running":
                        job.started_at = event.at
                    elif event.state in TERMINAL_STATES:
                        job.finished_at = event.at
            to_requeue: list[Job] = []
            for job_id in self._order:
                job = self._jobs[job_id]
                if job.terminal:
                    job.replayed = True
                    job.events = None
                    job._n_events = None
                    continue
                job.resume = self._ledger_resume(job)
                job.state = "queued"
                to_requeue.append(job)
        return to_requeue

    @staticmethod
    def _ledger_lines(job: Job) -> list[str]:
        if job.ledger_path is None or not job.ledger_path.exists():
            return []
        lines = job.ledger_path.read_text(encoding="utf-8").splitlines()
        return [line for line in lines if line.strip()]

    @staticmethod
    def _ledger_resume(job: Job) -> ResumeLog | None:
        """The partial ledger as a resume source, when it holds any
        completed campaign (an unparseable or empty ledger re-runs all)."""
        if job.ledger_path is None or not job.ledger_path.exists():
            return None
        try:
            log = ResumeLog.load(job.ledger_path)
        except Exception:  # noqa: BLE001 — unusable ledger: full re-run
            return None
        return log if log.n_completed else None
