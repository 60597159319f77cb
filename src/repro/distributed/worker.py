"""The worker agent: a long-lived loop claiming and executing cells.

One :class:`WorkerAgent` runs per host (or several per big host).  It
polls the spool for unclaimed cells in plan order, claims one, executes
it through the ordinary :class:`~repro.api.session.TuningSession` — so
a worker reuses the whole single-host stack: shared pure caches warm
across the cells it runs, the pretrained artifact resolves once per
process, and results are bit-identical to any other backend — and
streams the cell's typed events into a per-attempt fsynced JSONL ledger
inside the spool.

The worker sets none of the spool's protocol values: the lease TTL and
the ledger fsync are read from the spool's ``spool.json``, and a worker
attached before its coordinator created the spool waits for it.  While
a cell executes, a heartbeat thread refreshes the lease (and the
worker's own liveness file) every quarter TTL, retrying transient
filesystem errors with jittered exponential backoff
(:func:`repro.utils.retry.with_retries`).  If the lease turns out to be
*lost* — this worker was presumed dead and the cell reclaimed — the
attempt is abandoned: the reclaimer owns the cell, and the spool's
exclusive done marker guarantees one published result either way.

A campaign that fails *deterministically* (the plan itself raises) is
not retried forever: its ledger ends in the typed
:class:`~repro.api.events.CampaignFailed` and the cell is marked done
with ``status="failed"`` — the coordinator surfaces it exactly like a
single-host worker death.  Only *worker* death (SIGKILL, OOM, power)
leaves a cell unfinished, and that is what lease reclaim re-runs.
"""

from __future__ import annotations

import os
import socket
import threading
import traceback
from pathlib import Path

from repro.api.events import CampaignFailed, EventBus, JsonlRecorder
from repro.api.plans import plan_from_dict
from repro.distributed.spool import LeaseLost, Spool, SpoolCell
from repro.faults.plane import fire as _fire
from repro.utils.retry import with_retries

__all__ = ["WorkerAgent"]

#: Lease heartbeats per lease TTL: a lease is refreshed four times before
#: it could expire.
HEARTBEATS_PER_TTL = 4.0


def default_worker_id() -> str:
    """``host-pid`` — unique per agent process across a shared spool."""
    return f"{socket.gethostname()}-{os.getpid()}"


class WorkerAgent:
    """Claim cells from ``spool`` and execute them until told to stop.

    ``exit_when_done=True`` ends :meth:`run` once every spooled cell has
    a completion marker (the coordinator's ephemeral local fleets);
    standing fleets omit it and keep polling for newly seeded cells.
    ``max_cells`` bounds how many cells this agent executes (tests).
    """

    def __init__(
        self,
        spool: "Spool | str | Path",
        *,
        worker_id: str | None = None,
        poll_seconds: float = 0.2,
        exit_when_done: bool = False,
        max_cells: int | None = None,
    ) -> None:
        self.spool = spool if isinstance(spool, Spool) else Spool(spool)
        self.worker_id = worker_id or default_worker_id()
        self.poll_seconds = poll_seconds
        self.exit_when_done = exit_when_done
        self.max_cells = max_cells
        self._session = None
        self._stop = threading.Event()
        #: Cells this agent completed (published the done marker for).
        self.n_completed = 0
        #: Attempts abandoned because the lease was reclaimed mid-run.
        self.n_abandoned = 0

    @property
    def session(self):
        if self._session is None:
            from repro.api.session import TuningSession
            from repro.service.cache import TuningCacheSet

            # One cache set for the agent's lifetime: every cell this
            # worker runs warms the next, same as a single-host fleet.
            self._session = TuningSession(caches=TuningCacheSet())
        return self._session

    def request_stop(self) -> None:
        """Finish the in-flight cell, then return from :meth:`run`.

        Safe from signal handlers — it only sets a flag.  The current
        cell completes normally (its lease keeps beating), so a drained
        worker never strands half-executed work.
        """
        self._stop.set()

    # -- the loop -------------------------------------------------------

    def run(self) -> int:
        """Claim/execute until stopped; returns cells completed."""
        while not self._stop.is_set():
            # A root whose creator has not published spool.json is not a
            # spool yet: wait for it, as for an unseeded one, and never
            # create it — its TTL is the creator's to choose.
            if self.spool.settings() is None:
                self._stop.wait(timeout=self.poll_seconds)
                continue
            self.spool.worker_heartbeat(self.worker_id)
            progressed = False
            for cell_id in self.spool.pending_ids():
                if self._stop.is_set():
                    break
                if not self.spool.claim(cell_id, self.worker_id):
                    continue
                if self.execute(self.spool.cell(cell_id)):
                    self.n_completed += 1
                progressed = True
                if (
                    self.max_cells is not None
                    and self.n_completed >= self.max_cells
                ):
                    return self.n_completed
            # An empty spool is *unseeded*, not done: a worker may attach
            # before its coordinator finishes seeding, and exiting then
            # would strand the fleet.  Keep polling until cells exist.
            if (
                self.exit_when_done
                and self.spool.cell_ids()
                and self.spool.all_done()
            ):
                return self.n_completed
            if not progressed:
                self._stop.wait(timeout=self.poll_seconds)
        return self.n_completed

    # -- one cell -------------------------------------------------------

    def execute(self, cell: SpoolCell) -> bool:
        """Run one claimed cell to a published result or an abandon.

        Returns True when *this* attempt published the done marker.
        """
        from repro.service import CampaignExecutionError

        _fire("worker.execute.crash")
        ledger = self.spool.ledger_path(cell.id, self.worker_id)
        recorder = JsonlRecorder(ledger, fsync=self.spool.fsync)
        stop_beat = threading.Event()
        lost = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop,
            args=(cell.id, stop_beat, lost),
            name=f"lease-heartbeat-{cell.id}",
            daemon=True,
        )
        beat.start()
        status = "ok"
        try:
            try:
                plan = plan_from_dict(cell.plan)
                self.session.run(plan, bus=EventBus(recorder))
            except CampaignExecutionError:
                # The ledger already ends in the typed CampaignFailed —
                # a deterministic plan failure, published as such.
                status = "failed"
            except Exception as error:  # noqa: BLE001 — agent isolation:
                # a cell must never kill the agent; anything the session
                # could not even turn into events becomes one here.
                status = "failed"
                recorder(CampaignFailed(
                    campaign=cell.campaign,
                    index=0,
                    backend="worker",
                    error_type=type(error).__name__,
                    error_message=str(error),
                    traceback=traceback.format_exc(),
                    cell_key=cell.cell_key,
                ))
        finally:
            stop_beat.set()
            beat.join()
            recorder.close()
        if lost.is_set():
            # Presumed dead: a reclaimer owns this cell now.  Publishing
            # would race its attempt; abandon ours (the ledger file
            # stays, unreferenced — the done marker names the winner's).
            self.n_abandoned += 1
            return False
        published = self.spool.mark_done(cell.id, {
            "cell": cell.id,
            "cell_key": cell.cell_key,
            "status": status,
            "owner": self.worker_id,
            "ledger": ledger.name,
            "n_events": recorder.n_events,
        })
        self.spool.release(cell.id, self.worker_id)
        return published

    def _heartbeat_loop(
        self, cell_id: str, stop: threading.Event, lost: threading.Event
    ) -> None:
        interval = self.spool.ttl_seconds / HEARTBEATS_PER_TTL
        while not stop.wait(timeout=interval):
            try:
                # Attempts bound the retry *count*; the deadline bounds
                # its *wall-clock* — a slow-failing filesystem (every
                # utime hanging for seconds) must make this attempt give
                # up before the lease TTL elapses and a peer reclaims,
                # not discover the loss afterwards.
                with_retries(
                    lambda: self._beat(cell_id),
                    retryable=(OSError,),
                    attempts=4,
                    base=min(0.05, interval / 4),
                    deadline_seconds=self.spool.ttl_seconds / 2,
                )
            except LeaseLost:
                lost.set()
                return
            except OSError:
                # The filesystem stayed broken through the backoff
                # schedule; the lease will expire and a peer reclaims —
                # treat it as a loss so this attempt abandons cleanly.
                lost.set()
                return

    def _beat(self, cell_id: str) -> None:
        self.spool.heartbeat(cell_id, self.worker_id)
        self.spool.worker_heartbeat(self.worker_id)
