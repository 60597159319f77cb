"""The fleet supervisor: seeded worker churn over a spooled plan.

``repro soak`` drives one :class:`FleetSupervisor` episode: a
:class:`~repro.distributed.coordinator.DistributedSession` coordinator
(spawning no workers of its own) runs in a background thread while the
supervisor staffs the spool with N ``repro worker`` subprocesses and
executes a :class:`ChurnSpec` — a frozen, seeded schedule of
:class:`KillTrigger` thresholds keyed to the spool's *done-cell count*,
not wall-clock.  Count-keyed triggers make an episode replayable: the
same seed produces the same kill schedule whatever the host's speed,
and every kill is guaranteed to land while the fleet still has work
(thresholds clamp below the final cell).

Each SIGKILLed worker is respawned after :func:`restart_delay`'s
deterministic capped exponential backoff, within a per-slot budget of
``MAX_RESTARTS`` restarts.  After the episode the supervisor asserts
the standing invariants of :mod:`repro.faults.invariants` —
exactly-once completion, zero stale leases, and (optionally) a merged
event stream bit-identical to an in-process sequential reference run of
the same plan.  The :class:`SoakReport`'s
:meth:`~SoakReport.deterministic_view` excludes wall-clock and
scheduling noise, so two runs with the same seeds must render the
identical view.
"""

from __future__ import annotations

import dataclasses
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.faults.invariants import check_spool, compare_event_streams
from repro.faults.plan import FaultError, load_fault_plan
from repro.utils.config import check_int

__all__ = [
    "ChurnSpec",
    "FleetSupervisor",
    "KillTrigger",
    "SoakReport",
]

#: Done cells before the first kill, and the seeded gap (inclusive
#: range) between consecutive kills.
WARMUP_CELLS = 1
MIN_GAP_CELLS = 1
MAX_GAP_CELLS = 6
#: Per-slot respawn budget, and the capped exponential restart backoff.
MAX_RESTARTS = 16
BACKOFF_BASE_SECONDS = 0.05
BACKOFF_CAP_SECONDS = 1.0
#: How often the supervisor checks the kill schedule and its workers.
POLL_SECONDS = 0.05


def restart_delay(prior_restarts: int) -> float:
    """Backoff before restart number ``prior_restarts + 1`` (no jitter:
    the soak report must replay bit-for-bit)."""
    return min(BACKOFF_BASE_SECONDS * (2 ** prior_restarts), BACKOFF_CAP_SECONDS)


@dataclass(frozen=True)
class KillTrigger:
    """SIGKILL worker ``slot`` once ``after_done`` cells have completed."""

    after_done: int
    slot: int

    def to_dict(self) -> dict:
        return {"after_done": self.after_done, "slot": self.slot}


@dataclass(frozen=True)
class ChurnSpec:
    """A frozen, seeded worker-churn schedule."""

    kills_per_worker: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        check_int(self.kills_per_worker, FaultError, "churn kills_per_worker", minimum=0)
        check_int(self.seed, FaultError, "churn seed")

    def schedule(self, n_workers: int, n_cells: int) -> tuple:
        """The episode's kill triggers, sorted by done-count threshold.

        Every slot is killed exactly ``kills_per_worker`` times, in a
        seeded-shuffled order, at thresholds that advance by seeded gaps
        from ``WARMUP_CELLS`` — and clamp to ``n_cells - 1`` so each
        kill fires before the final cell completes (a kill scheduled
        after the episode ends would test nothing).
        """
        if n_workers < 1:
            raise FaultError(f"a fleet needs >= 1 worker, got {n_workers}")
        victims = [
            slot
            for slot in range(n_workers)
            for _ in range(self.kills_per_worker)
        ]
        rng = random.Random(self.seed)
        rng.shuffle(victims)
        ceiling = max(n_cells - 1, 0)
        triggers = []
        threshold = WARMUP_CELLS
        for slot in victims:
            triggers.append(
                KillTrigger(after_done=min(threshold, ceiling), slot=slot)
            )
            threshold += rng.randint(MIN_GAP_CELLS, MAX_GAP_CELLS)
        return tuple(triggers)

    def to_dict(self) -> dict:
        return {"kills_per_worker": self.kills_per_worker, "seed": self.seed}


@dataclass
class SoakReport:
    """Everything one soak episode observed, plus its verdict.

    :attr:`ok` is the one soak verdict (``repro soak`` exits 1 without
    it): no error, no invariant or stream violation, every cell ``ok``,
    and the kills executed exactly as scheduled — which, since
    :meth:`ChurnSpec.schedule` gives every slot ``kills_per_worker``
    triggers, also kills every worker that many times.
    """

    n_cells: int
    workers: int
    churn: ChurnSpec
    schedule: tuple = ()
    kills: tuple = ()
    restarts: dict = field(default_factory=dict)
    unplanned_respawns: int = 0
    statuses: dict = field(default_factory=dict)
    invariant_failures: list = field(default_factory=list)
    #: ``None`` when no sequential reference was run.
    stream_failures: "list | None" = None
    swept_leases: int = 0
    wall_seconds: float = 0.0
    record_path: str = ""
    reference_path: "str | None" = None
    error: "str | None" = None

    @property
    def ok(self) -> bool:
        return (
            self.error is None
            and not self.invariant_failures
            and not self.stream_failures
            and self.kills == self.schedule
            and all(status == "ok" for status in self.statuses.values())
        )

    def deterministic_view(self) -> dict:
        """The replayable subset: identical across same-seed episodes.

        Excludes wall-clock, restart timing, swept-lease counts and
        paths — everything the host's scheduler can perturb.
        """
        return {
            "n_cells": self.n_cells,
            "workers": self.workers,
            "churn": self.churn.to_dict(),
            "schedule": [trigger.to_dict() for trigger in self.schedule],
            "kills": [trigger.to_dict() for trigger in self.kills],
            "statuses": dict(sorted(self.statuses.items())),
            "invariant_failures": list(self.invariant_failures),
            "stream_failures": self.stream_failures,
            "error": self.error,
            "ok": self.ok,
        }

    def to_dict(self) -> dict:
        data = self.deterministic_view()
        data.update({
            "restarts": {str(slot): n for slot, n in sorted(self.restarts.items())},
            "unplanned_respawns": self.unplanned_respawns,
            "swept_leases": self.swept_leases,
            "wall_seconds": self.wall_seconds,
            "record_path": self.record_path,
            "reference_path": self.reference_path,
        })
        return data


class FleetSupervisor:
    """Run one plan through an N-worker fleet under seeded churn."""

    def __init__(
        self,
        plan,
        *,
        workers: int = 4,
        churn: "ChurnSpec | None" = None,
        ttl_seconds: float = 2.0,
        spool_dir: "str | Path | None" = None,
        fsync: bool = True,
        fault_plan: "str | Path | None" = None,
    ) -> None:
        if workers < 1:
            raise FaultError(f"a soak fleet needs >= 1 worker, got {workers}")
        if fault_plan is not None:
            # A malformed file fails here, once, not in every spawned worker.
            load_fault_plan(fault_plan)
        self.plan = plan
        self.workers = workers
        self.churn = churn if churn is not None else ChurnSpec()
        self.ttl_seconds = ttl_seconds
        self.spool_dir = spool_dir
        self.fsync = fsync
        self.fault_plan = fault_plan

    # -- the episode ----------------------------------------------------

    def run(
        self,
        *,
        record: "str | Path | None" = None,
        reference: bool = True,
        progress=None,
    ) -> SoakReport:
        """One full soak episode; never raises for in-episode failures —
        the report carries the verdict (raising would lose it)."""
        from repro.api.events import EventBus, JsonlRecorder
        from repro.distributed.coordinator import DistributedSession, plan_cells
        from repro.distributed.fleet import WorkerFleet
        from repro.distributed.spool import Spool

        say = progress if progress is not None else (lambda message: None)
        started = time.perf_counter()
        cells = plan_cells(self.plan)
        root = Path(self.spool_dir or tempfile.mkdtemp(prefix="repro-soak-"))
        ephemeral = self.spool_dir is None
        # The supervisor creates the spool; its coordinator and every
        # worker it spawns read the TTL and fsync from it.
        spool = Spool.create(
            root, ttl_seconds=self.ttl_seconds, fsync=self.fsync
        )
        report = SoakReport(
            n_cells=len(cells),
            workers=self.workers,
            churn=self.churn,
            schedule=self.churn.schedule(self.workers, len(cells)),
            restarts={slot: 0 for slot in range(self.workers)},
        )
        record_path = Path(record) if record else root / "soak-distributed.jsonl"
        record_path.parent.mkdir(parents=True, exist_ok=True)
        report.record_path = str(record_path)
        recorder = JsonlRecorder(record_path, fsync=False)
        # Its own spool and no local workers: the supervisor staffs it.
        plan = dataclasses.replace(self.plan, spool_dir=str(root), workers=None)
        outcome: dict = {}

        def drive() -> None:
            try:
                outcome["result"] = DistributedSession().run(
                    plan, bus=EventBus(recorder)
                )
            except BaseException as error:  # noqa: BLE001 — the report
                outcome["error"] = error    # carries it; never swallow
            finally:
                recorder.close()

        coordinator = threading.Thread(
            target=drive, name="soak-coordinator", daemon=True
        )
        coordinator.start()
        fleet = WorkerFleet(spool, fault_plan=self.fault_plan)
        fleet.spawn(self.workers)
        say(f"soak: {self.workers} workers on {len(cells)} cells at {root}")

        # Thresholds count completed cells, not seconds: the same
        # schedule replays on any host speed.
        pending = list(report.schedule)
        kills: list = []
        try:
            while coordinator.is_alive():
                while pending and len(spool.done_ids()) >= pending[0].after_done:
                    trigger = pending.pop(0)
                    fleet.kill(trigger.slot)
                    kills.append(trigger)
                    say(
                        f"soak: killed worker slot {trigger.slot} after "
                        f"{trigger.after_done} done cell(s)"
                    )
                    self._respawn(fleet, trigger.slot, report)
                if not spool.all_done():
                    self._respawn_dead(fleet, report)
                coordinator.join(timeout=POLL_SECONDS)
            # The tail of the schedule may not have been observed before
            # the last cells completed; flush it so ``kills == schedule``
            # holds in every episode (the report must be replayable).
            for trigger in pending:
                fleet.kill(trigger.slot)
                kills.append(trigger)
        finally:
            fleet.drain(terminate=True)
        report.kills = tuple(kills)

        error = outcome.get("error")
        if error is not None:
            report.error = f"{type(error).__name__}: {error}"
        report.swept_leases = len(spool.sweep_done_leases())
        report.statuses = {
            cell_id: (spool.done_payload(cell_id) or {}).get("status", "missing")
            for cell_id in spool.cell_ids()
            if cell_id in spool.done_ids()
        }
        report.invariant_failures = check_spool(spool, len(cells))
        stale = spool.stale_leases()
        if stale:
            report.invariant_failures.append(f"stale lease(s): {stale}")

        if reference and report.error is None:
            report.stream_failures = self._compare_to_reference(
                record_path, report, say
            )

        report.wall_seconds = time.perf_counter() - started
        if ephemeral and report.ok:
            import shutil

            shutil.rmtree(root, ignore_errors=True)
        return report

    # -- the sequential reference ---------------------------------------

    def _compare_to_reference(self, record_path, report, say) -> list:
        """Re-run the plan in-process on ``sequential``; diff the streams."""
        from repro.api.events import EventBus, JsonlRecorder, read_event_log
        from repro.api.session import TuningSession

        say("soak: running the in-process sequential reference")
        reference_path = record_path.parent / (
            record_path.stem + "-reference.jsonl"
        )
        report.reference_path = str(reference_path)
        ref_plan = dataclasses.replace(
            self.plan, backend="sequential", spool_dir=None
        )
        recorder = JsonlRecorder(reference_path, fsync=False)
        try:
            TuningSession().run(ref_plan, bus=EventBus(recorder))
        except Exception as error:  # noqa: BLE001 — verdict, not crash
            return [f"sequential reference failed: {type(error).__name__}: {error}"]
        finally:
            recorder.close()
        return compare_event_streams(
            read_event_log(reference_path), read_event_log(record_path),
            backend="distributed",
        )

    # -- restarts -------------------------------------------------------

    def _respawn(self, fleet, slot: int, report: SoakReport) -> bool:
        """Restart ``slot``'s dead worker if its budget allows, after the
        backoff; says whether it did."""
        prior = report.restarts.get(slot, 0)
        if prior >= MAX_RESTARTS:
            return False
        time.sleep(restart_delay(prior))
        fleet.respawn(slot)
        report.restarts[slot] = prior + 1
        return True

    def _respawn_dead(self, fleet, report: SoakReport) -> None:
        """Respawn workers that died *unplanned* (an injected crash)."""
        for index in range(len(fleet)):
            if not fleet.alive(index) and self._respawn(fleet, index, report):
                report.unplanned_respawns += 1
