"""The coordinator: seed a spool from a plan, merge worker ledgers.

:func:`plan_cells` flattens a :class:`~repro.api.plans.CampaignPlan` or
:class:`~repro.api.plans.SweepPlan` into independent
:class:`~repro.distributed.spool.SpoolCell` work units — one per
campaign, each carrying a derived single-campaign plan whose
deterministic ``cell_key`` equals the parent plan's.  Because the cell
key pins the computation (query, engine + seed, tuner + layer, rate
trace, tuner seed), *where* a cell runs cannot change *what* it
computes: a fleet spread over N hosts produces results bit-identical to
``backend="sequential"`` on one.

:class:`DistributedSession` mirrors
:meth:`~repro.api.session.TuningSession.stream`: it seeds every cell of
the plan into the spool up front (workers never idle at a fleet
boundary), optionally spawns local worker agents (``repro worker``
subprocesses), then emits each fleet's cells **in plan order** — their
replayed, ledgered or ``WorkerLost`` events restamped with the fleet
index, the ``distributed`` backend and ``seq``, then one merged
:class:`~repro.api.events.CacheStats`.  It only emits: the session's
:func:`~repro.api.session.fleet_result` turns a fleet's events into its
result and :func:`~repro.api.session.stream_sweep` runs a sweep's
fleets, exactly as for the in-process backends — so recorders, progress
printers, the daemon and ``--resume`` all work unchanged on top of a
fleet.

Failure model: a worker that dies mid-cell simply stops heartbeating;
its lease expires and any surviving worker reclaims and re-runs the cell
(bit-identical, so the retry is invisible in the results).  Only when
the *whole* fleet goes silent — no fresh worker heartbeat, no fresh
lease, no new completion for ``STALL_TTLS`` of the spool's lease TTLs
— does the coordinator synthesise a
:class:`~repro.api.events.CampaignFailed` per remaining cell and finish
the stream: a dead fleet is a failed campaign, never a hang.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
import time
from pathlib import Path

from repro.api.events import (
    CacheStats,
    CampaignFailed,
    read_event_log,
)
from repro.api.plans import CampaignPlan, PlanError, SweepPlan
from repro.api.resume import replay_events, resume_result
from repro.api.session import TuningSession, fleet_result, stream_sweep
from repro.distributed.fleet import WorkerFleet
from repro.distributed.spool import Spool, SpoolCell
from repro.experiments.scale import resolve_scale
from repro.faults.plane import fire as _fire

__all__ = ["DistributedSession", "plan_cells"]

#: How often the coordinator checks the spool for a cell's completion.
POLL_SECONDS = 0.05
#: Lease TTLs of fleet-wide silence before the fleet is declared dead.
#: Generous: slow worker start-up (interpreter + numpy import is >1s)
#: must never masquerade as fleet death.
STALL_TTLS = 4


def _derived_plan(plan: CampaignPlan, token: str) -> dict:
    """The single-campaign plan one cell executes, as a plain dict.

    The derived plan runs on the ``sequential`` backend (one campaign
    needs no pool) and drops fleet-only machinery: the spool must not
    recurse (a distributed plan carries no ``cache_path`` — plan
    validation rejects the combination).  Its ``cell_keys()[0]`` equals
    the parent's key for this campaign — seed and engine-seed conventions
    are the plan's own.  The scale is resolved here, once: a worker on
    another host must not read its own ``REPRO_SCALE`` and pretrain a
    different artifact under the same cell key.
    """
    return CampaignPlan(
        queries=(token,),
        rates=plan.rates,
        engine=plan.engine,
        tuner=plan.tuner,
        backend="sequential",
        layer=plan.layer,
        model=plan.model,
        scale=resolve_scale(plan.scale).name,
        seed=plan.seed,
        # Chaos travels with the cell (it shapes results and the cell
        # key); the trace spec does not — rates are already materialized.
        chaos=plan.chaos,
    ).to_dict()


def plan_cells(plan: "CampaignPlan | SweepPlan") -> list[SpoolCell]:
    """Flatten ``plan`` into spool cells, in plan (emission) order: the
    cells of :meth:`~repro.api.plans.SweepPlan.expand` fleet ``k`` are
    ``cells[k * n:(k + 1) * n]`` with ``n = len(plan.queries)``."""
    if isinstance(plan, CampaignPlan):
        fleets = [plan]
    elif isinstance(plan, SweepPlan):
        fleets = plan.expand()
    else:
        raise PlanError(
            f"the distributed backend executes campaign and sweep plans, "
            f"not a {type(plan).__name__}"
        )
    cells: list[SpoolCell] = []
    for fleet in fleets:
        for token, spec in zip(fleet.queries, fleet.specs()):
            cells.append(SpoolCell(
                index=len(cells),
                cell_key=spec.cell_key,
                campaign=spec.name,
                plan=_derived_plan(fleet, token),
            ))
    return cells


def _merge_stats(total: dict, stats: dict) -> dict:
    """Accumulate one cell's cache counters into ``total`` (recursive)."""
    for key, value in stats.items():
        if isinstance(value, dict):
            total[key] = _merge_stats(total.get(key) or {}, value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            total[key] = total.get(key, 0) + value
        else:
            total[key] = value
    return total


class DistributedSession:
    """Run campaign/sweep plans across a fleet of worker agents.

    The plan's ``spool_dir`` names the shared directory a standing fleet
    watches; without one the session creates an ephemeral spool under
    the system temp directory and removes it afterwards.  The plan's
    ``workers`` is how many local ``repro worker`` subprocesses staff the
    spool (default: 2 for an ephemeral spool, 0 for a named one — some
    other host's agents must drain it).

    ``ttl_seconds`` and ``fsync`` are recorded in a new spool; on an
    existing one they must match its record (:meth:`Spool.create`), and
    left ``None`` they adopt it.
    """

    def __init__(
        self, *, ttl_seconds: float | None = None, fsync: bool | None = None
    ) -> None:
        self.ttl_seconds = ttl_seconds
        self.fsync = fsync

    # -- the TuningSession-shaped surface -------------------------------

    run = TuningSession.run     # the session's own drain, over our stream

    def stream(self, plan, *, bus=None, resume=None):
        inner = self._stream(plan, TuningSession._coerce_resume(resume))
        if bus is None:
            return inner
        return TuningSession._published(inner, bus)

    # -- execution ------------------------------------------------------

    def _stream(self, plan, resume):
        cells = plan_cells(plan)
        root = Path(plan.spool_dir or tempfile.mkdtemp(prefix="repro-spool-"))
        ephemeral = plan.spool_dir is None
        spool = Spool.create(
            root, ttl_seconds=self.ttl_seconds, fsync=self.fsync
        )
        stall_seconds = STALL_TTLS * spool.ttl_seconds

        replayed = {
            cell.id: result
            for cell in cells
            if (result := resume_result(resume, cell.cell_key)) is not None
        }
        pending = [cell for cell in cells if cell.id not in replayed]
        # Every fleet's cells are seeded before the first fleet streams,
        # so workers never idle at a fleet boundary.
        spool.seed(pending)
        agents = WorkerFleet(spool)
        fleet_dead = False

        def fleet_events(fleet_cells):
            """One fleet's events in plan order — each cell's replayed,
            ledgered or ``WorkerLost`` block — then its merged cache
            stats (a fleet shares caches per worker, not per campaign)."""
            nonlocal fleet_dead, last_sign_of_life
            stats: dict = {}
            seq = 0
            for index, cell in enumerate(fleet_cells):
                if cell.id in replayed:
                    events = replay_events(
                        cell.campaign, index, "distributed",
                        replayed[cell.id], cell.cell_key, resume,
                    )
                else:
                    if not fleet_dead:
                        payload, last_sign_of_life = self._await_done(
                            spool, cell, agents, last_sign_of_life, stall_seconds
                        )
                        fleet_dead = payload is None
                    if fleet_dead:
                        events = [CampaignFailed(
                            campaign=cell.campaign,
                            error_type="WorkerLost",
                            error_message=(
                                f"no live worker on spool {root} for "
                                f"{stall_seconds:g}s; cell never completed"
                            ),
                            cell_key=cell.cell_key,
                        )]
                    else:
                        ledger = spool.ledgers_dir / payload["ledger"]
                        events = read_event_log(ledger)[0] if ledger.exists() else []
                for event in events:
                    if isinstance(event, CacheStats):
                        stats = _merge_stats(stats, event.stats)
                        continue
                    changes: dict = {"seq": seq}
                    if hasattr(event, "index"):
                        changes["index"] = index
                    if hasattr(event, "backend"):
                        changes["backend"] = "distributed"
                    yield dataclasses.replace(event, **changes)
                    seq += 1
            if stats:
                yield CacheStats(stats=stats, seq=seq)

        n = len(plan.queries)

        def run_fleet(position, fleet_plan):
            return fleet_result(
                fleet_plan, n, fleet_events(cells[position * n:(position + 1) * n]),
                time.perf_counter(),
            )

        try:
            if pending:
                agents.spawn(self._local_worker_count(plan))
            last_sign_of_life = time.time()
            if isinstance(plan, SweepPlan):
                return (yield from stream_sweep(plan, run_fleet))
            return (yield from run_fleet(0, plan))
        finally:
            agents.drain(terminate=fleet_dead)
            if not fleet_dead:
                # A worker killed between mark_done and release leaves a
                # lease on a *done* cell — debris no claimant ever
                # reclaims (the cell is not pending).  Sweep it so a
                # standing spool never accumulates phantom stale leases.
                spool.sweep_done_leases()
            if ephemeral and not fleet_dead:
                shutil.rmtree(root, ignore_errors=True)

    # -- waiting on the fleet -------------------------------------------

    def _await_done(self, spool, cell, fleet, last_sign_of_life, stall_seconds):
        """Block until ``cell`` completes; (payload, liveness) or (None, _).

        A ``None`` payload means the fleet went silent: no fresh worker
        heartbeat or lease, no running local worker and no new
        completion for ``stall_seconds``.
        """
        while True:
            _fire("coordinator.poll.delay")
            payload = spool.done_payload(cell.id)
            now = time.time()
            if payload is not None:
                return payload, now
            if spool.has_live_activity() or fleet.alive():
                last_sign_of_life = now
            elif now - last_sign_of_life > stall_seconds:
                return None, last_sign_of_life
            time.sleep(POLL_SECONDS)

    # -- local worker fleet ---------------------------------------------

    @staticmethod
    def _local_worker_count(plan) -> int:
        if plan.workers is not None:
            return plan.workers
        # A named spool implies a standing fleet elsewhere; an ephemeral
        # spool must staff itself.
        return 0 if plan.spool_dir is not None else 2
