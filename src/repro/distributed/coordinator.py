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
:meth:`~repro.api.session.TuningSession.stream`: it seeds the spool,
optionally spawns local worker agents (``repro worker`` subprocesses),
then re-emits every cell's ledger **in plan order** as one seq-restamped
event stream — the same typed events, the same ordering guarantees, the
same ``StopIteration.value`` result — so recorders, progress printers,
the daemon and ``--resume`` all work unchanged on top of a fleet.

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
    CampaignFinished,
    SweepFinished,
    read_event_log,
)
from repro.api.plans import CampaignPlan, PlanError, SweepPlan
from repro.api.resume import replay_events, resume_outcome
from repro.api.session import SessionResult, SweepResult, TuningSession
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
    """Flatten ``plan`` into spool cells, in plan (emission) order."""
    if isinstance(plan, CampaignPlan):
        fleets = [(None, plan)]
    elif isinstance(plan, SweepPlan):
        fleets = [(plan.scenario_label(cell), cell) for cell in plan.expand()]
    else:
        raise PlanError(
            f"the distributed backend executes campaign and sweep plans, "
            f"not a {type(plan).__name__}"
        )
    cells: list[SpoolCell] = []
    for scenario, fleet in fleets:
        for fleet_index, (token, spec) in enumerate(zip(fleet.queries, fleet.specs())):
            cells.append(SpoolCell(
                index=len(cells),
                cell_key=spec.cell_key,
                campaign=spec.name,
                plan=_derived_plan(fleet, token),
                scenario=scenario,
                n_steps=len(spec.multipliers),
                fleet_index=fleet_index,
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
        from repro.service import CampaignExecutionError

        started = time.perf_counter()
        cells = plan_cells(plan)
        root = Path(plan.spool_dir or tempfile.mkdtemp(prefix="repro-spool-"))
        ephemeral = plan.spool_dir is None
        spool = Spool.create(
            root, ttl_seconds=self.ttl_seconds, fsync=self.fsync
        )
        stall_seconds = STALL_TTLS * spool.ttl_seconds

        seq = 0
        def stamped(event, cell):
            nonlocal seq
            changes: dict = {"seq": seq}
            if cell.scenario is not None:
                changes["scenario"] = cell.scenario
            if hasattr(event, "index"):
                changes["index"] = cell.fleet_index
            if hasattr(event, "backend"):
                changes["backend"] = "distributed"
            seq += 1
            return dataclasses.replace(event, **changes)

        replayed = {
            cell.id: outcome
            for cell in cells
            if (outcome := resume_outcome(resume, cell.cell_key)) is not None
        }
        pending = [cell for cell in cells if cell.id not in replayed]
        spool.seed(pending)

        outcomes: dict[int, object] = {}      # cell.index -> CampaignOutcome
        failures: list = []
        scenario_stats: dict = {}             # per-scenario cache counters
        fleet = WorkerFleet(spool)
        fleet_dead = False
        try:
            if pending:
                fleet.spawn(self._local_worker_count(plan))
            last_sign_of_life = time.time()
            for position, cell in enumerate(cells):
                if cell.id in replayed:
                    outcomes[cell.index] = replayed[cell.id]
                    for event in replay_events(
                        cell.campaign, cell.fleet_index, "distributed",
                        replayed[cell.id], cell.cell_key, resume,
                    ):
                        yield stamped(event, cell)
                else:
                    if not fleet_dead:
                        payload, last_sign_of_life = self._await_done(
                            spool, cell, fleet, last_sign_of_life, stall_seconds
                        )
                        fleet_dead = payload is None
                    if fleet_dead:
                        failure = stamped(CampaignFailed(
                            campaign=cell.campaign,
                            index=cell.fleet_index,
                            backend="distributed",
                            error_type="WorkerLost",
                            error_message=(
                                f"no live worker on spool {root} for "
                                f"{stall_seconds:g}s; cell never completed"
                            ),
                            cell_key=cell.cell_key,
                        ), cell)
                        failures.append(failure)
                        yield failure
                    else:
                        yield from self._emit_cell(
                            stamped, spool, cell, payload, outcomes, failures,
                            scenario_stats,
                        )
                # Flush this scenario's merged cache stats once its last
                # cell has streamed (cells arrive in plan order, so the
                # scenario changes exactly at fleet boundaries).
                next_cell = cells[position + 1] if position + 1 < len(cells) else None
                if next_cell is None or next_cell.scenario != cell.scenario:
                    stats = scenario_stats.pop(cell.scenario, None)
                    if stats is not None:
                        yield stamped(CacheStats(stats=stats), cell)
        finally:
            fleet.drain(terminate=fleet_dead)
            if not fleet_dead:
                # A worker killed between mark_done and release leaves a
                # lease on a *done* cell — debris no claimant ever
                # reclaims (the cell is not pending).  Sweep it so a
                # standing spool never accumulates phantom stale leases.
                spool.sweep_done_leases()
            if ephemeral and not fleet_dead:
                shutil.rmtree(root, ignore_errors=True)

        wall = time.perf_counter() - started
        if isinstance(plan, SweepPlan):
            yield SweepFinished(
                n_scenarios=plan.n_scenarios,
                n_campaigns=len(outcomes),
                wall_seconds=wall,
                seq=seq,
            )
            if failures:
                raise CampaignExecutionError(failures)
            return self._sweep_result(plan, cells, outcomes, wall)
        if failures:
            raise CampaignExecutionError(failures, outcomes)
        return self._campaign_result(plan, cells, outcomes, wall)

    # -- per-cell emission ----------------------------------------------

    def _emit_cell(
        self, stamped, spool, cell, payload, outcomes, failures, scenario_stats
    ):
        """Stream the authoritative attempt's ledger, restamped."""
        try:
            events, _ = read_event_log(spool.ledgers_dir / payload["ledger"])
        except FileNotFoundError:
            events = []
        for event in events:
            if isinstance(event, CacheStats):
                # Per-cell stats merge into one per-scenario report —
                # a fleet shares caches per worker, not per campaign.
                scenario_stats[cell.scenario] = _merge_stats(
                    scenario_stats.get(cell.scenario) or {}, event.stats
                )
                continue
            if isinstance(event, CampaignFinished) and event.outcome is not None:
                event.outcome.backend = "distributed"
                outcomes[cell.index] = event.outcome
            event = stamped(event, cell)
            if isinstance(event, CampaignFailed):
                failures.append(event)
            yield event

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

    # -- results --------------------------------------------------------

    @staticmethod
    def _campaign_result(plan, cells, outcomes, wall):
        return SessionResult(
            plan=plan,
            outcomes=[outcomes[cell.index] for cell in cells],
            wall_seconds=wall,
            backend="distributed",
        )

    @staticmethod
    def _sweep_result(plan, cells, outcomes, wall):
        results = []
        for fleet in plan.expand():
            label = plan.scenario_label(fleet)
            fleet_cells = [cell for cell in cells if cell.scenario == label]
            fleet_outcomes = [outcomes[cell.index] for cell in fleet_cells]
            results.append(SessionResult(
                plan=fleet,
                outcomes=fleet_outcomes,
                wall_seconds=sum(o.wall_seconds for o in fleet_outcomes),
                backend="distributed",
            ))
        return SweepResult(plan=plan, results=results, wall_seconds=wall)
