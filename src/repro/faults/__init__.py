"""Failpoint plane: deterministic fault injection across the stack.

Named injection sites (:data:`~repro.faults.plan.FAULT_SITES`) are
compiled into the distributed spool, the worker agent, the ledger
writer, the coordinator and the daemon client/server; a frozen, seeded
:class:`FaultPlan` decides which visits of which site misbehave and how
— so every fault schedule is a small replayable file, exactly like a
:class:`~repro.scenarios.TraceSpec` workload or a
:class:`~repro.scenarios.ChaosSpec` engine-chaos schedule.

This package root stays dependency-free (plan + plane only, importing
the stdlib and the stdlib-only :mod:`repro.utils.config` that decodes
plan files) so :mod:`repro.api.events` and the spool can mark their
sites without import cycles.  The heavier pieces live one level down:
:mod:`repro.faults.supervisor` (the ``repro soak`` fleet supervisor and
churn schedules) and :mod:`repro.faults.invariants` (the standing
post-episode assertions).
"""

from repro.faults.plan import (
    FAULT_SITES,
    FaultError,
    FaultPlan,
    FaultRule,
    load_fault_plan,
)
from repro.faults.plane import (
    FaultPlane,
    activate,
    active_plane,
    deactivate,
    fire,
    trip,
)

__all__ = [
    "FAULT_SITES",
    "FaultError",
    "FaultPlan",
    "FaultPlane",
    "FaultRule",
    "activate",
    "active_plane",
    "deactivate",
    "fire",
    "load_fault_plan",
    "trip",
]
