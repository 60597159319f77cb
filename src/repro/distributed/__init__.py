"""Multi-host campaign fleets: a spool of claimable cells plus agents.

The distributed executor scales campaign fleets past one host with
three small parts sharing nothing but a directory:

* :class:`~repro.distributed.spool.Spool` — the work spool: every
  campaign cell of a plan as a claimable JSON unit, with atomic
  hard-link claims, heartbeat leases and exclusive completion markers,
  plus the settings (lease TTL, ledger fsync) every party reads from it;
* :class:`~repro.distributed.worker.WorkerAgent` (``repro worker``) —
  a long-lived loop claiming cells and executing them through the
  ordinary :class:`~repro.api.session.TuningSession`, streaming typed
  events to per-attempt fsynced JSONL ledgers;
* :class:`~repro.distributed.coordinator.DistributedSession`
  (``repro run-plan`` on any plan with ``backend = "distributed"``) —
  seeds the spool from a plan and merges the workers' ledgers back into
  one in-order event stream, bit-identical to a single-host run.
"""

from repro.distributed.coordinator import DistributedSession, plan_cells
from repro.distributed.spool import (
    DEFAULT_TTL_SECONDS,
    LeaseLost,
    Spool,
    SpoolCell,
    SpoolError,
    cell_id_for,
)
from repro.distributed.worker import WorkerAgent, default_worker_id

__all__ = [
    "DEFAULT_TTL_SECONDS",
    "DistributedSession",
    "LeaseLost",
    "Spool",
    "SpoolCell",
    "SpoolError",
    "WorkerAgent",
    "cell_id_for",
    "default_worker_id",
    "plan_cells",
]
