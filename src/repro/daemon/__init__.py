"""The ``repro serve`` control plane: a persistent tuning daemon.

:class:`~repro.daemon.server.TuningDaemon` hosts one long-lived
:class:`~repro.api.session.TuningSession` (shared cache plane) behind a
stdlib HTTP server; plans arrive over ``POST /v1/plans``, queue through
per-tenant admission control, execute on a single dispatcher, stream
their typed events live, and persist everything to fsynced JSONL ledgers
so ``--resume auto`` survives a SIGKILL.  :class:`~repro.daemon.client.DaemonClient` is the matching
client (``repro submit`` / ``repro jobs``).
"""

from repro.daemon.client import DaemonClient, DaemonClientError
from repro.daemon.jobs import JOB_STATES, Job, JobStore
from repro.daemon.metrics_endpoint import render_metrics
from repro.daemon.queue import QueueDraining, QueueFull, TenantQueue
from repro.daemon.server import TuningDaemon

__all__ = [
    "DaemonClient",
    "DaemonClientError",
    "JOB_STATES",
    "Job",
    "JobStore",
    "QueueDraining",
    "QueueFull",
    "TenantQueue",
    "TuningDaemon",
    "render_metrics",
]
