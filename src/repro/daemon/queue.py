"""Per-tenant priority dispatch for the daemon.

The control plane accepts plan submissions from many tenants but
executes them through one long-lived session.  Admission lives in
:meth:`~repro.daemon.server.TuningDaemon.submit`, which refuses a
submission beyond a tenant's ``max_depth`` queued jobs with
:class:`QueueFull` (HTTP 429 upstream) and any submission once the
daemon drains with :class:`QueueDraining` (HTTP 503 upstream).  The
queue itself admits every job it is given — restart recovery must never
drop a manifest-recorded job — and keeps:

* **priority ordering** — jobs dispatch highest ``priority`` first, FIFO
  within a priority level (a stable total order: ties break on the
  submission sequence number, so two equal submissions can never swap);
* **per-tenant depths** — what admission reads;
* **draining** — once :meth:`close` is called (graceful shutdown)
  ``pop`` returns ``None`` as soon as the queue is empty, letting the
  dispatcher thread exit cleanly while leftover jobs stay queued in the
  manifest for the next ``--resume auto`` start.

The queue is plain ``threading`` — it synchronises the HTTP handler
threads with the single dispatcher thread inside one process.
"""

from __future__ import annotations

import heapq
import itertools
import threading

__all__ = ["QueueDraining", "QueueFull", "TenantQueue"]


class QueueFull(RuntimeError):
    """A tenant's queue slice is at capacity; the submission was refused."""

    def __init__(self, tenant: str, depth: int) -> None:
        self.tenant = tenant
        self.depth = depth
        super().__init__(
            f"tenant {tenant!r} already has {depth} queued job(s) (the "
            "admission limit); retry after some complete"
        )


class QueueDraining(RuntimeError):
    """The daemon is shutting down; no further submissions are admitted."""

    def __init__(self) -> None:
        super().__init__(
            "the daemon is draining (shutdown in progress); resubmit after "
            "it restarts"
        )


class TenantQueue:
    """A priority-ordered, multi-tenant job queue.

    ``max_depth`` is each tenant's slice, which ``TuningDaemon.submit``
    enforces against :meth:`depth`.
    """

    def __init__(self, max_depth: int = 16) -> None:
        if not isinstance(max_depth, int) or max_depth < 1:
            raise ValueError(
                f"max_depth must be a positive integer, got {max_depth!r}"
            )
        self.max_depth = max_depth
        self._lock = threading.Condition()
        self._heap: list = []           # (-priority, seq, job)
        self._seq = itertools.count()
        self._depths: dict[str, int] = {}
        self._draining = False

    # -- producers ------------------------------------------------------

    def push(self, job) -> None:
        """Queue ``job``; its ``tenant``/``priority`` attributes decide
        placement."""
        with self._lock:
            self._depths[job.tenant] = self._depths.get(job.tenant, 0) + 1
            heapq.heappush(self._heap, (-job.priority, next(self._seq), job))
            self._lock.notify()

    # -- the dispatcher -------------------------------------------------

    def pop(self, timeout: float | None = None):
        """The next job to run, or ``None`` on timeout / empty-and-draining.

        Blocks up to ``timeout`` seconds (forever when ``None``) for a job
        to arrive.  Once draining, an empty queue returns ``None``
        immediately — the dispatcher's exit signal.
        """
        with self._lock:
            while not self._heap:
                if self._draining:
                    return None
                if not self._lock.wait(timeout=timeout):
                    return None
            _, _, job = heapq.heappop(self._heap)
            depth = self._depths.get(job.tenant, 0)
            if depth <= 1:
                self._depths.pop(job.tenant, None)
            else:
                self._depths[job.tenant] = depth - 1
            return job

    # -- introspection / shutdown --------------------------------------

    def depth(self, tenant: str | None = None) -> int:
        with self._lock:
            if tenant is not None:
                return self._depths.get(tenant, 0)
            return len(self._heap)

    def depths(self) -> dict[str, int]:
        """Queued jobs per tenant (tenants with zero queued are absent)."""
        with self._lock:
            return dict(self._depths)

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def close(self) -> None:
        """Start draining: ``pop`` returns ``None`` once the queue is empty."""
        with self._lock:
            self._draining = True
            self._lock.notify_all()
