"""Local ``repro worker`` subprocesses, by slot.

:class:`WorkerFleet` is the one place that knows how to start a worker
agent on a spool — command line, ``PYTHONPATH``, per-slot log file — and
how to kill, replace and drain one.  Workers take the lease TTL and the
ledger fsync from the spool itself, so the command line carries neither.
The coordinator's ephemeral local fleets and the soak supervisor's
churned fleets are both built on it; what differs between them (when to
respawn, how often, what to report) stays with the caller.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.distributed.spool import Spool

__all__ = ["WorkerFleet"]


class WorkerFleet:
    """A fixed set of worker slots draining ``spool``."""

    def __init__(
        self, spool: Spool, *, fault_plan: "str | Path | None" = None
    ) -> None:
        self.spool = spool
        self.fault_plan = fault_plan
        self._slots: list = []          # (Popen, open log file) per slot

    def __len__(self) -> int:
        return len(self._slots)

    def _launch(self, slot: int, *, respawn: bool):
        import repro

        env = os.environ.copy()
        src = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + os.pathsep + existing if existing else src
        # A respawned worker appends to the slot's log so the kill/restart
        # history of a churned slot reads as one continuous transcript.
        log = open(
            self.spool.root / f"worker-{slot}.log",
            "a" if respawn else "w",
            encoding="utf-8",
        )
        command = [
            sys.executable, "-m", "repro.cli", "worker", str(self.spool.root),
            "--exit-when-done",
        ]
        if self.fault_plan is not None:
            command += ["--fault-plan", str(self.fault_plan)]
        return (
            subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=env
            ),
            log,
        )

    def spawn(self, count: int) -> None:
        """Start ``count`` fresh worker slots."""
        for _ in range(count):
            self._slots.append(self._launch(len(self._slots), respawn=False))

    def alive(self, slot: int | None = None) -> bool:
        """Is ``slot``'s worker (default: any worker) still running?"""
        slots = self._slots if slot is None else [self._slots[slot]]
        return any(proc.poll() is None for proc, _ in slots)

    def kill(self, slot: int) -> None:
        """SIGKILL ``slot``'s worker (a no-op when it already exited)."""
        proc, _ = self._slots[slot]
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    def respawn(self, slot: int) -> None:
        """Replace ``slot``'s worker, killing it first when still running."""
        self.kill(slot)
        self._slots[slot][1].close()
        self._slots[slot] = self._launch(slot, respawn=True)

    def drain(self, *, terminate: bool) -> None:
        """Wait for every worker to exit, then insist.

        ``--exit-when-done`` agents leave on their own once the spool is
        finished; ``terminate=True`` asks them to stop first (a dead or
        abandoned episode has nothing left for them to finish).
        """
        if terminate:
            for proc, _ in self._slots:
                if proc.poll() is None:
                    proc.terminate()
        for proc, log in self._slots:
            try:
                proc.wait(timeout=2 * self.spool.ttl_seconds)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            log.close()
