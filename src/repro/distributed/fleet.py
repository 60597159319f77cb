"""Local ``repro worker`` subprocesses, by slot.

:class:`WorkerFleet` is the one place that knows how to start a worker
agent on a spool — command line, ``PYTHONPATH``, per-slot log file — and
how to kill, replace and drain one.  The coordinator's ephemeral local
fleets and the soak supervisor's churned fleets are both built on it;
what differs between them (when to respawn, how often, what to report)
stays with the caller.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

__all__ = ["WorkerFleet"]


class WorkerFleet:
    """A fixed set of worker slots draining the spool at ``root``.

    Slot numbers wrap (``slot % len(fleet)``), so a kill schedule written
    for a wider fleet still lands on a live slot of a narrower one.
    """

    def __init__(
        self,
        root: "str | Path",
        *,
        ttl_seconds: float,
        fsync: bool = True,
        fault_plan: "str | Path | None" = None,
    ) -> None:
        self.root = Path(root)
        self.ttl_seconds = ttl_seconds
        self.fsync = fsync
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
            self.root / f"worker-{slot}.log",
            "a" if respawn else "w",
            encoding="utf-8",
        )
        command = [
            sys.executable, "-m", "repro.cli", "worker", str(self.root),
            "--exit-when-done",
            "--ttl", str(self.ttl_seconds),
        ]
        if not self.fsync:
            command.append("--no-fsync")
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
        slots = self._slots if slot is None else [self._slots[slot % len(self)]]
        return any(proc.poll() is None for proc, _ in slots)

    def kill(self, slot: int) -> None:
        """SIGKILL ``slot``'s worker (a no-op when it already exited)."""
        proc, _ = self._slots[slot % len(self)]
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    def respawn(self, slot: int) -> None:
        """Replace ``slot``'s worker, killing it first when still running."""
        index = slot % len(self)
        self.kill(index)
        self._slots[index][1].close()
        self._slots[index] = self._launch(index, respawn=True)

    def kill_due(self, spool, schedule: list):
        """Kill every slot whose done-cell threshold the spool has reached.

        ``schedule`` holds ``(after_done, slot)`` pairs sorted by
        threshold; due entries are popped off its front and yielded one
        at a time, *after* the kill, so the caller decides per kill
        whether and when to :meth:`respawn`.  Thresholds count completed
        cells, not seconds: the same schedule replays on any host speed.
        """
        while schedule and len(spool.done_ids()) >= schedule[0][0]:
            after_done, slot = schedule.pop(0)
            self.kill(slot)
            yield after_done, slot

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
                proc.wait(timeout=2 * self.ttl_seconds)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            log.close()
