"""Checkpoint/resume: replay recorded campaigns instead of re-running them.

The paper's core idea is never paying twice for work the system has
already done; this module extends that guarantee across *interrupted
runs*.  A :class:`~repro.api.events.JsonlRecorder` log written by
``--record`` is a checkpoint: every completed campaign's
:class:`~repro.api.events.CampaignFinished` line carries the full result
payload and a deterministic ``cell_key``
(:func:`~repro.api.events.campaign_cell_key`).  :class:`ResumeLog` parses
such a log — tolerating the truncated final line a crash leaves behind —
and hands the recorded results to the execution layer, which skips every
matching campaign, emits a :class:`~repro.api.events.CampaignSkipped`
marker plus the replayed finished event, and executes only what is
missing.  A resumed sweep therefore computes results bit-identical to an
uninterrupted one, at the cost of only the campaigns the interruption
lost.

Failed campaigns (:class:`~repro.api.events.CampaignFailed` lines) are
*not* treated as completed: resuming retries them.
"""

from __future__ import annotations

from pathlib import Path

from repro.api.events import (
    CampaignFinished,
    CampaignSkipped,
    campaign_finished,
    read_event_log,
)

__all__ = [
    "ResumeError",
    "ResumeLog",
    "discover_latest_log",
    "replay_events",
    "resume_result",
]


class ResumeError(ValueError):
    """A resume log could not be used; the message says why."""


def discover_latest_log(
    directory: str | Path, exclude: "set[Path] | frozenset" = frozenset()
) -> Path:
    """The most recently modified ``*.jsonl`` log under ``directory``.

    Powers ``--resume auto``: instead of naming the interrupted run's
    record file, the operator points at (or implies, via ``--record``) the
    record directory and the newest log wins.  ``exclude`` removes paths
    that must not be considered — typically the *current* run's ``--record``
    target, which would otherwise shadow the log being resumed.
    Modification times compare at nanosecond resolution and ties break on
    the full lexicographic path, so discovery picks the same log on every
    run — filesystems with coarse timestamps (1s/2s granularity) routinely
    stamp two logs identically, and directory iteration order is not
    stable across filesystems.
    Zero-byte files are skipped: a recorder (or distributed worker) that
    died between ``open`` and its first write leaves an empty ledger,
    which is the *newest* file precisely when it matters — picking it
    would resume from nothing while a usable log sits right beside it.
    Raises :class:`ResumeError` when the directory holds no candidate.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ResumeError(
            f"cannot auto-discover a resume log: {directory} is not a directory"
        )
    excluded = {Path(path).resolve() for path in exclude}
    candidates = sorted(
        (
            path
            for path in directory.glob("*.jsonl")
            if path.is_file()
            and path.stat().st_size > 0
            and path.resolve() not in excluded
        ),
        key=lambda path: (path.stat().st_mtime_ns, str(path)),
    )
    if not candidates:
        raise ResumeError(
            f"cannot auto-discover a resume log: no *.jsonl record found in "
            f"{directory} (run with --record first, or name the log explicitly)"
        )
    return candidates[-1]


class ResumeLog:
    """A parsed JSONL event log, indexed for resuming by ``cell_key``.

    ``completed`` maps each campaign's deterministic ``cell_key`` to its
    recorded :class:`~repro.api.events.CampaignFinished` (result payload
    rebuilt into a live
    :class:`~repro.experiments.campaigns.CampaignResult`).  Pass the log
    (or its path, to the session) as ``resume=`` to
    :meth:`TuningSession.run`/``stream`` or :meth:`TuningService.stream` —
    the one form a resume source takes below the session — or use
    :meth:`result_for` directly.
    """

    def __init__(
        self,
        path: str | Path,
        events: list,
        n_malformed_lines: int = 0,
    ) -> None:
        self.path = Path(path)
        #: Lines that did not parse (crash-truncated tail, foreign data).
        self.n_malformed_lines = n_malformed_lines
        self.completed: dict[str, CampaignFinished] = {}
        for event in events:
            # Only a finished event with a replayable result counts as a
            # checkpoint; an old log without payloads re-executes.
            if (
                isinstance(event, CampaignFinished)
                and event.cell_key
                and event.result is not None
            ):
                self.completed[event.cell_key] = event

    @classmethod
    def load(cls, path: str | Path) -> "ResumeLog":
        path = Path(path)
        try:
            events, n_malformed = read_event_log(path)
        except FileNotFoundError:
            raise ResumeError(f"resume log {path} does not exist") from None
        if not events and n_malformed:
            raise ResumeError(
                f"resume log {path} contains no parseable events "
                f"({n_malformed} malformed line(s)) — is it a "
                "--record JSONL log?"
            )
        return cls(path, events, n_malformed_lines=n_malformed)

    @property
    def n_completed(self) -> int:
        return len(self.completed)

    def result_for(self, cell_key: str):
        """The recorded ``CampaignResult`` for ``cell_key``, or ``None``."""
        event = self.completed.get(cell_key)
        return None if event is None else event.result

    def covers(self, cell_keys) -> "tuple[list[str], list[str]]":
        """Split ``cell_keys`` into (recorded, missing), preserving order."""
        recorded, missing = [], []
        for key in cell_keys:
            (recorded if key in self.completed else missing).append(key)
        return recorded, missing

    def __repr__(self) -> str:
        return (
            f"ResumeLog({str(self.path)!r}, "
            f"{self.n_completed} completed campaign(s))"
        )


def resume_result(resume: "ResumeLog | None", cell_key: str):
    """The ``CampaignResult`` ``resume`` records for ``cell_key``, or
    ``None`` (also when there is no log to resume from)."""
    return None if resume is None else resume.result_for(cell_key)


def replay_events(campaign, index, backend, result, cell_key, resume):
    """The event block that stands in for re-executing a recorded campaign:
    a :class:`~repro.api.events.CampaignSkipped` marker, then the replayed
    :class:`~repro.api.events.CampaignFinished` carrying ``result``."""
    yield CampaignSkipped(
        campaign=campaign,
        index=index,
        backend=backend,
        n_steps=result.n_processes,
        resumed_from=str(getattr(resume, "path", "") or ""),
        cell_key=cell_key,
    )
    yield campaign_finished(campaign, index, backend, result, cell_key)
