"""The shared-directory work spool: claimable cells with leases.

A spool is a directory (local, NFS, or any shared filesystem) that turns
a campaign fleet into claimable work units.  Every campaign cell of a
:class:`~repro.api.plans.CampaignPlan`/:class:`~repro.api.plans.SweepPlan`
becomes one JSON file keyed by its deterministic ``cell_key``
(:func:`~repro.api.events.campaign_cell_key`), and any worker on any
host can claim, execute and complete it — idempotently, because the
cell key pins the exact computation and the per-cell JSONL ledger is
bit-identical however many times the cell runs.

Layout (all paths under one root)::

    spool.json                      settings: lease TTL, ledger fsync
    cells/<cell_id>.json            the work unit (derived plan + key)
    leases/<cell_id>.lease          claim: owner id inside, heartbeat mtime
    ledgers/<cell_id>.<owner>.jsonl fsynced event ledger per attempt
    done/<cell_id>.json             completion marker (exactly one winner)
    workers/<worker_id>.json        worker liveness, heartbeat mtime

Correctness rests on three POSIX atomicities (all of which NFSv3+
honours):

* **claim** — ``os.link`` of a private temp file onto the lease path;
  creating a hard link is atomic and fails with ``EEXIST`` when the
  lease exists, so exactly one claimant wins;
* **reclaim** — an expired lease (heartbeat mtime older than
  ``ttl_seconds``) is ``os.rename``\\ d aside to a unique stale name;
  rename succeeds for exactly one stealer, and a crashed host is from
  then on just unclaimed cells;
* **completion** — the done marker is also ``os.link``\\ ed into place,
  so when a presumed-dead worker and its reclaimer both finish, exactly
  one attempt becomes the authoritative result (the marker names the
  winning attempt's ledger file).

The lease TTL is a protocol constant: a failure detector is only sound
when every party uses the same timeout.  So whoever creates the spool
(:meth:`Spool.create`) publishes it once in ``spool.json`` — with the
ledger fsync setting — and every worker, reclaimer and stall check
reads it from there; no party sets its own.

Heartbeats are ``os.utime`` on the lease — a metadata write, no content
race with readers.  Leases carry their owner id, so a worker whose lease
was stolen (it was presumed dead but was merely slow) detects the loss
on its next heartbeat and abandons the attempt instead of double
completing.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from repro.faults.plane import fire as _fire

__all__ = [
    "DEFAULT_TTL_SECONDS",
    "LeaseLost",
    "Spool",
    "SpoolCell",
    "SpoolError",
    "cell_id_for",
]

#: Default lease/worker heartbeat time-to-live.  A worker heartbeats at
#: a quarter of this, so a lease survives several missed beats before a
#: reclaim — slow NFS metadata writes must not look like death.
DEFAULT_TTL_SECONDS = 15.0

#: The settings file at a spool's root, and the format it declares.
SETTINGS_FILE = "spool.json"
SETTINGS_FORMAT = "repro.spool/v1"


class SpoolError(RuntimeError):
    """A spool file is unreadable or corrupt; the message names the file.

    Raised instead of a bare ``json.JSONDecodeError`` so an operator
    staring at a wedged fleet sees *which* cell or done marker carries a
    torn final write, not an anonymous parse error.
    """


class LeaseLost(RuntimeError):
    """This worker's lease was reclaimed — it was presumed dead.

    The only correct reaction is to abandon the in-flight attempt: a
    reclaimer owns the cell now, and the done-marker link guarantees at
    most one attempt publishes a result anyway.
    """


def cell_id_for(index: int, cell_key: str) -> str:
    """A filesystem-safe, deterministic id for one cell.

    Cell keys contain ``:`` and ``/`` (they are readable grep targets,
    not filenames), so filenames use the plan position plus a digest.
    The index prefix keeps directory listings in plan order.
    """
    digest = hashlib.sha1(cell_key.encode()).hexdigest()[:12]
    return f"{index:04d}-{digest}"


@dataclass(frozen=True)
class SpoolCell:
    """One claimable work unit: a single-campaign plan plus identity.

    A cell carries no sweep or fleet position: the coordinator streams
    cells in plan order and stamps each event's scenario and fleet index
    itself.  :meth:`from_dict` reads these keys only, so cell files that
    still hold older keys load unchanged.
    """

    index: int                      # position in the dispatched plan
    cell_key: str                   # deterministic campaign identity
    campaign: str                   # resolved query name (event labels)
    plan: dict = field(hash=False)  # derived single-campaign CampaignPlan

    @property
    def id(self) -> str:
        return cell_id_for(self.index, self.cell_key)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "cell_key": self.cell_key,
            "campaign": self.campaign,
            "plan": self.plan,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SpoolCell":
        return cls(
            index=data["index"],
            cell_key=data["cell_key"],
            campaign=data["campaign"],
            plan=data["plan"],
        )


def _read_json(path: Path, what: str) -> dict:
    """Parse one spool JSON file, naming it on corruption.

    ``FileNotFoundError`` propagates (absence has per-caller meaning —
    a missing done marker is "not done", a missing cell is a caller
    bug); a *present but unparseable* file is always a
    :class:`SpoolError` — the signature of a torn write.
    """
    text = path.read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as error:
        raise SpoolError(
            f"{what} {path} is corrupt or truncated (torn write?): {error}"
        ) from None


def _write_durable(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` and fsync it (content must not be lost
    to a crash once another host can observe the file)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())


def _publish_once(target: Path, payload: dict) -> bool:
    """Publish ``payload`` at ``target`` unless a file is already there.

    The content is fsynced to a private temp file first, then
    ``os.link``\\ ed into place: readers never see a partial file, and
    exactly one of several racing publishers wins (True).
    """
    tmp = target.parent / f".publish-{uuid.uuid4().hex}"
    _write_durable(tmp, json.dumps(payload, sort_keys=True) + "\n")
    try:
        os.link(tmp, target)
        return True
    except FileExistsError:
        return False
    finally:
        tmp.unlink(missing_ok=True)


class Spool:
    """One work spool rooted at a (possibly shared) directory.

    Opening a spool reads nothing: its lease TTL and ledger fsync come
    from ``spool.json`` when first needed, and only :meth:`create`
    writes that file.
    """

    def __init__(self, root: "str | Path") -> None:
        self.root = Path(root)
        self.cells_dir = self.root / "cells"
        self.leases_dir = self.root / "leases"
        self.ledgers_dir = self.root / "ledgers"
        self.done_dir = self.root / "done"
        self.workers_dir = self.root / "workers"
        self._cell_cache: dict[str, SpoolCell] = {}
        self._settings: dict | None = None

    @classmethod
    def create(
        cls,
        root: "str | Path",
        *,
        ttl_seconds: float | None = None,
        fsync: bool | None = None,
    ) -> "Spool":
        """Create the spool at ``root``, or join the one already there.

        A new spool records ``ttl_seconds`` (default
        :data:`DEFAULT_TTL_SECONDS`) and ``fsync`` (default on) in
        ``spool.json``, published once like a done marker.  An existing
        spool keeps what it recorded: a value left ``None`` adopts the
        record, and a named value that differs from it raises
        :class:`SpoolError` naming both — before anything is seeded.
        """
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be positive, got {ttl_seconds}")
        spool = cls(root)
        for directory in (
            spool.cells_dir, spool.leases_dir, spool.ledgers_dir,
            spool.done_dir, spool.workers_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)
        _publish_once(spool.root / SETTINGS_FILE, {
            "format": SETTINGS_FORMAT,
            "ttl_seconds": float(
                DEFAULT_TTL_SECONDS if ttl_seconds is None else ttl_seconds
            ),
            "fsync": True if fsync is None else fsync,
        })
        recorded = spool.settings()
        for key, value in (("ttl_seconds", ttl_seconds), ("fsync", fsync)):
            if value is not None and value != recorded[key]:
                raise SpoolError(
                    f"spool {spool.root} records {key} = {recorded[key]!r}, "
                    f"but this coordinator names {key} = {value!r}; name "
                    "nothing to adopt the spool's value, or use a new spool"
                )
        return spool

    def settings(self) -> dict | None:
        """The settings the spool's creator recorded; ``None`` until it
        has published them (the directory is not a spool yet)."""
        if self._settings is None:     # published once: never changes
            path = self.root / SETTINGS_FILE
            try:
                settings = _read_json(path, "spool settings")
            except FileNotFoundError:
                return None
            if settings.get("format") != SETTINGS_FORMAT:
                raise SpoolError(f"{path} is not a {SETTINGS_FORMAT} file")
            self._settings = settings
        return self._settings

    def _recorded(self, key: str):
        if self.settings() is None:
            raise SpoolError(
                f"{self.root} has no {SETTINGS_FILE}: no coordinator has "
                "created a spool there yet"
            )
        return self._settings[key]

    @property
    def ttl_seconds(self) -> float:
        """The lease/worker heartbeat time-to-live every party uses."""
        return self._recorded("ttl_seconds")

    @property
    def fsync(self) -> bool:
        """Whether workers fsync their event ledgers per event block."""
        return self._recorded("fsync")

    # -- cells ----------------------------------------------------------

    def seed(self, cells) -> int:
        """Record every cell not already spooled; idempotent.

        Returns how many cells were newly written.  Existing cell files
        are left untouched — cell ids are deterministic, so re-seeding
        the same plan (a coordinator restart, a second dispatcher) finds
        its cells already in place.
        """
        seeded = 0
        for cell in cells:
            target = self.cells_dir / f"{cell.id}.json"
            # A concurrent seeder may win the link; same deterministic cell.
            if not target.exists() and _publish_once(target, cell.to_dict()):
                seeded += 1
        return seeded

    def cell(self, cell_id: str) -> SpoolCell:
        cached = self._cell_cache.get(cell_id)
        if cached is not None:
            return cached
        path = self.cells_dir / f"{cell_id}.json"
        cell = SpoolCell.from_dict(_read_json(path, "spool cell"))
        self._cell_cache[cell_id] = cell
        return cell

    def cell_ids(self) -> list[str]:
        """Every spooled cell id, in plan (index-prefix) order."""
        if not self.cells_dir.is_dir():
            return []
        return sorted(path.stem for path in self.cells_dir.glob("*.json"))

    def pending_ids(self) -> list[str]:
        """Cells without a completion marker, in plan order."""
        done = self.done_ids()
        return [cell_id for cell_id in self.cell_ids() if cell_id not in done]

    # -- leases ---------------------------------------------------------

    def _lease_path(self, cell_id: str) -> Path:
        return self.leases_dir / f"{cell_id}.lease"

    def claim(self, cell_id: str, owner: str) -> bool:
        """Try to claim ``cell_id`` for ``owner``; True on success.

        An unexpired lease held by anyone (including a previous
        incarnation of ``owner``) refuses the claim; an expired one is
        stolen first — exactly one concurrent stealer wins the rename.
        """
        lease = self._lease_path(cell_id)
        tmp = self.leases_dir / f".claim-{uuid.uuid4().hex}"
        _write_durable(
            tmp,
            json.dumps({"owner": owner, "cell": cell_id}, sort_keys=True) + "\n",
        )
        _fire("spool.claim.race-delay")
        try:
            while True:
                try:
                    os.link(tmp, lease)
                    return True
                except FileExistsError:
                    if not self._expire(lease):
                        return False
        finally:
            tmp.unlink(missing_ok=True)

    def _heartbeat_age(self, mtime: float, now: float) -> float:
        """Age of a heartbeat mtime, robust to clock skew.

        A mtime *ahead* of our clock (NFS server skew, a backward clock
        step on this host) would make ``now - mtime`` negative and the
        heartbeat look fresh forever.  Skew within one TTL is plausible
        for a live heartbeater and clamps to a fresh age of ``0``; a
        mtime further in the future than any live writer plus skew could
        produce is implausible and treated as already stale (``inf``) —
        a lease that can never be refreshed must be reclaimable.
        """
        age = now - mtime
        if age >= 0:
            return age
        if -age <= self.ttl_seconds:
            return 0.0
        return float("inf")

    def _expire(self, lease: Path) -> bool:
        """Remove ``lease`` if its heartbeat went stale; True if the
        caller may retry its claim."""
        try:
            age = self._heartbeat_age(lease.stat().st_mtime, time.time())
        except FileNotFoundError:
            return True                 # released/stolen concurrently
        if age <= self.ttl_seconds:
            return False
        stale = self.leases_dir / f".stale-{uuid.uuid4().hex}"
        try:
            os.rename(lease, stale)     # one stealer wins
        except FileNotFoundError:
            return True                 # another stealer beat us; retry
        stale.unlink(missing_ok=True)
        return True

    def lease_owner(self, cell_id: str) -> str | None:
        try:
            data = json.loads(self._lease_path(cell_id).read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        return data.get("owner")

    def heartbeat(self, cell_id: str, owner: str) -> None:
        """Refresh the lease's liveness; raises :class:`LeaseLost` when
        the lease vanished or belongs to someone else."""
        _fire("spool.heartbeat.stall")
        lease = self._lease_path(cell_id)
        if self.lease_owner(cell_id) != owner:
            raise LeaseLost(
                f"lease on {cell_id} is no longer held by {owner!r} "
                "(reclaimed after missed heartbeats?)"
            )
        try:
            os.utime(lease)
        except FileNotFoundError:
            raise LeaseLost(f"lease on {cell_id} vanished under {owner!r}") from None

    def release(self, cell_id: str, owner: str) -> None:
        """Drop ``owner``'s lease (no-op when it is not theirs anymore)."""
        if self.lease_owner(cell_id) == owner:
            self._lease_path(cell_id).unlink(missing_ok=True)

    def _heartbeat_ages(self, directory: Path, pattern: str):
        """``(stem, heartbeat age)`` of every file matching ``pattern``."""
        if not directory.is_dir():
            return
        now = time.time()
        for path in directory.glob(pattern):
            try:
                yield path.stem, self._heartbeat_age(path.stat().st_mtime, now)
            except FileNotFoundError:
                continue                # released/stolen concurrently

    def stale_leases(self) -> list[str]:
        """Cell ids whose lease outlived its TTL (hygiene checks)."""
        return sorted(
            cell_id
            for cell_id, age in self._heartbeat_ages(self.leases_dir, "*.lease")
            if age > self.ttl_seconds
        )

    def leases(self) -> list[str]:
        """Cell ids currently under any lease (stale or fresh)."""
        if not self.leases_dir.is_dir():
            return []
        return sorted(path.stem for path in self.leases_dir.glob("*.lease"))

    # -- ledgers + completion -------------------------------------------

    def ledger_path(self, cell_id: str, owner: str) -> Path:
        """Where ``owner``'s attempt at ``cell_id`` records its events.

        Per-attempt files (not one file per cell): a presumed-dead
        worker may still be writing while its reclaimer re-runs the
        cell, and two writers on one file would interleave garbage.  The
        done marker names the attempt that counts.
        """
        safe_owner = "".join(
            ch if ch.isalnum() or ch in "-_." else "_" for ch in owner
        )
        return self.ledgers_dir / f"{cell_id}.{safe_owner}.jsonl"

    def mark_done(self, cell_id: str, payload: dict) -> bool:
        """Publish the completion marker; False when another attempt won."""
        return _publish_once(self.done_dir / f"{cell_id}.json", payload)

    def done_ids(self) -> set[str]:
        if not self.done_dir.is_dir():
            return set()
        return {path.stem for path in self.done_dir.glob("*.json")}

    def done_payload(self, cell_id: str) -> dict | None:
        """The completion marker's payload; ``None`` when not done yet.

        A *present but corrupt* marker raises :class:`SpoolError` naming
        the file: the marker is written via fsynced-temp-then-link, so a
        torn one means real filesystem trouble — silently treating it as
        "not done" would make the coordinator wait forever on a cell the
        spool believes is finished.
        """
        path = self.done_dir / f"{cell_id}.json"
        try:
            return _read_json(path, "spool done marker")
        except FileNotFoundError:
            return None

    def all_done(self) -> bool:
        return not self.pending_ids()

    # -- worker liveness ------------------------------------------------

    def worker_heartbeat(self, worker_id: str) -> None:
        """Record (or refresh) a worker's liveness file."""
        path = self.workers_dir / f"{worker_id}.json"
        if path.exists():
            os.utime(path)
        else:
            _write_durable(
                path, json.dumps({"worker": worker_id}, sort_keys=True) + "\n"
            )

    def live_workers(self) -> list[str]:
        """Workers whose heartbeat is within the TTL."""
        return sorted(
            worker_id
            for worker_id, age in self._heartbeat_ages(self.workers_dir, "*.json")
            if age <= self.ttl_seconds
        )

    def has_live_activity(self) -> bool:
        """Any fresh worker heartbeat *or* fresh lease?

        The coordinator's stall detector: a worker deep inside a long
        campaign refreshes its lease and worker file from the heartbeat
        thread, so "no fresh anything for a TTL" means the fleet is gone.
        """
        return bool(self.live_workers()) or any(
            age <= self.ttl_seconds
            for _, age in self._heartbeat_ages(self.leases_dir, "*.lease")
        )

    # -- hygiene --------------------------------------------------------

    def sweep_done_leases(self) -> list[str]:
        """Remove leases left behind on already-completed cells.

        A worker SIGKILLed in the window between publishing a cell's
        done marker and releasing its lease leaves a lease nobody ever
        reclaims: the cell is no longer pending, so no claimant will
        rename it aside.  The exclusive done marker makes the debris
        harmless, but hygiene checks would count it as a stale lease
        forever.  Sweeping uses the same rename-aside mechanic claims
        use, so racing sweepers (or a sweeper racing a claim) stay
        safe; returns the swept cell ids.
        """
        removed = []
        done = self.done_ids()
        for cell_id in self.leases():
            if cell_id not in done:
                continue
            aside = self.leases_dir / f".swept-{uuid.uuid4().hex}"
            try:
                os.rename(self._lease_path(cell_id), aside)
            except FileNotFoundError:
                continue                # released/swept concurrently
            aside.unlink(missing_ok=True)
            removed.append(cell_id)
        return sorted(removed)
