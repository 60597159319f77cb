"""Standing post-episode invariants for fault-injected fleet runs.

Every soak episode — however many workers were SIGKILLed, however many
leases were reclaimed — must end in exactly the same place a calm run
does.  This module states that contract as small pure checks returning
human-readable violation strings (empty list = invariant holds), so the
:class:`~repro.faults.supervisor.FleetSupervisor`, the CI soak job and
ad-hoc scripts all assert the same thing:

* **exactly-once** — every spooled cell carries exactly one completion
  marker, the marker's status is ``ok``, and the attempt ledger it
  names exists (:func:`check_spool`);
* **no stale leases** — after sweeping done-cell debris, no lease
  outlives its TTL (:func:`check_spool`);
* **bit-identity** — the merged distributed event stream equals the
  sequential reference, wall-clock fields aside
  (:func:`compare_event_streams`).
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "check_spool",
    "compare_event_streams",
    "load_event_log",
]

#: Payload fields that measure the host, not the computation.
_WALL_CLOCK_STEP_FIELDS = ("recommendation_seconds",)


def load_event_log(path: "str | Path") -> list[dict]:
    """Parse one ``--record`` JSONL event log into plain dicts."""
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


def _deterministic_result(record: dict) -> dict:
    result = json.loads(json.dumps(record["result"]))   # deep copy
    for process in result["processes"]:
        for step in process["steps"]:
            for field in _WALL_CLOCK_STEP_FIELDS:
                step.pop(field, None)
    return result


def _results_by_key(records: list[dict]) -> dict[str, dict]:
    results = {}
    for record in records:
        if record["event"] == "CampaignFinished":
            key = (
                f"{record.get('scenario') or ''}/"
                f"{record.get('cell_key') or record['campaign']}"
            )
            results[key] = _deterministic_result(record)
    return results


def compare_event_streams(
    reference: list[dict],
    candidate: list[dict],
    *,
    backend: str = "distributed",
) -> list[str]:
    """Violations of stream equivalence between two recorded runs.

    ``reference`` is the sequential single-host log; ``candidate`` the
    fleet log under test.  Checks: no failures, every campaign event
    stamped with ``backend``, strictly increasing unique ``seq``, the
    same campaign set, and per-campaign result payloads bit-identical
    once wall-clock fields are stripped.
    """
    failures = []
    if any(r["event"] == "CampaignFailed" for r in candidate):
        failures.append(f"{backend} run recorded CampaignFailed event(s)")
    campaign_events = [r for r in candidate if r["event"].startswith("Campaign")]
    off_backend = sorted({
        r["backend"] for r in campaign_events
        if r.get("backend") not in (None, backend)
    })
    if off_backend:
        failures.append(
            f"campaign events carry non-{backend} backend(s): {off_backend}"
        )
    seqs = [r["seq"] for r in candidate]
    if seqs != sorted(seqs) or len(set(seqs)) != len(seqs):
        failures.append(f"{backend} event seq is not strictly increasing")

    expected = _results_by_key(reference)
    actual = _results_by_key(candidate)
    if set(expected) != set(actual):
        failures.append(
            "campaign sets differ: "
            f"only-reference={sorted(set(expected) - set(actual))}, "
            f"only-{backend}={sorted(set(actual) - set(expected))}"
        )
    else:
        for key in sorted(expected):
            if expected[key] != actual[key]:
                failures.append(f"result payload differs for {key}")
    return failures


def check_spool(spool, n_cells: int | None = None) -> list[str]:
    """Violations of the spool's post-episode contract.

    Call after the coordinator finished (and swept done-cell leases):
    every cell done exactly once with status ``ok``, the winning
    attempt's ledger on disk, and no lease — stale or fresh — left
    standing anywhere.
    """
    failures = []
    cell_ids = spool.cell_ids()
    done = spool.done_ids()
    if n_cells is not None and len(cell_ids) != n_cells:
        failures.append(
            f"spool holds {len(cell_ids)} cell(s), expected {n_cells}"
        )
    missing = [cell_id for cell_id in cell_ids if cell_id not in done]
    if missing:
        failures.append(f"cell(s) never completed: {missing}")
    for cell_id in sorted(done):
        payload = spool.done_payload(cell_id)
        status = payload.get("status")
        if status != "ok":
            failures.append(f"cell {cell_id} completed with status {status!r}")
        ledger = spool.ledgers_dir / payload.get("ledger", "")
        if not ledger.is_file():
            failures.append(
                f"cell {cell_id} names missing ledger {payload.get('ledger')!r}"
            )
    leases = spool.leases()
    if leases:
        failures.append(f"lease(s) left standing after the episode: {leases}")
    return failures
