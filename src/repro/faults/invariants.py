"""Standing invariants of recorded runs and fault-injected fleet runs.

Every soak episode — however many workers were SIGKILLed, however many
leases were reclaimed — and every resumed or distributed run must end
in exactly the same place a calm single-host run does.  This module
states that contract as small pure checks returning human-readable
violation strings (empty list = invariant holds); the
:class:`~repro.faults.supervisor.FleetSupervisor` and
``scripts/stream_check.py`` both call them:

* **exactly-once** — every spooled cell carries exactly one completion
  marker, the marker's status is ``ok``, and the attempt ledger it
  names exists (:func:`check_spool`);
* **no stale leases** — after sweeping done-cell debris, no lease
  outlives its TTL (:func:`check_spool`);
* **bit-identity** — a recorded event stream equals the reference
  run's, wall-clock fields aside, and executed every campaign it did
  not replay from a resume log (:func:`compare_event_streams`).
"""

from __future__ import annotations

import json
from collections import Counter
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


def _campaign_results(records: list[dict]) -> dict[str, dict]:
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
    backend: str,
    skipped: int = 0,
) -> list[str]:
    """Violations of stream equivalence between two recorded runs.

    ``reference`` is an uninterrupted run's log; ``candidate`` the log
    under test, run on ``backend`` and resumed past ``skipped`` of the
    reference's campaigns.  Checks: no failures, every campaign event
    stamped with ``backend``, strictly increasing unique ``seq``,
    exactly ``skipped`` campaigns replayed and every other one started,
    the same campaign set, and per-campaign result payloads
    bit-identical once wall-clock fields are stripped.
    """
    counts = Counter(r["event"] for r in candidate)
    expected, actual = _campaign_results(reference), _campaign_results(candidate)
    failures = []
    if counts["CampaignFailed"]:
        failures.append(f"{backend} run recorded CampaignFailed event(s)")
    off_backend = sorted({
        r["backend"] for r in candidate
        if r["event"].startswith("Campaign") and r.get("backend") not in (None, backend)
    })
    if off_backend:
        failures.append(f"campaign events carry non-{backend} backend(s): {off_backend}")
    seqs = [r["seq"] for r in candidate]
    if seqs != sorted(seqs) or len(set(seqs)) != len(seqs):
        failures.append(f"{backend} event seq is not strictly increasing")
    if counts["CampaignSkipped"] != skipped:
        failures.append(f"expected {skipped} CampaignSkipped, got {counts['CampaignSkipped']}")
    if counts["CampaignStarted"] != len(expected) - skipped:
        failures.append(
            f"{backend} run executed {counts['CampaignStarted']} campaign(s), "
            f"expected {len(expected) - skipped} of {len(expected)}"
        )
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
