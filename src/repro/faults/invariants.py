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
* **bit-identity** — a recorded event stream holds every line it
  wrote, its campaigns' results equal the reference run's (a
  :class:`~repro.experiments.campaigns.CampaignResult`'s ``==`` leaves
  its timings out), and it executed every campaign it did not replay
  from a resume log (:func:`compare_event_streams`).
"""

from __future__ import annotations

from collections import Counter

__all__ = [
    "check_spool",
    "compare_event_streams",
]


def _campaign_results(events: list) -> dict:
    return {
        f"{event.scenario or ''}/{event.cell_key or event.campaign}": event.result
        for event in events
        if event.kind == "CampaignFinished"
    }


def compare_event_streams(
    reference: tuple[list, int],
    candidate: tuple[list, int],
    *,
    backend: str,
    skipped: int = 0,
) -> list[str]:
    """Violations of stream equivalence between two recorded runs.

    Each side is what :func:`~repro.api.events.read_event_log` returns
    for its log: the typed events and the count of malformed lines.
    ``reference`` is an uninterrupted run's log; ``candidate`` the log
    under test, run on ``backend`` and resumed past ``skipped`` of the
    reference's campaigns.  Checks: no malformed line on either side, no
    failures, every campaign event stamped with ``backend``, strictly
    increasing unique ``seq``, exactly ``skipped`` campaigns replayed and
    every other one started, the same campaign set, and equal results
    per campaign.
    """
    (reference, ref_malformed), (candidate, malformed) = reference, candidate
    counts = Counter(event.kind for event in candidate)
    expected, actual = _campaign_results(reference), _campaign_results(candidate)
    failures = []
    if ref_malformed:
        failures.append(f"reference log has {ref_malformed} malformed line(s)")
    if malformed:
        failures.append(f"{backend} log has {malformed} malformed line(s)")
    if counts["CampaignFailed"]:
        failures.append(f"{backend} run recorded CampaignFailed event(s)")
    off_backend = sorted({
        event.backend for event in candidate
        if event.kind.startswith("Campaign") and event.backend != backend
    })
    if off_backend:
        failures.append(f"campaign events carry non-{backend} backend(s): {off_backend}")
    seqs = [event.seq for event in candidate]
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
