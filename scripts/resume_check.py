"""Kill-and-resume smoke checks for recorded event logs (CI helper).

Two subcommands over ``--record`` JSONL logs:

* ``truncate SRC DST`` — keep the prefix of ``SRC`` up to and including
  its first ``CampaignFinished`` line (what a fleet killed after its
  first completed campaign leaves behind) and write it to ``DST``.
* ``compare FULL RESUMED --expect-skipped K`` — assert the resumed run's
  log records exactly ``K`` skipped campaigns, executed the rest, and
  that every campaign's result payload is bit-identical to the
  uninterrupted run's (wall-clock fields excluded: ``wall_seconds`` and
  per-step ``recommendation_seconds`` measure the host, not the tuner).

Exit status 0 when the contract holds, 1 with a diff summary otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# The determinism view (which payload fields count, how campaigns are
# keyed) lives in the library, shared with distributed_check.py and the
# soak supervisor; this script is the thin CI shell.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.faults.invariants import (  # noqa: E402 — after the path bootstrap
    _results_by_key,
    load_event_log,
)


def _truncate(args: argparse.Namespace) -> int:
    kept = []
    finished = 0
    for record in load_event_log(args.source):
        kept.append(record)
        if record["event"] == "CampaignFinished":
            finished = 1
            break
    if not finished:
        print(f"{args.source}: no CampaignFinished line to truncate after",
              file=sys.stderr)
        return 1
    with open(args.target, "w", encoding="utf-8") as handle:
        for record in kept:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"kept {len(kept)} line(s) of {args.source} -> {args.target}")
    return 0


def _compare(args: argparse.Namespace) -> int:
    full = load_event_log(args.full)
    resumed = load_event_log(args.resumed)
    failures = []

    n_skipped = sum(1 for r in resumed if r["event"] == "CampaignSkipped")
    if n_skipped != args.expect_skipped:
        failures.append(
            f"expected {args.expect_skipped} CampaignSkipped, got {n_skipped}"
        )
    n_campaigns = sum(1 for r in full if r["event"] == "CampaignFinished")
    n_started = sum(1 for r in resumed if r["event"] == "CampaignStarted")
    if n_started != n_campaigns - args.expect_skipped:
        failures.append(
            f"resumed run executed {n_started} campaign(s), expected "
            f"{n_campaigns - args.expect_skipped} (= {n_campaigns} total - "
            f"{args.expect_skipped} skipped)"
        )
    if any(r["event"] == "CampaignFailed" for r in resumed):
        failures.append("resumed run recorded CampaignFailed event(s)")

    full_results = _results_by_key(full)
    resumed_results = _results_by_key(resumed)
    if set(full_results) != set(resumed_results):
        failures.append(
            "campaign sets differ: "
            f"only-full={sorted(set(full_results) - set(resumed_results))}, "
            f"only-resumed={sorted(set(resumed_results) - set(full_results))}"
        )
    else:
        for key in sorted(full_results):
            if full_results[key] != resumed_results[key]:
                failures.append(f"result payload differs for {key}")

    if failures:
        for failure in failures:
            print(f"resume check FAILED: {failure}", file=sys.stderr)
        return 1
    print(
        f"resume check ok: {len(full_results)} campaign(s) bit-identical, "
        f"{n_skipped} skipped, {n_started} re-executed"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    truncate = sub.add_parser(
        "truncate", help="keep SRC up to its first CampaignFinished"
    )
    truncate.add_argument("source")
    truncate.add_argument("target")
    truncate.set_defaults(func=_truncate)

    compare = sub.add_parser(
        "compare", help="assert FULL and RESUMED logs hold identical results"
    )
    compare.add_argument("full")
    compare.add_argument("resumed")
    compare.add_argument("--expect-skipped", type=int, default=1)
    compare.set_defaults(func=_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
