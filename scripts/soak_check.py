"""Soak-episode assertions over `repro soak` report files (CI helper).

Two subcommands:

* ``verify REPORT`` — assert one soak report upholds the standing
  contract: the episode finished without error, every cell completed
  exactly once with status ``ok``, zero invariant or stream violations,
  every scheduled kill was executed, and (with ``--kills-per-worker``)
  every worker slot was killed at least that many times.
* ``identical REPORT_A REPORT_B`` — assert two same-seed episodes
  rendered the identical deterministic view (schedule, kills, statuses,
  verdicts), i.e. the soak is replayable bit-for-bit.

Exit status 0 when the contract holds, 1 with a diff summary otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

#: Report fields the host's scheduler may perturb; everything else must
#: replay bit-for-bit across same-seed episodes.
NONDETERMINISTIC_FIELDS = (
    "restarts",
    "unplanned_respawns",
    "swept_leases",
    "wall_seconds",
    "record_path",
    "reference_path",
)


def _load(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _deterministic_view(report: dict) -> dict:
    return {
        key: value
        for key, value in report.items()
        if key not in NONDETERMINISTIC_FIELDS
    }


def _verify(args: argparse.Namespace) -> int:
    report = _load(args.report)
    failures = []
    if report.get("error") is not None:
        failures.append(f"episode errored: {report['error']}")
    if not report.get("ok", False):
        failures.append("report verdict is not ok")
    for failure in report.get("invariant_failures", []):
        failures.append(f"invariant violated: {failure}")
    stream = report.get("stream_failures")
    if stream is None:
        failures.append("no sequential reference comparison was run")
    else:
        for failure in stream:
            failures.append(f"stream mismatch: {failure}")
    statuses = report.get("statuses", {})
    bad = {cell: s for cell, s in statuses.items() if s != "ok"}
    if bad:
        failures.append(f"non-ok cell status(es): {bad}")
    if len(statuses) != report.get("n_cells"):
        failures.append(
            f"{len(statuses)} completed cell(s), expected {report.get('n_cells')}"
        )
    schedule = report.get("schedule", [])
    kills = report.get("kills", [])
    if kills != schedule:
        failures.append(
            f"executed kills differ from the schedule: "
            f"{len(kills)} kill(s) vs {len(schedule)} scheduled"
        )
    if args.kills_per_worker is not None:
        per_slot = Counter(kill["slot"] for kill in kills)
        for slot in range(report.get("workers", 0)):
            if per_slot.get(slot, 0) < args.kills_per_worker:
                failures.append(
                    f"worker slot {slot} was killed {per_slot.get(slot, 0)} "
                    f"time(s), expected >= {args.kills_per_worker}"
                )
    if failures:
        for failure in failures:
            print(f"soak check FAILED: {failure}", file=sys.stderr)
        return 1
    print(
        f"soak check ok: {report['n_cells']} cell(s) exactly-once across "
        f"{report['workers']} worker(s), {len(kills)} kill(s) executed, "
        "stream bit-identical to the sequential reference"
    )
    return 0


def _identical(args: argparse.Namespace) -> int:
    view_a = _deterministic_view(_load(args.report_a))
    view_b = _deterministic_view(_load(args.report_b))
    if view_a != view_b:
        keys = sorted(
            key
            for key in set(view_a) | set(view_b)
            if view_a.get(key) != view_b.get(key)
        )
        print(
            f"soak replay FAILED: deterministic views differ in {keys}",
            file=sys.stderr,
        )
        return 1
    print("soak replay ok: deterministic views are identical")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify", help="assert one soak report upholds the standing contract"
    )
    verify.add_argument("report")
    verify.add_argument(
        "--kills-per-worker", type=int, default=None, metavar="N",
        help="additionally require every worker slot was killed >= N times",
    )
    verify.set_defaults(func=_verify)

    identical = sub.add_parser(
        "identical",
        help="assert two same-seed reports rendered the same deterministic view",
    )
    identical.add_argument("report_a")
    identical.add_argument("report_b")
    identical.set_defaults(func=_identical)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
