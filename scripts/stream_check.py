"""Checks over recorded ``--record`` JSONL event logs (CI helper).

Both subcommands read a log through
:func:`repro.api.events.read_event_log`, the reader behind resume logs,
spool ledgers and the daemon's manifest:

* ``truncate SRC DST`` — keep the prefix of ``SRC`` up to and including
  its first ``CampaignFinished`` line (what a fleet killed after its
  first completed campaign leaves behind) and write it to ``DST``, each
  event as the recorder writes it.
* ``compare REF CAND --backend B [--expect-skipped K]`` — assert the
  run recorded in ``CAND`` on backend ``B`` is the run recorded in
  ``REF``: no malformed line in either log, no failures, every campaign
  event stamped ``B``, exactly ``K`` campaigns replayed from a resume
  log and the rest executed, and every campaign's result equal to the
  reference's (a result's ``==`` leaves out its timings: per-step
  ``recommendation_seconds`` and ``wall_seconds`` measure the host, not
  the tuner).  The contract is
  :func:`repro.faults.invariants.compare_event_streams`, the one the
  soak supervisor asserts after every churn episode.

Exit status 0 when the contract holds, 1 with a diff summary otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api.events import read_event_log  # noqa: E402 — after the path bootstrap
from repro.faults.invariants import compare_event_streams  # noqa: E402


def _truncate(args: argparse.Namespace) -> int:
    events, n_malformed = read_event_log(args.source)
    if n_malformed:
        print(f"{args.source}: {n_malformed} malformed line(s)", file=sys.stderr)
        return 1
    kept = []
    for event in events:
        kept.append(event)
        if event.kind == "CampaignFinished":
            break
    else:
        print(f"{args.source}: no CampaignFinished line to truncate after",
              file=sys.stderr)
        return 1
    with open(args.target, "w", encoding="utf-8") as handle:
        for event in kept:
            handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
    print(f"kept {len(kept)} line(s) of {args.source} -> {args.target}")
    return 0


def _compare(args: argparse.Namespace) -> int:
    candidate = read_event_log(args.candidate)
    failures = compare_event_streams(
        read_event_log(args.reference), candidate,
        backend=args.backend, skipped=args.expect_skipped,
    )
    if failures:
        for failure in failures:
            print(f"stream check FAILED: {failure}", file=sys.stderr)
        return 1
    finished = sum(1 for event in candidate[0] if event.kind == "CampaignFinished")
    print(
        f"stream check ok: {finished} campaign(s) on {args.backend} "
        f"bit-identical to the reference, {args.expect_skipped} skipped"
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
        "compare", help="assert CAND recorded the same run as REF"
    )
    compare.add_argument("reference")
    compare.add_argument("candidate")
    compare.add_argument("--backend", required=True)
    compare.add_argument("--expect-skipped", type=int, default=0, metavar="K")
    compare.set_defaults(func=_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
