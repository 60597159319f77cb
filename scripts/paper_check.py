"""Paper-claims report check (CI helper).

``compare A B`` over two ``repro experiments --output`` reports of one
scale (CI: a fresh smoke run against the committed ``BENCH_PAPER.json``):
both must match the ``repro.paper/v1`` schema and carry the same claim
ids and the same deviation table; a *seeded* claim must agree exactly in
lhs, rhs and status; a *wall-clock* claim only in whether the judge
accepted it (``pass`` and a listed ``deviation`` both count: a non-strict
deviation may hold on a quiet host).  Every margin that moved is printed,
so a claim sliding toward its bound shows before it breaks.

Exit status 0 when the contract holds, 1 with the differing ids otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.claims import PAPER_SCHEMA  # noqa: E402

_CLAIM_FIELDS = (
    "id", "figure", "lhs", "op", "rhs", "seeded", "scales", "margin", "status"
)
_DEVIATION_FIELDS = ("id", "reading", "since", "strict", "scale")
STATUSES = ("pass", "fail", "deviation", "unexpected-pass", "skipped")


def validate_paper_report(report: dict) -> dict:
    """Assert ``report`` has the ``repro.paper/v1`` shape; returns it."""
    def bad(message: str):
        return ValueError(f"not a {PAPER_SCHEMA} report: {message}")

    if not isinstance(report, dict) or report.get("schema") != PAPER_SCHEMA:
        raise bad("schema field missing or different")
    for key, fields in (("claims", _CLAIM_FIELDS), ("deviations", _DEVIATION_FIELDS)):
        if not isinstance(report.get(key), list):
            raise bad(f"{key} must be a list")
        for position, row in enumerate(report[key]):
            missing = [field for field in fields if field not in row]
            if missing:
                raise bad(f"{key}[{position}] is missing {', '.join(missing)}")
        ids = [row["id"] for row in report[key]]
        if len(ids) != len(set(ids)):
            raise bad(f"{key} repeat an id")
    for row in report["claims"]:
        if row["status"] not in STATUSES:
            raise bad(f"claim {row['id']!r} has status {row['status']!r}")
    if not isinstance(report.get("scale"), str) or not isinstance(
        report.get("failures"), list
    ):
        raise bad("scale must be a string and failures a list")
    return report


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return validate_paper_report(json.load(handle))


def _cmd_compare(args: argparse.Namespace) -> int:
    try:
        left, right = _load(args.a), _load(args.b)
    except ValueError as error:
        print(f"paper_check: {error}", file=sys.stderr)
        return 1
    problems = []
    if left["scale"] != right["scale"]:
        problems.append(f"scales differ: {left['scale']} vs {right['scale']}")
    if left["deviations"] != right["deviations"]:
        problems.append("deviation tables differ")
    rows_a = {row["id"]: row for row in left["claims"]}
    rows_b = {row["id"]: row for row in right["claims"]}
    problems += [f"{key}: in one report only" for key in sorted(set(rows_a) ^ set(rows_b))]
    for key, a in rows_a.items():
        b = rows_b.get(key)
        if b is None:
            continue
        if a["seeded"] and b["seeded"]:
            same = all(a[field] == b[field] for field in ("lhs", "rhs", "status"))
        else:
            same = a["seeded"] == b["seeded"] and (
                (a["status"] in ("pass", "deviation"))
                == (b["status"] in ("pass", "deviation"))
            )
        reading = (
            f"{key}: {a['lhs']:g} {a['op']} {a['rhs']:g} [{a['status']}, margin "
            f"{a['margin']:+g}] vs {b['lhs']:g} {b['op']} {b['rhs']:g} "
            f"[{b['status']}, margin {b['margin']:+g}]"
        )
        if not same:
            problems.append(reading)
        elif a["margin"] != b["margin"]:
            print(f"paper_check: margin moved - {reading}")
    for problem in problems:
        print(f"paper_check: {problem}", file=sys.stderr)
    if problems:
        print(f"paper_check: {args.a} and {args.b} disagree", file=sys.stderr)
        return 1
    print(f"paper_check: {args.a} == {args.b} ({len(rows_a)} claim(s))")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="paper_check")
    sub = parser.add_subparsers(dest="command", required=True)
    compare = sub.add_parser("compare", help="claim-by-claim equality of two reports")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(func=_cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
