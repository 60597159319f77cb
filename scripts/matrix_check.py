"""Benchmark-matrix report checks (CI helper).

Two subcommands over ``repro run-plan --report`` summary reports:

* ``validate REPORT [--min-cells N] [--expect-chaos]`` — assert the
  report matches the ``repro.matrix/v1`` schema, covers at least ``N``
  cells, and (with ``--expect-chaos``) contains at least one
  chaos-enabled cell.
* ``compare A B`` — assert two reports of the same grid (e.g. thread vs
  distributed backends) are bit-identical in their deterministic view
  (backend and wall-clock fields excluded: they measure the host, not
  the tuner).

Exit status 0 when the contract holds, 1 with a diff summary otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.scenarios import matrix_determinism_view, validate_matrix_report  # noqa: E402


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _cmd_validate(args: argparse.Namespace) -> int:
    report = _load(args.report)
    try:
        validate_matrix_report(report)
    except ValueError as error:
        print(f"matrix_check: {args.report}: {error}", file=sys.stderr)
        return 1
    if len(report["cells"]) < args.min_cells:
        print(
            f"matrix_check: {args.report} covers {len(report['cells'])} "
            f"cell(s), expected >= {args.min_cells}",
            file=sys.stderr,
        )
        return 1
    if args.expect_chaos:
        chaotic = [c for c in report["cells"] if c["chaos"] != "none"]
        if not chaotic:
            print(
                f"matrix_check: {args.report} has no chaos-enabled cells",
                file=sys.stderr,
            )
            return 1
    print(
        f"matrix_check: {args.report} ok — {report['n_scenarios']} "
        f"scenario(s), {report['n_campaigns']} campaign cell(s)"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    left, right = _load(args.a), _load(args.b)
    for path, report in ((args.a, left), (args.b, right)):
        try:
            validate_matrix_report(report)
        except ValueError as error:
            print(f"matrix_check: {path}: {error}", file=sys.stderr)
            return 1
    view_left = matrix_determinism_view(left)
    view_right = matrix_determinism_view(right)
    if view_left != view_right:
        for row_a, row_b in zip(view_left["cells"], view_right["cells"]):
            if row_a != row_b:
                diff = {
                    key: (row_a.get(key), row_b.get(key))
                    for key in sorted(set(row_a) | set(row_b))
                    if row_a.get(key) != row_b.get(key)
                }
                print(
                    f"matrix_check: cell {row_a.get('scenario')!r} "
                    f"differs: {diff}",
                    file=sys.stderr,
                )
        print(
            f"matrix_check: {args.a} and {args.b} disagree in their "
            "deterministic view",
            file=sys.stderr,
        )
        return 1
    print(
        f"matrix_check: {args.a} == {args.b} "
        f"({len(view_left['cells'])} cell(s), deterministic view)"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="matrix_check")
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="schema-check one report")
    validate.add_argument("report")
    validate.add_argument("--min-cells", type=int, default=1)
    validate.add_argument("--expect-chaos", action="store_true")
    validate.set_defaults(func=_cmd_validate)

    compare = sub.add_parser(
        "compare", help="deterministic-view equality of two reports"
    )
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(func=_cmd_compare)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
