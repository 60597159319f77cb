"""``repro.perf`` — paired hot-path microbenchmarks with a regression gate.

The micro and wait-bound ratios one host can claim are measured,
recorded and guarded here; end-to-end questions (what a campaign or a
daemon job costs) belong to ``benchmarks/e2e``:

* :mod:`repro.perf.fixtures` freezes the deterministic inputs;
* :mod:`repro.perf.runner` names the hot paths — GED cluster assignment,
  batched GNN encoding, the failpoint fast path, spool fleet scale-out —
  and times each next to the path it replaced or the configuration it is
  compared with;
* :mod:`repro.perf.report` emits the machine-readable report and
  compares its *ratios* against the committed baseline
  (``benchmarks/perf_baseline.json``, recorded on the host named in its
  header), failing on a regression beyond the tolerance or on a ratio
  that only one of the two carries.

Run it via the CLI::

    python -m repro.cli perf                         # gated
    python -m repro.cli perf --update-baseline       # refresh the baseline
    python -m repro.cli perf --list                  # what gets timed
"""

from __future__ import annotations

from pathlib import Path

from repro.perf.fixtures import PerfFixtures, build_fixtures
from repro.perf.report import (
    BASELINE_PATH,
    PerfError,
    REPORT_PATH,
    build_report,
    compare_reports,
    load_report,
    write_report,
)
from repro.perf.runner import (
    BENCHMARKS,
    RATIO_DEFINITIONS,
    Benchmark,
    benchmark_names,
    compute_ratios,
    run_benchmarks,
    time_benchmark,
)

__all__ = [
    "BASELINE_PATH",
    "BENCHMARKS",
    "Benchmark",
    "PerfError",
    "PerfFixtures",
    "RATIO_DEFINITIONS",
    "REPORT_PATH",
    "benchmark_names",
    "build_fixtures",
    "build_report",
    "compare_reports",
    "compute_ratios",
    "load_report",
    "run_benchmarks",
    "run_perf",
    "time_benchmark",
    "write_report",
]


def run_perf(
    only: "list[str] | None" = None,
    output: str = REPORT_PATH,
    baseline_path: str = BASELINE_PATH,
    tolerance: float = 0.25,
    update_baseline: bool = False,
) -> int:
    """The full perf session the ``repro perf`` subcommand drives.

    Times the (selected) hot paths, writes the report to ``output``, and
    gates the speedup ratios against the committed baseline; returns the
    process exit code (0 ok, 1 regression).  ``--update-baseline``
    rewrites the baseline from this run instead of gating against it.
    Raises :class:`PerfError` on operator mistakes (unknown benchmark
    names, unreadable baseline, bad tolerance).
    """
    if not 0 <= tolerance < 1:
        raise PerfError(f"tolerance must be in [0, 1), got {tolerance!r}")
    if only is not None:
        if update_baseline:
            # A partial baseline would contain only the selected pair's
            # ratios; every later full run would fail the gate on the rest.
            raise PerfError(
                "--update-baseline cannot be combined with --only: the "
                "baseline must cover every gated ratio"
            )
        unknown = sorted(set(only) - set(benchmark_names()))
        if unknown:
            raise PerfError(
                f"unknown benchmark(s) {', '.join(unknown)} "
                f"(known: {', '.join(sorted(benchmark_names()))})"
            )
    # Resolve the gate's baseline before any (expensive) timing happens,
    # so operator mistakes fail in milliseconds, not after a full run.
    resolved_baseline = Path(baseline_path)
    gating = not update_baseline and only is None
    if gating and not resolved_baseline.exists():
        # Never "gate skipped": run from another directory, the default
        # path would otherwise disarm the gate with exit 0.
        raise PerfError(
            f"perf baseline {resolved_baseline} does not exist — point "
            "--baseline at one or record it with --update-baseline"
        )
    baseline = load_report(resolved_baseline) if gating else None

    try:
        print("building perf fixtures ...")
        fixtures = build_fixtures()
        print("timing hot paths:")
        results = run_benchmarks(fixtures, only=only, echo=print)
    except ValueError as error:
        raise PerfError(str(error)) from None
    ratios = compute_ratios(results)
    for name, value in sorted(ratios.items()):
        print(f"  {name:<30} {value:9.2f}x")
    report = build_report(results, ratios)
    written = write_report(report, output)
    print(f"wrote {written}")

    if update_baseline:
        write_report(report, resolved_baseline)
        print(f"updated baseline {resolved_baseline}")
        return 0
    if baseline is None:
        # A partial run cannot be gated: pairs that did not run would
        # read as regressions.  The report is still written.
        print("--only selects a subset; regression gate skipped")
        return 0
    violations = compare_reports(report, baseline, tolerance=tolerance)
    if violations:
        for violation in violations:
            print(f"VIOLATION: {violation}")
        print(
            f"perf gate FAILED: {len(violations)} violation(s) against "
            f"{resolved_baseline} at {tolerance:.0%}"
        )
        return 1
    print(
        f"perf gate ok: {len(baseline.get('ratios', {}))} ratio(s) within "
        f"{tolerance:.0%} of {resolved_baseline}"
    )
    return 0
