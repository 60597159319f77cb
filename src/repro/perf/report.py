"""Machine-readable perf reports and the baseline regression gate.

A perf run emits one JSON document (an untracked ``perf_report.json`` in
the working directory by default) holding per-hot-path timings plus the
dimensionless ratios of :data:`repro.perf.runner.RATIO_DEFINITIONS`.
The one committed report is the baseline,
``benchmarks/perf_baseline.json``, written by a single
``--update-baseline`` run so its header (``platform``, ``cpu_count``)
names the host every one of its ratios was measured on.

The regression gate compares the *ratios* of a fresh run against that
baseline: the two must carry the same set of ratios, and a ratio that
fell more than ``tolerance`` (default 25%) below its baseline value
fails the gate.  Ratios rather than raw seconds, because a ratio's two
sides share the run's load; but a ratio still moves with the host
(cache sizes, core count, BLAS), so it is only compared with a baseline
recorded on the same host — re-baseline when the host changes.  Raw
seconds are recorded for trend reading and never gated.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

#: Default report target (untracked; the committed report is the baseline).
REPORT_PATH = "perf_report.json"
#: Default committed baseline the gate compares against.
BASELINE_PATH = "benchmarks/perf_baseline.json"
#: Report schema marker.
REPORT_FORMAT = "repro.perf"
REPORT_VERSION = 1


class PerfError(ValueError):
    """A perf report or baseline is unusable; the message says why."""


def build_report(results: dict, ratios: dict) -> dict:
    """The JSON document for one perf run."""
    return {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "created_unix": time.time(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "benchmarks": results,
        "ratios": ratios,
    }


def write_report(report: dict, path: "str | Path") -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_report(path: "str | Path") -> dict:
    path = Path(path)
    if not path.exists():
        raise PerfError(f"perf report {path} does not exist")
    try:
        report = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise PerfError(f"{path} is not valid JSON: {error}") from None
    if not isinstance(report, dict) or report.get("format") != REPORT_FORMAT:
        raise PerfError(f"{path} is not a repro.perf report")
    return report


def compare_reports(
    current: dict, baseline: dict, tolerance: float = 0.25
) -> list[str]:
    """Regression messages (empty when the gate passes).

    The two reports must carry the same ratios — one the baseline lacks
    is as much a violation as one the current run lacks, or a defined
    ratio would go ungated until somebody noticed — and each must stay
    within ``tolerance`` of its baseline value (a drop beyond it is a
    regression; improvements always pass).
    """
    if not 0 <= tolerance < 1:
        raise PerfError(f"tolerance must be in [0, 1), got {tolerance!r}")
    violations: list[str] = []
    ratios = current.get("ratios", {})
    base_ratios = baseline.get("ratios", {})
    for name in sorted(set(ratios) - set(base_ratios)):
        violations.append(
            f"ratio {name} is not in the baseline (current run: "
            f"{ratios[name]:.2f}x); record it with --update-baseline"
        )
    for name, base_value in sorted(base_ratios.items()):
        value = ratios.get(name)
        if value is None:
            violations.append(
                f"ratio {name} is missing from the current run "
                f"(baseline: {base_value:.2f}x)"
            )
            continue
        floor = base_value * (1.0 - tolerance)
        if value < floor:
            violations.append(
                f"ratio {name} regressed: {value:.2f}x < {floor:.2f}x "
                f"(baseline {base_value:.2f}x - {tolerance:.0%})"
            )
    return violations
