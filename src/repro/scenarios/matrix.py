"""The standing benchmark matrix report (``BENCH_MATRIX.json``).

PDSP-Bench-style summary of a finished sweep: one row per campaign of
the queries x tuners x engines x traces x chaos grid, carrying the
numbers an adaptive-parallelism paper tables — final parallelism,
reconfiguration counts, backpressure, SLA violations (tuning processes
that never converged).  The report is plain JSON-serialisable data with
a ``schema`` tag, so CI can assert its shape and diff runs.

Rows contain only deterministic quantities plus each campaign's
wall-clock; :func:`matrix_determinism_view` strips the timing so reports
produced by different backends (thread vs distributed) of the same plan
compare equal.
"""

from __future__ import annotations

__all__ = [
    "MATRIX_SCHEMA",
    "matrix_determinism_view",
    "matrix_report",
    "validate_matrix_report",
]

MATRIX_SCHEMA = "repro.matrix/v1"

#: Per-row fields that must survive a backend change bit-identically.
_DETERMINISTIC_ROW_FIELDS = (
    "scenario",
    "engine",
    "tuner",
    "query",
    "cell_key",
    "trace",
    "chaos",
    "rates",
    "n_steps",
    "final_parallelism",
    "mean_final_parallelism",
    "reconfigurations",
    "backpressure_events",
    "sla_violations",
    "converged_steps",
)
_ROW_FIELDS = _DETERMINISTIC_ROW_FIELDS + ("wall_seconds",)


def _trace_descriptor(cell_plan) -> dict:
    # A raw-list row says "inline": a descriptor of schema v1, not a
    # trace family.
    trace = getattr(cell_plan, "trace", None)
    if trace is not None:
        return trace.to_dict()
    return {"family": "inline"}


def _chaos_label(cell_plan) -> str:
    chaos = getattr(cell_plan, "chaos", None)
    return chaos.label() if chaos is not None else "none"


def matrix_report(sweep_result) -> dict:
    """Render a finished :class:`~repro.api.session.SweepResult`; the
    header names the backend its plan ran on."""
    plan = sweep_result.plan
    rows = []
    for label, cell_result in sweep_result.scenarios:
        cell_plan = cell_result.plan
        cell_keys = cell_plan.cell_keys()
        for index, campaign in enumerate(cell_result.outcomes):
            rows.append({
                "scenario": label,
                "engine": cell_plan.engine,
                "tuner": cell_plan.tuner,
                "query": campaign.query_name,
                "cell_key": cell_keys[index],
                "trace": _trace_descriptor(cell_plan),
                "chaos": _chaos_label(cell_plan),
                "rates": [float(rate) for rate in cell_plan.rates],
                "n_steps": campaign.n_processes,
                "final_parallelism": campaign.final_parallelism,
                "mean_final_parallelism": round(campaign.mean_final_parallelism, 6),
                "reconfigurations": campaign.total_reconfigurations,
                "backpressure_events": campaign.total_backpressure_events,
                "sla_violations": campaign.sla_violations,
                "converged_steps": campaign.converged_steps,
                "wall_seconds": round(campaign.wall_seconds, 6),
            })
    chaos_axis = [spec.label() for spec in getattr(plan, "chaos", ())]
    report = {
        "schema": MATRIX_SCHEMA,
        "backend": plan.backend,
        "grid": {
            "queries": list(plan.queries),
            "tuners": list(plan.tuners),
            "engines": list(plan.engines),
            "traces": [
                trace.label() if hasattr(trace, "label")
                else "-".join(f"{rate:g}" for rate in trace)
                for trace in plan.rate_traces
            ],
            "chaos": chaos_axis,
        },
        "n_scenarios": plan.n_scenarios,
        "n_campaigns": len(rows),
        "cells": rows,
        "wall_seconds": round(sweep_result.wall_seconds, 6),
    }
    validate_matrix_report(report)
    return report


def validate_matrix_report(report: dict) -> dict:
    """Assert ``report`` has the ``repro.matrix/v1`` shape; returns it."""
    def bad(message: str):
        return ValueError(f"not a {MATRIX_SCHEMA} report: {message}")

    if not isinstance(report, dict):
        raise bad(f"expected a mapping, got {type(report).__name__}")
    if report.get("schema") != MATRIX_SCHEMA:
        raise bad(f"schema is {report.get('schema')!r}")
    for key in ("backend", "grid", "n_scenarios", "n_campaigns", "cells",
                "wall_seconds"):
        if key not in report:
            raise bad(f"missing top-level field {key!r}")
    grid = report["grid"]
    if not isinstance(grid, dict):
        raise bad("grid must be a mapping")
    for axis in ("queries", "tuners", "engines", "traces", "chaos"):
        if not isinstance(grid.get(axis), list):
            raise bad(f"grid.{axis} must be a list")
    cells = report["cells"]
    if not isinstance(cells, list):
        raise bad("cells must be a list")
    if report["n_campaigns"] != len(cells):
        raise bad(
            f"n_campaigns says {report['n_campaigns']} but there are "
            f"{len(cells)} cell rows"
        )
    for position, row in enumerate(cells):
        if not isinstance(row, dict):
            raise bad(f"cells[{position}] is not a mapping")
        missing = [key for key in _ROW_FIELDS if key not in row]
        if missing:
            raise bad(f"cells[{position}] is missing {', '.join(missing)}")
        if not isinstance(row["trace"], dict) or "family" not in row["trace"]:
            raise bad(f"cells[{position}].trace needs a 'family'")
    return report


def matrix_determinism_view(report: dict) -> dict:
    """The backend-independent projection of a matrix report.

    Two runs of the same plan on different backends (sequential, thread,
    distributed) must produce equal views — wall-clock and the backend
    tag are the only fields allowed to differ.
    """
    validate_matrix_report(report)
    return {
        "schema": report["schema"],
        "grid": report["grid"],
        "n_scenarios": report["n_scenarios"],
        "n_campaigns": report["n_campaigns"],
        "cells": [
            {key: row[key] for key in _DETERMINISTIC_ROW_FIELDS}
            for row in report["cells"]
        ],
    }
