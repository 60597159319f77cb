"""Scenario plane: typed rate traces, chaos schedules, benchmark matrix.

This package gives workload dynamics a first-class representation.
:mod:`repro.scenarios.library` holds the ``TRACES`` registry of seeded
deterministic rate-trace families and the frozen :class:`TraceSpec`;
:mod:`repro.scenarios.chaos` adds deterministic fault / source-outage
schedules (:class:`ChaosSpec`) keyed to trace steps; and
:mod:`repro.scenarios.matrix` renders a finished sweep into the standing
``BENCH_MATRIX.json`` benchmark report.
"""

from repro.scenarios.library import (
    BASIC_CYCLE,
    TRACES,
    ScenarioError,
    TraceSpec,
    periodic_multipliers,
)
from repro.scenarios.chaos import (
    ChaosInjector,
    ChaosSpec,
    OperatorLoss,
    TraceDropout,
)
from repro.scenarios.matrix import MATRIX_SCHEMA, matrix_determinism_view, matrix_report, validate_matrix_report

__all__ = [
    "BASIC_CYCLE",
    "ChaosInjector",
    "ChaosSpec",
    "MATRIX_SCHEMA",
    "OperatorLoss",
    "ScenarioError",
    "TRACES",
    "TraceDropout",
    "TraceSpec",
    "matrix_determinism_view",
    "matrix_report",
    "periodic_multipliers",
    "validate_matrix_report",
]
