"""Operator-level bottleneck identification — paper Algorithm 1.

Labels every operator of a measured dataflow as

* ``1``  — bottleneck (its processing ability is insufficient),
* ``0``  — provably not a bottleneck at its current degree,
* ``-1`` — unlabelled (backpressure distorted its input rate, so its
  sufficiency cannot be judged).

Flink path (the literal Algorithm 1):

1. no job-level backpressure -> everything is 0;
2. otherwise find the *deepest* operators under backpressure (no downstream
   operator also under backpressure); their direct downstream operators are
   labelled by CPU load against the threshold T (the paper's example uses
   60%); everything else stays unlabelled.

Timely path (§V-B): Timely has no backpressure flags — its 85% input/output
rate rule identifies bottleneck operators *directly*.  Flagged operators
are labelled 1.  Operators upstream of (or unrelated to) every flagged
operator processed their full offered rate without being flagged, so they
are labelled 0; operators downstream of a flagged one saw throttled input
and stay unlabelled — the same cascading-effect reasoning Algorithm 1
encodes for Flink.
"""

from __future__ import annotations

from repro.dataflow.graph import LogicalDataflow
from repro.engines.metrics import JobTelemetry

#: Paper §IV-A example: "CPU load exceeding 60%" marks a bottleneck.
CPU_THRESHOLD = 0.60


def label_operators_flink(
    flow: LogicalDataflow,
    telemetry: JobTelemetry,
) -> dict[str, int]:
    """Algorithm 1, verbatim."""
    labels = dict.fromkeys(flow.operator_names, -1)          # line 1
    if not telemetry.has_backpressure:                       # lines 2-6
        return dict.fromkeys(flow.operator_names, 0)

    under_bp = {
        name for name in flow.operator_names if telemetry[name].is_backpressured
    }
    deepest = [                                              # line 7
        name
        for name in under_bp
        if not (flow.descendants(name) & under_bp)
    ]
    for name in deepest:                                     # lines 8-16
        for downstream in flow.downstream(name):
            if telemetry[downstream].cpu_load > CPU_THRESHOLD:
                labels[downstream] = 1
            else:
                labels[downstream] = 0
    return labels


def label_operators_timely(
    flow: LogicalDataflow,
    telemetry: JobTelemetry,
) -> dict[str, int]:
    """Rate-based labelling for engines without backpressure (§V-B)."""
    if not telemetry.has_backpressure:
        return dict.fromkeys(flow.operator_names, 0)

    flagged = {
        name for name in flow.operator_names if telemetry[name].is_backpressured
    }
    labels: dict[str, int] = {}
    distorted: set[str] = set()
    for name in flagged:
        distorted |= flow.descendants(name)
    for name in flow.operator_names:
        if name in flagged:
            labels[name] = 1
        elif name in distorted:
            labels[name] = -1
        else:
            labels[name] = 0
    return labels


def label_operators(
    flow: LogicalDataflow,
    telemetry: JobTelemetry,
    engine_name: str,
) -> dict[str, int]:
    """Dispatch to the engine-appropriate labelling strategy."""
    if engine_name == "timely":
        return label_operators_timely(flow, telemetry)
    return label_operators_flink(flow, telemetry)
