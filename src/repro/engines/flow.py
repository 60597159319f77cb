"""Steady-state dataflow flow solver (ground truth).

Given a logical dataflow, per-operator parallelism, and source rates, the
solver computes the stationary behaviour of the deployment:

1. **Demand pass** — the rate every operator *would* receive if all
   operators kept up; sources emit their configured rate and each operator
   multiplies by its ground-truth selectivity (joins sum their inputs).
2. **Saturation** — an operator whose input demand exceeds its processing
   ability is *saturated*: it is the root cause of backpressure.
3. **Backpressure propagation** — in a credit-based engine, a saturated
   operator stops pulling, its upstream buffers fill, and the stall cascades
   to every strict ancestor (the paper's "cascading effect", §II-A).
4. **Throttle** — the sustainable fraction of the offered load is
   ``theta = min(1, min_o PA_o / demand_o)``; served rates are demand
   scaled by theta.  (A single global throttle is a simplification of
   per-branch credit flow; the paper's DAGs are small and join-connected,
   so branches share fate through their common sinks, and the tuning
   signals — who saturates, who stalls — are unaffected.)

The resulting :class:`FlowResult` is the hidden truth from which the engine
adapters derive *observed* metrics (with noise) in
:mod:`repro.engines.metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dataflow.graph import LogicalDataflow
from repro.engines.perf import PerformanceModel

#: Relative tolerance when comparing demand against capacity: a demand
#: within 0.1% of capacity is not considered saturating.
_SATURATION_RTOL = 1e-3


@dataclass(frozen=True)
class OperatorFlow:
    """Ground-truth steady-state numbers for one operator."""

    name: str
    parallelism: int
    capacity: float           # PA(op, p): sustainable input records/s
    demand_in: float          # offered input rate (no capacity limits)
    demand_out: float         # offered output rate
    served_in: float          # actual input rate under backpressure throttle
    served_out: float         # actual output rate
    utilization: float        # served_in / capacity, in [0, 1]
    saturated: bool           # *binding* bottleneck: sets the throttle theta
    backpressured: bool       # stalled by a saturated descendant
    busy_fraction: float      # time share doing useful work
    idle_fraction: float      # time share waiting for input
    backpressure_fraction: float  # time share blocked on downstream


@dataclass(frozen=True)
class FlowResult:
    """Ground-truth steady state of a whole deployment."""

    operators: dict[str, OperatorFlow]
    theta: float                      # global throttle in (0, 1]
    has_backpressure: bool            # any operator lacks capacity (bound or shadowed)
    saturated: tuple[str, ...] = field(default=())
    backpressured: tuple[str, ...] = field(default=())

    def __getitem__(self, name: str) -> OperatorFlow:
        return self.operators[name]


def solve_flow(
    flow: LogicalDataflow,
    parallelisms: dict[str, int],
    source_rates: dict[str, float],
    perf: PerformanceModel,
) -> FlowResult:
    """Compute the steady state of deploying ``flow`` at ``parallelisms``.

    ``source_rates`` maps source operator names to offered records/s; any
    missing source defaults to rate 0.  Every operator must have an entry in
    ``parallelisms``.
    """
    order = flow.topological_order()
    missing = [name for name in order if name not in parallelisms]
    if missing:
        raise ValueError(f"missing parallelism for operators: {missing}")

    capacity: dict[str, float] = {}
    demand_in: dict[str, float] = {}
    demand_out: dict[str, float] = {}
    for name in order:
        spec = flow.operator(name)
        capacity[name] = perf.processing_ability(spec, parallelisms[name])
        if spec.is_source:
            demand_in[name] = max(0.0, source_rates.get(name, 0.0))
        else:
            demand_in[name] = sum(demand_out[u] for u in flow.upstream(name))
        demand_out[name] = spec.selectivity * demand_in[name]

    deficient = [
        name
        for name in order
        if demand_in[name] > capacity[name] * (1.0 + _SATURATION_RTOL)
    ]

    theta = 1.0
    for name in order:
        if demand_in[name] > 0:
            theta = min(theta, capacity[name] / demand_in[name])
    theta = min(theta, 1.0)

    # Only the *binding* bottlenecks — the operators that set the throttle —
    # actually run at capacity.  A deficient operator shadowed by a worse
    # bottleneck receives a throttled stream and looks merely busy; it only
    # surfaces as the next bottleneck once the binding one is fixed (the
    # paper's cascading effect, and why Algorithm 2 iterates).
    saturated = [
        name
        for name in deficient
        if capacity[name] / demand_in[name] <= theta * (1.0 + _SATURATION_RTOL)
    ]

    backpressured: set[str] = set()
    for name in saturated:
        backpressured |= flow.ancestors(name)

    operators: dict[str, OperatorFlow] = {}
    for name in order:
        spec = flow.operator(name)
        served_in = demand_in[name] * theta
        served_out = spec.selectivity * served_in
        cap = capacity[name]
        utilization = min(1.0, served_in / cap) if cap > 0 else 0.0
        is_saturated = name in saturated
        is_backpressured = name in backpressured
        if is_saturated:
            busy = 1.0
            bp_frac = 0.0
        else:
            busy = utilization
            bp_frac = min(1.0 - busy, 1.0 - theta) if is_backpressured else 0.0
        idle = max(0.0, 1.0 - busy - bp_frac)
        operators[name] = OperatorFlow(
            name=name,
            parallelism=parallelisms[name],
            capacity=cap,
            demand_in=demand_in[name],
            demand_out=demand_out[name],
            served_in=served_in,
            served_out=served_out,
            utilization=1.0 if is_saturated else utilization,
            saturated=is_saturated,
            backpressured=is_backpressured,
            busy_fraction=busy,
            idle_fraction=idle,
            backpressure_fraction=bp_frac,
        )

    return FlowResult(
        operators=operators,
        theta=theta,
        has_backpressure=bool(deficient),
        saturated=tuple(saturated),
        backpressured=tuple(sorted(backpressured)),
    )
