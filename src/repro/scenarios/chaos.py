"""Chaos schedules: deterministic mid-campaign faults and source outages.

A :class:`ChaosSpec` describes *when* and *how* a campaign's engine
misbehaves, keyed to rate-trace step indices — so sweeps can cross
scenarios x chaos and a chaos cell is exactly as reproducible as a clean
one.  Both effect kinds change what the tuner decides — one cuts
capacity, the other cuts load:

* :class:`OperatorLoss` — before step ``step``, fail ``count`` instances
  of one operator (``operator=""`` picks the widest operator of the
  current deployment deterministically).  Needs an engine with the
  ``faults`` trait (``flink-faulty``): the loss surfaces as degraded
  capacity -> backpressure, and the tuner's own stop-and-restart
  reconfiguration heals it, exactly like a real TaskManager loss.
* :class:`TraceDropout` — at step ``step``, the arriving rate multiplier
  is scaled by ``factor`` (a partial source outage: the workload itself
  drops, not the engine).  Needs no engine trait — the dropout rewrites
  the step's effective multiplier before the tuner sees it, identically
  on every backend.

Injections are surfaced as typed
:class:`~repro.api.events.ChaosInjected` events through the campaign's
ordinary event stream, and the chaos schedule participates in the
campaign's ``cell_key`` — a chaos run can never be confused with (or
resumed from) a clean one.

A chaos table and its entry lists decode through
:mod:`repro.utils.config` (unknown and missing fields, the list-of-tables
shape, the int / float / name rules); the classes here check ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "ChaosInjector",
    "ChaosSpec",
    "OperatorLoss",
    "TraceDropout",
]

from repro.scenarios.library import ScenarioError
from repro.utils.config import check_float, check_int, check_name, decode_table, decode_tables


@dataclass(frozen=True)
class OperatorLoss:
    """Fail ``count`` instances of one operator before step ``step``."""

    step: int
    count: int = 1
    #: Operator to degrade; "" picks the operator with the highest
    #: configured parallelism at injection time (first in flow order on
    #: ties) — deterministic, and always an operator that exists.
    operator: str = ""

    def __post_init__(self) -> None:
        check_int(self.step, ScenarioError, "chaos operator_loss: step", minimum=0)
        check_int(self.count, ScenarioError, "chaos operator_loss: count", minimum=1)
        check_name(self.operator, ScenarioError, "chaos operator_loss: operator")

    def to_dict(self) -> dict:
        data = {"step": self.step, "count": self.count}
        if self.operator:
            data["operator"] = self.operator
        return data


@dataclass(frozen=True)
class TraceDropout:
    """Scale step ``step``'s rate multiplier by ``factor`` (source outage)."""

    step: int
    factor: float = 0.25

    def __post_init__(self) -> None:
        check_int(self.step, ScenarioError, "chaos trace_dropout: step", minimum=0)
        factor = check_float(self.factor, ScenarioError, "chaos trace_dropout: factor")
        if not 0.0 < factor < 1.0:      # NaN fails too
            raise ScenarioError(
                f"chaos trace_dropout: factor must be a fraction in (0, 1), "
                f"got {self.factor!r}"
            )
        object.__setattr__(self, "factor", factor)

    def to_dict(self) -> dict:
        return {"step": self.step, "factor": self.factor}


@dataclass(frozen=True)
class ChaosSpec:
    """A deterministic schedule of engine misbehaviour for one campaign."""

    operator_loss: tuple = field(default=())
    trace_dropout: tuple = field(default=())

    def __post_init__(self) -> None:
        for name, cls in (("operator_loss", OperatorLoss), ("trace_dropout", TraceDropout)):
            entries = decode_tables(
                cls, getattr(self, name), ScenarioError, f"chaos {name}", name
            )
            object.__setattr__(self, name, entries)

    @property
    def is_noop(self) -> bool:
        return not (self.operator_loss or self.trace_dropout)

    @property
    def max_step(self) -> int:
        """The largest trace step index the schedule references (-1: none)."""
        steps = [entry.step for entry in self.operator_loss]
        steps += [entry.step for entry in self.trace_dropout]
        return max(steps, default=-1)

    def effective_multiplier(self, step_index: int, multiplier: float) -> float:
        """The rate multiplier the tuner sees at ``step_index``.

        Trace dropouts compound (two schedules hitting one step multiply)
        and rewrite the workload *before* tuning — so the recommendation,
        the recorded ``result.multipliers`` and the cell's events all
        agree on what actually arrived, on every backend.  A resumed
        cell's cache warming reads those recorded multipliers, so it
        needs no chaos logic of its own.
        """
        for drop in self.trace_dropout:
            if drop.step == step_index:
                multiplier *= drop.factor
        return multiplier

    def required_traits(self) -> frozenset:
        """Engine registry traits this schedule needs to execute."""
        return frozenset({"faults"} if self.operator_loss else ())

    def label(self) -> str:
        """Compact deterministic identity (participates in ``cell_key``)."""
        if self.is_noop:
            return "none"
        parts = []
        for loss in self.operator_loss:
            note = f"[{loss.operator}]" if loss.operator else ""
            parts.append(f"loss@{loss.step}x{loss.count}{note}")
        for drop in self.trace_dropout:
            parts.append(f"drop@{drop.step}x{drop.factor:g}")
        return "+".join(parts)

    def to_dict(self) -> dict:
        data: dict = {}
        if self.operator_loss:
            data["operator_loss"] = [entry.to_dict() for entry in self.operator_loss]
        if self.trace_dropout:
            data["trace_dropout"] = [entry.to_dict() for entry in self.trace_dropout]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ChaosSpec":
        return decode_table(cls, data, ScenarioError, "chaos spec")


class ChaosInjector:
    """Execute one campaign's :class:`ChaosSpec` against a live engine.

    Driven purely by the deterministic schedule — injection never
    touches an engine RNG.
    """

    def __init__(self, spec: ChaosSpec) -> None:
        self.spec = spec

    def begin_step(self, engine, deployment, step_index: int, campaign: str = ""):
        """Apply this step's scheduled effects; returns the typed events."""
        from repro.api.events import ChaosInjected

        events = []
        for loss in self.spec.operator_loss:
            if loss.step != step_index:
                continue
            operator = loss.operator or self._widest_operator(deployment)
            if not hasattr(engine, "fail_instances"):
                from repro.engines.base import EngineError

                raise EngineError(
                    f"chaos operator_loss needs a fault-capable engine "
                    f"(e.g. flink-faulty); {getattr(engine, 'name', type(engine).__name__)!r} "
                    "cannot fail instances"
                )
            configured = deployment.parallelisms.get(operator)
            if configured is None:
                from repro.engines.base import EngineError

                raise EngineError(
                    f"chaos operator_loss names operator {operator!r}, which "
                    f"this campaign's query does not have (operators: "
                    f"{', '.join(deployment.parallelisms)})"
                )
            already = 0
            if hasattr(engine, "lost_instances"):
                already = engine.lost_instances(deployment).get(operator, 0)
            # At least one instance must survive; a schedule asking for
            # more than the deployment can lose degrades to the maximum
            # injectable count (deterministic — the map is deterministic).
            count = min(loss.count, configured - already - 1)
            if count < 1:
                continue
            engine.fail_instances(deployment, operator, count)
            events.append(ChaosInjected(
                campaign=campaign,
                step_index=step_index,
                effect="operator-loss",
                operator=operator,
                count=count,
            ))
        for drop in self.spec.trace_dropout:
            if drop.step != step_index:
                continue
            events.append(ChaosInjected(
                campaign=campaign,
                step_index=step_index,
                effect="trace-dropout",
                factor=drop.factor,
            ))
        return events

    @staticmethod
    def _widest_operator(deployment) -> str:
        """Highest configured parallelism, first in flow order on ties."""
        best_name, best_width = "", -1
        for name, width in deployment.parallelisms.items():
            if width > best_width:
                best_name, best_width = name, width
        return best_name
