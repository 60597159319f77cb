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
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields as dataclass_fields

__all__ = [
    "ChaosInjector",
    "ChaosSpec",
    "OperatorLoss",
    "TraceDropout",
]

from repro.scenarios.library import ScenarioError


def _check_step(step, what: str) -> None:
    if not isinstance(step, int) or isinstance(step, bool) or step < 0:
        raise ScenarioError(
            f"chaos {what}: step must be a non-negative trace index, got {step!r}"
        )


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
        _check_step(self.step, "operator_loss")
        if not isinstance(self.count, int) or isinstance(self.count, bool) or self.count < 1:
            raise ScenarioError(
                f"chaos operator_loss: count must be a positive integer, "
                f"got {self.count!r}"
            )
        if not isinstance(self.operator, str):
            raise ScenarioError(
                f"chaos operator_loss: operator must be a name string, "
                f"got {self.operator!r}"
            )

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
        _check_step(self.step, "trace_dropout")
        factor = self.factor
        if isinstance(factor, int) and not isinstance(factor, bool):
            factor = float(factor)
            object.__setattr__(self, "factor", factor)
        if not isinstance(factor, float) or not (
            math.isfinite(factor) and 0.0 < factor < 1.0
        ):
            raise ScenarioError(
                f"chaos trace_dropout: factor must be a fraction in (0, 1), "
                f"got {self.factor!r}"
            )

    def to_dict(self) -> dict:
        return {"step": self.step, "factor": self.factor}


def _entries(value, cls, what: str) -> tuple:
    if isinstance(value, (str, bytes)) or not isinstance(value, (list, tuple)):
        raise ScenarioError(
            f"chaos {what} must be a list of tables, got {value!r}"
        )
    entries = []
    for item in value:
        if isinstance(item, cls):
            entries.append(item)
        elif isinstance(item, dict):
            known = {spec.name for spec in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
            unknown = sorted(set(item) - known)
            if unknown:
                raise ScenarioError(
                    f"chaos {what} does not understand field(s) "
                    f"{', '.join(map(repr, unknown))} (valid: "
                    f"{', '.join(sorted(known))})"
                )
            required = [
                spec.name
                for spec in dataclass_fields(cls)
                if spec.default is MISSING and spec.default_factory is MISSING
            ]
            missing = [name for name in required if name not in item]
            if missing:
                raise ScenarioError(
                    f"chaos {what}: every entry needs a {missing[0]!r}"
                )
            entries.append(cls(**item))
        else:
            raise ScenarioError(
                f"chaos {what} entries must be tables, got {item!r}"
            )
    return tuple(entries)


@dataclass(frozen=True)
class ChaosSpec:
    """A deterministic schedule of engine misbehaviour for one campaign."""

    operator_loss: tuple = field(default=())
    trace_dropout: tuple = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "operator_loss",
            _entries(self.operator_loss, OperatorLoss, "operator_loss"),
        )
        object.__setattr__(
            self,
            "trace_dropout",
            _entries(self.trace_dropout, TraceDropout, "trace_dropout"),
        )

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
        the recorded ``result.multipliers``, the cell's events and the
        service's cache pre-warm all agree on what actually arrived, on
        every backend.
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
        if not isinstance(data, dict):
            raise ScenarioError(
                f"a chaos spec must be a mapping, got {type(data).__name__}"
            )
        valid = ("operator_loss", "trace_dropout")
        unknown = sorted(set(data) - set(valid))
        if unknown:
            raise ScenarioError(
                f"chaos spec does not understand field(s) "
                f"{', '.join(map(repr, unknown))} (valid: {', '.join(valid)})"
            )
        return cls(
            operator_loss=data.get("operator_loss", ()),
            trace_dropout=data.get("trace_dropout", ()),
        )


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
