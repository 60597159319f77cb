"""Declarative plans: what to tune, described as data.

A plan is a frozen dataclass that round-trips losslessly through plain
dicts, JSON and TOML, so a tuning scenario is a config entry rather than
a code fork:

* :class:`TuningPlan` — one query driven through a rate trace by one
  tuning method: a one-campaign fleet on the service's ``sequential``
  backend.
* :class:`CampaignPlan` — a fleet of queries executed concurrently
  through the :class:`~repro.service.TuningService`.
* :class:`SweepPlan` — a parameter grid (engines x tuners x rate traces
  x chaos schedules, each over the same query fleet) that expands into
  one :class:`CampaignPlan` per cell (``repro run-plan`` on a sweep file,
  with ``--report`` for its benchmark-matrix summary).

Every input has one spelling, so one campaign has one ``cell_key``.  A
rate trace is a raw multiplier list in ``rates``, or a named
``{family, params, seed}`` spec in ``trace`` (resolved against the
:data:`repro.scenarios.TRACES` registry and materialized at validation
time); a sweep's ``rate_traces`` entries take either.  The prediction
layer is the ``layer`` field; ``tuner`` is a registry name.  Plans may
also carry a ``chaos`` schedule (:class:`repro.scenarios.ChaosSpec`) of
operator losses and trace dropouts keyed to trace steps.

Validation is *eager*: constructing a plan checks every name against its
registry (engine, tuner, prediction model) and stores the registry's
spelling, and checks every query token against the token grammar, every
numeric field against its domain, and the ``rates``/``queries`` shape —
so a bad config file fails at load time with an error that says what to
fix, not deep inside a worker pool.  A sweep whose grid holds the same
campaign twice fails naming both cells.

How a file or a request body becomes a table, and a table a plan (the
unknown- and missing-field checks, the int / float / name rules), lives
in :mod:`repro.utils.config`; this module owns what the fields mean.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, fields
from pathlib import Path

from repro.api.components import resolve_query  # noqa: F401  (re-exported)
from repro.api.components import parse_query_token
from repro.api.registry import ENGINES, MODELS, TUNERS, UnknownComponentError
from repro.utils.config import (
    check_float,
    check_int,
    check_name,
    decode_table,
    fits,
    read_config,
)

#: Worker-pool backends a campaign may request: the in-process pools of
#: :data:`repro.service.tuning.BACKENDS` plus the multi-process,
#: multi-host ``distributed`` executor (:mod:`repro.distributed`).  Kept
#: literal here so plan validation never has to import the execution
#: layers.
PLAN_BACKENDS = ("sequential", "thread", "distributed")


class PlanError(ValueError):
    """A plan failed validation; the message says which field and why."""


def _check_query_token(token: str) -> str:
    """Validate a query token without building the (expensive) query."""
    try:
        parse_query_token(token)
    except ValueError as error:
        raise PlanError(str(error)) from None
    return token


def _canonical(kind_label: str, registry, name: str) -> str:
    """``name``'s registry spelling: a plan stores that one, so every
    spelling of a campaign gets one cell key and one cache entry."""
    check_name(name, PlanError, kind_label)
    try:
        return registry.entry(name).name
    except UnknownComponentError as error:
        raise PlanError(f"{kind_label}: {error}") from None


def _campaign_tuner(name: str, where: str = "tuner") -> str:
    """The registry spelling of any method the service can host.

    The prediction layer is the ``layer`` field, never a tuner suffix.
    The service builds every campaign's tuner from its spec alone, so
    methods registered with ``needs_history=True`` (their factory pulls
    an execution history from its resources, e.g. zerotune) cannot run
    in a plan of any kind.
    """
    base, dash, model = check_name(name, PlanError, where).partition("-")
    if dash and base.lower() == "streamtune":
        raise PlanError(
            f"{where}: {name!r} is not a tuner name; the prediction layer is "
            f'its own field: write tuner = "streamtune", layer = "{model.lower()}"'
        )
    name = _canonical(where, TUNERS, name)
    if TUNERS.entry(name).needs_history:
        raise PlanError(
            f"tuner {name!r} needs an execution history "
            "at construction time, which the tuning service does not "
            "carry, so no plan can run it; build it with "
            "repro.experiments.context.make_tuner instead"
        )
    return name


def _check_scale(name: str | None) -> None:
    if check_name(name, PlanError, "scale", optional=True) is None:
        return
    from repro.experiments.scale import resolve_scale

    try:
        resolve_scale(name)
    except KeyError as error:
        raise PlanError(f"scale: {error.args[0]}") from None


def _as_rates(value, field_name: str = "rates") -> tuple[float, ...]:
    if isinstance(value, dict):
        raise PlanError(
            f"{field_name} takes a raw multiplier list; write a trace spec "
            "as trace = {family, params, seed}"
        )
    if isinstance(value, (str, bytes)):
        raise PlanError(
            f"{field_name} must be a sequence of numbers, got the string "
            f"{value!r} (did you forget to split it?)"
        )
    if not isinstance(value, (list, tuple)) or not all(fits(rate, float) for rate in value):
        raise PlanError(
            f"{field_name} must be a sequence of numbers, got {value!r}"
        )
    rates = tuple(check_float(rate, PlanError, field_name) for rate in value)
    if not rates:
        raise PlanError(f"{field_name} must contain at least one multiplier")
    for rate in rates:
        # isfinite also rejects NaN (which would sneak past `> 0` as
        # False and past `<= 0` as False — be explicit).
        if not (math.isfinite(rate) and rate > 0):
            raise PlanError(
                f"{field_name} multipliers must be finite and > 0, "
                f"got {rate:g}"
            )
    return rates


def _rate_label(rate: float) -> str:
    """``rate`` as a scenario label prints it: ``%g`` when that reads
    back as the same float, else ``repr`` — distinct traces, distinct
    labels."""
    text = f"{rate:g}"
    return text if float(text) == rate else repr(rate)


def _as_trace(value, field_name: str = "trace"):
    """Normalize a trace field value to a :class:`TraceSpec` (or ``None``)."""
    if value is None:
        return None
    from repro.scenarios.library import ScenarioError, TraceSpec

    if isinstance(value, TraceSpec):
        return value
    try:
        return TraceSpec.from_dict(value)
    except ScenarioError as error:
        raise PlanError(f"{field_name}: {error}") from None


def _as_rate_trace(value, field_name: str):
    """A sweep's ``rate_traces`` entry: a spec table or a raw list."""
    from repro.scenarios.library import TraceSpec

    if isinstance(value, (dict, TraceSpec)):
        return _as_trace(value, field_name)
    return _as_rates(value, field_name)


def _resolve_trace(raw, trace):
    """The concrete rate tuple of a plan whose ``trace`` spec is set."""
    from repro.scenarios.library import ScenarioError

    try:
        materialized = trace.materialize()
    except ScenarioError as error:
        raise PlanError(f"trace: {error}") from None
    # A rate list given beside the spec (a round-tripped plan writes
    # both) must agree with it.
    rates = materialized if raw is None else _as_rates(raw)
    if rates != materialized:
        raise PlanError(
            "rates disagrees with the trace spec: the spec "
            f"materializes to {list(materialized)} but rates says "
            f"{list(rates)}; drop rates and let the spec drive"
        )
    return materialized


def _parse_chaos(value, field_name: str = "chaos"):
    """A chaos spec table as a :class:`ChaosSpec`, no-op ones included."""
    from repro.scenarios.chaos import ChaosSpec
    from repro.scenarios.library import ScenarioError

    if isinstance(value, ChaosSpec):
        return value
    try:
        return ChaosSpec.from_dict(value)
    except ScenarioError as error:
        raise PlanError(f"{field_name}: {error}") from None


def _as_chaos(value):
    """A campaign's chaos field: a :class:`ChaosSpec`, no-ops ``None``."""
    spec = None if value is None else _parse_chaos(value)
    return None if spec is None or spec.is_noop else spec


def _check_chaos_executes(chaos, engine: str, n_steps: int) -> None:
    """Eagerly reject a chaos schedule this plan could never execute."""
    if chaos is None:
        return
    if chaos.max_step >= n_steps:
        raise PlanError(
            "chaos schedules an effect at trace step "
            f"{chaos.max_step}, but each campaign here runs only {n_steps} "
            f"step(s) (indices 0..{n_steps - 1}); shorten the schedule or "
            "lengthen the trace"
        )
    required = chaos.required_traits()
    have = set(ENGINES.entry(engine).traits)
    missing = sorted(required - have)
    if missing:
        capable = sorted(
            name for name in ENGINES.names()
            if required <= set(ENGINES.entry(name).traits)
        )
        raise PlanError(
            "chaos needs engine capability "
            f"{', '.join(map(repr, missing))}, which engine {engine!r} does "
            f"not declare (capable: {', '.join(capable) or 'no registered engine'})"
        )


def _campaign_spec(plan, token: str, rates, engine_seed: int):
    """The :class:`~repro.service.CampaignSpec` of one (query, trace) of a
    tuning or campaign plan — the one place plan fields become a
    campaign.  Imported lazily: validation never needs the service."""
    from repro.service.tuning import CampaignSpec

    return CampaignSpec(
        query=resolve_query(token, plan.engine),
        multipliers=rates,
        engine=plan.engine,
        engine_seed=engine_seed,
        seed=plan.seed,
        tuner=plan.tuner,
        model_kind=plan.layer,
        chaos=plan.chaos,
    )


def _check_run_fields(plan) -> None:
    """What a tuning and a campaign plan validate alike, normalizing
    ``rates`` / ``trace`` and the names in place: the rate trace (a raw
    list, a spec that materializes into one, or neither for the kind's
    ``default_rates``), the engine / tuner / layer names (stored in their
    registry spelling), the scale, the seed, and a ``cache_path`` only
    beside a tuner with caches."""
    trace = _as_trace(plan.trace)
    object.__setattr__(plan, "trace", trace)
    if trace is not None:
        rates = _resolve_trace(plan.rates, trace)
    else:
        rates = _as_rates(plan.default_rates if plan.rates is None else plan.rates)
    object.__setattr__(plan, "rates", rates)
    object.__setattr__(plan, "engine", _canonical("engine", ENGINES, plan.engine))
    object.__setattr__(plan, "tuner", _campaign_tuner(plan.tuner))
    object.__setattr__(plan, "layer", _canonical("layer", MODELS, plan.layer))
    _check_scale(plan.scale)
    check_name(plan.model, PlanError, "model", optional=True)
    check_name(plan.cache_path, PlanError, "cache_path", optional=True)
    check_int(plan.seed, PlanError, "seed")
    if plan.cache_path is not None and plan.tuner != "streamtune":
        raise PlanError(
            f"cache_path only applies to the streamtune tuner (the "
            f"baselines consult no tuning cache); remove it or drop "
            f"tuner={plan.tuner!r}"
        )


def _listify(value):
    if isinstance(value, tuple):
        return [_listify(item) for item in value]
    if hasattr(value, "to_dict"):        # TraceSpec / ChaosSpec fields
        return value.to_dict()
    if isinstance(value, dict):
        return {key: _listify(item) for key, item in value.items()}
    return value


class _Plan:
    """What the three plan kinds share: the lossless dict / JSON round
    trip and the cell keys of the campaigns they expand to.  Each kind is
    a frozen dataclass with a ``kind`` string and a ``specs()`` expansion."""

    def cell_keys(self) -> list[str]:
        """The deterministic identity of every campaign this plan runs, in
        plan (for a sweep: grid) order — what it stamps on its events, and
        what ``--resume`` matches a recorded log against."""
        return [spec.cell_key for spec in self.specs()]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            **{spec.name: _listify(getattr(self, spec.name)) for spec in fields(self)},
        }

    @classmethod
    def from_dict(cls, data: dict):
        if isinstance(data, dict) and "kind" in data:
            data = dict(data)
            declared_kind = data.pop("kind")
            if declared_kind is not None and declared_kind != cls.kind:
                raise PlanError(
                    f"this document declares kind {declared_kind!r} but was "
                    f"loaded as a {cls.__name__} (kind {cls.kind!r})"
                )
        return decode_table(cls, data, PlanError, cls.__name__)


# ----------------------------------------------------------------------
# the plans
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TuningPlan(_Plan):
    """One query, one tuning method, one source-rate trace: a one-campaign
    fleet on the service's ``sequential`` backend."""

    query: str
    #: Raw multiplier list; ``None`` is the trace's rates, or else
    #: ``default_rates``.
    rates: tuple[float, ...] | None = None
    engine: str = "flink"
    tuner: str = "streamtune"
    layer: str = "svm"                 # prediction model (streamtune only)
    model: str | None = None           # pretrained directory; None = build at `scale`
    scale: str | None = None           # None = $REPRO_SCALE / 'default'
    seed: int = 17
    cache_path: str | None = None      # persisted TuningCacheSet snapshot
    #: Named rate-trace spec ({family, params, seed}); materializes into
    #: ``rates``.
    trace: object = None
    #: Deterministic fault / source-outage schedule (ChaosSpec table);
    #: a no-op schedule normalizes to None.
    chaos: object = None

    kind = "tuning"
    default_rates = (3.0, 10.0, 5.0)
    # Not fields: a tuning plan always runs its one campaign in-process.
    backend = "sequential"
    workers = None

    def __post_init__(self) -> None:
        _check_query_token(self.query)
        _check_run_fields(self)
        object.__setattr__(self, "chaos", _as_chaos(self.chaos))
        _check_chaos_executes(self.chaos, self.engine, len(self.rates))

    def specs(self) -> list:
        """The one campaign this plan runs, as a
        :class:`~repro.service.CampaignSpec` (a tuning plan is a single
        campaign)."""
        from repro.experiments.scale import resolve_scale

        # A tuning plan seeds its engine from the scale, not the plan seed
        # (unlike campaign fleets).
        engine_seed = resolve_scale(self.scale).seed
        return [_campaign_spec(self, self.query, self.rates, engine_seed)]


@dataclass(frozen=True)
class CampaignPlan(_Plan):
    """A fleet of queries tuned concurrently through the service."""

    queries: tuple[str, ...]
    #: The one rate trace every query of the fleet runs (see
    #: :attr:`TuningPlan.rates`).
    rates: tuple[float, ...] | None = None
    engine: str = "flink"
    tuner: str = "streamtune"
    backend: str = "thread"
    #: Pool size; for the ``distributed`` backend, the local worker
    #: agents that staff the spool (0: a standing fleet drains the
    #: ``spool_dir``, which must then be named).
    workers: int | None = None
    layer: str = "svm"
    model: str | None = None
    scale: str | None = None
    seed: int = 17
    cache_path: str | None = None
    #: Shared work-spool directory for the ``distributed`` backend: the
    #: coordinator seeds cells there and worker agents on any host claim
    #: them.  ``None`` with backend="distributed" means an ephemeral
    #: local spool (the coordinator creates, populates with local
    #: workers, and removes it).  The in-process backends reject it.
    spool_dir: str | None = None
    #: Named rate-trace spec ({family, params, seed}); materializes into
    #: ``rates``.
    trace: object = None
    #: Deterministic fault / source-outage schedule (ChaosSpec table),
    #: applied to every campaign of the fleet; no-op normalizes to None.
    chaos: object = None

    kind = "campaign"
    default_rates = (3.0, 7.0, 4.0, 2.0)

    def __post_init__(self) -> None:
        if not isinstance(self.queries, (list, tuple)):
            hint = " (did you forget to split it?)" if isinstance(self.queries, str) else ""
            raise PlanError(f"queries must be a list of query tokens, got {self.queries!r}{hint}")
        object.__setattr__(self, "queries", tuple(self.queries))
        if not self.queries:
            raise PlanError("queries must contain at least one query token")
        for token in self.queries:
            _check_query_token(token)
        _check_run_fields(self)
        if self.backend not in PLAN_BACKENDS:
            raise PlanError(
                f"backend must be one of {', '.join(PLAN_BACKENDS)}, got "
                f"{self.backend!r}"
            )
        # Distributed workers are local agents, and a spool a standing
        # fleet drains needs none.
        if self.workers is not None:
            check_int(
                self.workers, PlanError, f"workers for the {self.backend} backend",
                minimum=0 if self.backend == "distributed" else 1,
            )
        if self.cache_path is not None and self.backend == "distributed":
            raise PlanError(
                "cache_path does not apply to the distributed backend (worker "
                "agents keep their own caches; the coordinator neither loads "
                "nor saves a snapshot); remove it or pick an in-process backend"
            )
        check_name(self.spool_dir, PlanError, "spool_dir", optional=True)
        if self.spool_dir is not None and self.backend != "distributed":
            raise PlanError(
                f"spool_dir only applies to the distributed backend, not "
                f"{self.backend}; remove it or set backend = \"distributed\""
            )
        if self.workers == 0 and self.spool_dir is None:
            raise PlanError("workers = 0 needs the spool_dir that standing "
                            "worker agents watch; none can find an ephemeral one")
        object.__setattr__(self, "chaos", _as_chaos(self.chaos))
        _check_chaos_executes(self.chaos, self.engine, len(self.rates))

    def specs(self) -> list:
        """One :class:`~repro.service.CampaignSpec` per fleet campaign, in
        plan order — what the service, the spool and ``cell_keys`` all
        expand this plan to.  A duplicated query token yields a spec per
        entry, so the service rejects it instead of a campaign vanishing."""
        return [
            # Fleet campaigns seed their engines from the plan seed.
            _campaign_spec(self, token, self.rates, self.seed)
            for token in self.queries
        ]


@dataclass(frozen=True)
class SweepPlan(_Plan):
    """A scenario grid: engines x tuners x rate traces over one query fleet.

    Each grid cell expands into a :class:`CampaignPlan` running every
    query of ``queries`` under that cell's (engine, tuner, rate-trace)
    combination — the PDSP-Bench-style enumeration of parallelism studies
    as one config file.  Validation is eager per axis, so a bad entry
    fails naming the axis at load time; no two cells may be the same
    campaign; and :meth:`expand` is deterministic: engines vary slowest,
    rate traces fastest.
    """

    queries: tuple[str, ...]
    tuners: tuple[str, ...] = ("streamtune",)
    engines: tuple[str, ...] = ("flink",)
    #: One entry per rate trace: a raw multiplier list, or a named
    #: ``{family, params, seed}`` trace spec — mixed freely.
    rate_traces: tuple = ((3.0, 7.0, 4.0, 2.0),)
    backend: str = "thread"
    workers: int | None = None
    layer: str = "svm"
    model: str | None = None
    scale: str | None = None
    seed: int = 17
    #: Shared work spool for the ``distributed`` backend (see
    #: :class:`CampaignPlan.spool_dir`); passed through to every cell.
    spool_dir: str | None = None
    #: The chaos grid axis: zero or more chaos spec tables, crossed with
    #: every (engine, tuner, trace) cell.  Include ``{}`` (the no-op
    #: schedule) to keep a clean baseline cell next to the chaotic ones.
    #: An empty axis means no chaos dimension at all.
    chaos: tuple = ()

    kind = "sweep"

    def __post_init__(self) -> None:
        # Each axis entry parses with the helper its cells use.
        for axis, parse in (
            ("queries", lambda token, where: _check_query_token(token)),
            ("tuners", lambda name, where: _campaign_tuner(name, where)),
            ("engines", lambda name, where: _canonical(where, ENGINES, name)),
            ("rate_traces", _as_rate_trace),
            ("chaos", _parse_chaos),
        ):
            values = getattr(self, axis)
            if not isinstance(values, (list, tuple)):
                hint = " (did you forget to split it?)" if isinstance(values, str) else ""
                raise PlanError(f"{axis} must be a list, got {values!r}{hint}")
            # An empty chaos axis means no chaos dimension at all.
            if not values and axis != "chaos":
                raise PlanError(f"{axis} must contain at least one entry")
            object.__setattr__(self, axis, tuple(
                parse(value, f"{axis}[{index}]") for index, value in enumerate(values)
            ))
        # A sweep is valid exactly when every expanded CampaignPlan is, and
        # no two cells are the same campaign (they would share cell keys).
        seen: dict = {}
        for cell in self.expand():
            identity = (cell.engine, cell.tuner, cell.rates, cell.chaos)
            if identity in seen:
                raise PlanError(
                    f"cells {seen[identity]!r} and {self.scenario_label(cell)!r} "
                    "are the same campaign (engine, tuner, materialized rates "
                    "and chaos agree); each grid cell must be unique"
                )
            seen[identity] = self.scenario_label(cell)

    @property
    def n_scenarios(self) -> int:
        return (
            len(self.engines) * len(self.tuners) * len(self.rate_traces)
            * max(1, len(self.chaos))
        )

    def scenario_label(self, plan: "CampaignPlan") -> str:
        """The human label of one expanded cell (stamped on its events)."""
        if plan.trace is not None:
            trace = plan.trace.label()
        else:
            trace = "x" + "-".join(_rate_label(rate) for rate in plan.rates)
        label = f"{plan.tuner}@{plan.engine}/{trace}"
        if self.chaos:
            chaos = plan.chaos.label() if plan.chaos is not None else "none"
            label += f"+{chaos}"
        return label

    def expand(self) -> "list[CampaignPlan]":
        """One validated :class:`CampaignPlan` per grid cell, grid order:
        engines vary slowest, then tuners, traces, chaos fastest."""
        cells = []
        chaos_axis = self.chaos if self.chaos else (None,)
        for engine in self.engines:
            for tuner in self.tuners:
                for trace in self.rate_traces:
                    for chaos in chaos_axis:
                        spec = not isinstance(trace, tuple)
                        cells.append(CampaignPlan(
                            queries=self.queries,
                            engine=engine,
                            tuner=tuner,
                            backend=self.backend,
                            workers=self.workers,
                            layer=self.layer,
                            model=self.model,
                            scale=self.scale,
                            seed=self.seed,
                            spool_dir=self.spool_dir,
                            rates=None if spec else trace,
                            trace=trace if spec else None,
                            chaos=chaos,
                        ))
        return cells

    def specs(self) -> list:
        """Every campaign a full sweep run executes, in grid order."""
        return [spec for cell in self.expand() for spec in cell.specs()]


# ----------------------------------------------------------------------
# dict / file round-tripping
# ----------------------------------------------------------------------

def plan_type(data) -> type:
    """The plan class a table decodes to, inferring the kind.

    An explicit ``kind`` key wins; otherwise a sweep-only axis
    (``tuners`` / ``engines`` / ``rate_traces``) selects a sweep,
    ``queries`` a campaign, and ``query`` a single tuning plan.
    """
    if not isinstance(data, dict):
        raise PlanError(f"a plan must be a mapping, got {type(data).__name__}")
    kind = data.get("kind")
    for cls in (TuningPlan, CampaignPlan, SweepPlan):
        if kind == cls.kind:
            return cls
    if kind is not None:
        raise PlanError(
            f"unknown plan kind {kind!r} (expected 'tuning', 'campaign' or "
            "'sweep')"
        )
    if any(axis in data for axis in ("tuners", "engines", "rate_traces")):
        return SweepPlan
    if isinstance(data.get("chaos"), (list, tuple)):
        # A chaos *list* is the sweep grid axis (campaign/tuning plans
        # carry a single chaos table).
        return SweepPlan
    if "queries" in data:
        return CampaignPlan
    if "query" in data:
        return TuningPlan
    raise PlanError(
        "cannot infer the plan kind: provide 'kind', a 'query' (tuning plan), "
        "a 'queries' list (campaign plan) or a grid axis like 'tuners' "
        "(sweep plan)"
    )


def plan_from_dict(data: dict) -> "TuningPlan | CampaignPlan | SweepPlan":
    """Build any plan type from a dict (its class is :func:`plan_type`'s)."""
    return plan_type(data).from_dict(data)


def load_plan(
    path: str | Path, overrides: dict | None = None
) -> "TuningPlan | CampaignPlan | SweepPlan":
    """Load a plan from a ``.json`` or ``.toml`` file.

    ``overrides`` (a command line's ``--backend``, ``--workers``, ...)
    replace the file's fields before its one validation, so a file that
    is valid only with them loads.
    """
    data = read_config(path, PlanError, "plan")
    if overrides and isinstance(data, dict):
        data = {**data, **overrides}
    try:
        return plan_from_dict(data)
    except PlanError as error:
        raise PlanError(f"{path}: {error}") from None


def replace(plan, **changes):
    """`dataclasses.replace` re-exported: overrides re-validate eagerly."""
    return dataclasses.replace(plan, **changes)
