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
  one :class:`CampaignPlan` per cell (``repro run-plan`` on a sweep file
  and the ``repro matrix`` lifecycle).

Rate traces come in two spellings everywhere a plan accepts them: a raw
multiplier list (back-compat — cell keys stay byte-identical), or a named
``{family, params, seed}`` spec resolved against the
:data:`repro.scenarios.TRACES` registry and materialized at validation
time.  Plans may also carry a ``chaos`` schedule
(:class:`repro.scenarios.ChaosSpec`) of operator losses and trace
dropouts keyed to trace steps.

Validation is *eager*: constructing a plan checks every name against its
registry (engine, tuner, prediction model), every query token against the
token grammar, every numeric field against its domain, and the
``rates``/``queries`` shape — so a bad
config file fails at load time with an error that says what to fix, not
deep inside a worker pool.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from repro.api.components import resolve_query  # noqa: F401  (re-exported)
from repro.api.components import parse_query_token, streamtune_variant
from repro.api.registry import ENGINES, MODELS, TUNERS, UnknownComponentError

#: Worker-pool backends a campaign may request: the in-process pools of
#: :data:`repro.service.tuning.BACKENDS` plus the multi-host
#: ``distributed`` executor (:mod:`repro.distributed`).  Kept literal
#: here so plan validation never has to import the execution layers.
PLAN_BACKENDS = ("sequential", "thread", "process", "distributed")


class PlanError(ValueError):
    """A plan failed validation; the message says which field and why."""


def _check_query_token(token: str) -> None:
    """Validate a query token without building the (expensive) query."""
    try:
        parse_query_token(token)
    except ValueError as error:
        raise PlanError(str(error)) from None


def _check_registry(kind_label: str, registry, name: str) -> None:
    try:
        registry.entry(name)
    except UnknownComponentError as error:
        raise PlanError(f"{kind_label}: {error}") from None


def _check_campaign_tuner(name: str) -> None:
    """Any registered method the service can host, accepting the
    ``streamtune-<model>`` spelling.

    The service builds every campaign's tuner from its spec alone, so
    methods registered with ``needs_history=True`` (their factory pulls
    an execution history from its resources, e.g. zerotune) cannot run
    in a plan of any kind.
    """
    if name in TUNERS:
        if TUNERS.entry(name).needs_history:
            raise PlanError(
                f"tuner {TUNERS.entry(name).name!r} needs an execution history "
                "at construction time, which the tuning service does not "
                "carry, so no plan can run it; build it with "
                "repro.experiments.context.make_tuner instead"
            )
        return
    # The only dashed spelling is the legacy 'streamtune-<model>' ablation
    # form; its model suffix must itself resolve, so a bad config fails
    # here, not deep inside a session run.
    is_streamtune, model_suffix = streamtune_variant(name)
    if not is_streamtune or model_suffix is None:
        _check_registry("tuner", TUNERS, name)
    _check_registry(f"tuner {name!r} model suffix", MODELS, model_suffix)


def _check_scale(name: str | None) -> None:
    if name is None:
        return
    from repro.experiments.scale import resolve_scale

    try:
        resolve_scale(name)
    except KeyError as error:
        raise PlanError(f"scale: {error.args[0]}") from None


def _as_rates(value, field_name: str = "rates") -> tuple[float, ...]:
    if isinstance(value, (str, bytes)):
        raise PlanError(
            f"{field_name} must be a sequence of numbers, got the string "
            f"{value!r} (did you forget to split it?)"
        )
    try:
        rates = tuple(float(rate) for rate in value)
    except (TypeError, ValueError):
        raise PlanError(
            f"{field_name} must be a sequence of numbers, got {value!r}"
        ) from None
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


def _is_trace_spec(value) -> bool:
    from repro.scenarios.library import TraceSpec

    return isinstance(value, TraceSpec)


def _as_trace(value, field_name: str = "trace"):
    """Normalize a trace field value to a :class:`TraceSpec` (or ``None``)."""
    if value is None:
        return None
    from repro.scenarios.library import ScenarioError, TraceSpec

    if isinstance(value, TraceSpec):
        return value
    if isinstance(value, dict):
        try:
            return TraceSpec.from_dict(value)
        except ScenarioError as error:
            raise PlanError(f"{field_name}: {error}") from None
    raise PlanError(
        f"{field_name} must be a trace spec table ({{family, params, seed}}), "
        f"got {value!r}"
    )


def _split_rates(rates, trace):
    """Let the ``rates`` field itself carry a ``{family, ...}`` spec.

    Returns ``(raw_rates_or_None, trace_spec_or_None)`` — ``None`` raw
    rates mean "materialize the spec".
    """
    if isinstance(rates, dict) or _is_trace_spec(rates):
        if trace is not None:
            raise PlanError(
                "pass the trace spec through either 'rates' or 'trace', not both"
            )
        return None, _as_trace(rates, "rates")
    return rates, _as_trace(trace)


def _resolve_trace(raw, trace, default_rates):
    """The concrete rate tuple of a plan whose ``trace`` spec is set."""
    from repro.scenarios.library import ScenarioError

    try:
        materialized = trace.materialize()
    except ScenarioError as error:
        raise PlanError(f"trace: {error}") from None
    if raw is None:
        return materialized
    rates = _as_rates(raw)
    # An explicitly-spelled rate list must agree with the spec (the
    # field default is treated as "omitted" — dataclasses cannot tell).
    if rates != materialized and rates != default_rates:
        raise PlanError(
            "rates disagrees with the trace spec: the spec "
            f"materializes to {list(materialized)} but rates says "
            f"{list(rates)}; drop rates and let the spec drive"
        )
    return materialized


def _as_chaos(value):
    """Normalize a chaos field to a :class:`ChaosSpec`; no-ops to ``None``."""
    if value is None:
        return None
    from repro.scenarios.chaos import ChaosSpec
    from repro.scenarios.library import ScenarioError

    if not isinstance(value, ChaosSpec):
        if not isinstance(value, dict):
            raise PlanError(
                "chaos must be a chaos spec table "
                f"({{operator_loss, trace_dropout}}), got {value!r}"
            )
        try:
            value = ChaosSpec.from_dict(value)
        except ScenarioError as error:
            raise PlanError(f"chaos: {error}") from None
    return None if value.is_noop else value


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


def _campaign_spec(plan, token: str, rates, engine_seed: int, loose_tolerances=True):
    """The :class:`~repro.service.CampaignSpec` of one (query, trace) of a
    tuning or campaign plan — the one place plan fields become a
    campaign.  Imported lazily: validation never needs the service."""
    from repro.service.scheduler import CampaignSpec

    return CampaignSpec(
        query=resolve_query(token, plan.engine),
        multipliers=rates,
        engine=plan.engine,
        engine_seed=engine_seed,
        seed=plan.seed,
        tuner=plan.tuner,
        model_kind=plan.layer,
        chaos=plan.chaos,
        loose_tolerances=loose_tolerances,
    )


def _check_run_fields(plan) -> None:
    """What a tuning and a campaign plan validate alike, normalizing
    ``rates`` / ``trace`` in place: the rate trace (a raw list, or a spec
    that materializes into one), the engine / tuner / layer names, the
    scale, the seed, and a ``cache_path`` only beside a tuner with caches."""
    raw, trace = _split_rates(plan.rates, plan.trace)
    object.__setattr__(plan, "trace", trace)
    if trace is not None:
        rates = _resolve_trace(raw, trace, type(plan).rates)
    else:
        rates = _as_rates(raw)
    object.__setattr__(plan, "rates", rates)
    _check_registry("engine", ENGINES, plan.engine)
    _check_campaign_tuner(plan.tuner)
    _check_registry("layer", MODELS, plan.layer)
    _check_scale(plan.scale)
    if not isinstance(plan.seed, int) or isinstance(plan.seed, bool):
        raise PlanError(f"seed must be an integer, got {plan.seed!r}")
    if plan.cache_path is not None and not streamtune_variant(plan.tuner)[0]:
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
        if not isinstance(data, dict):
            raise PlanError(
                f"a {cls.__name__} must be a mapping, got {type(data).__name__}"
            )
        data = dict(data)
        declared_kind = data.pop("kind", None)
        if declared_kind is not None and declared_kind != cls.kind:
            raise PlanError(
                f"this document declares kind {declared_kind!r} but was loaded as "
                f"a {cls.__name__} (kind {cls.kind!r})"
            )
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise PlanError(
                f"{cls.__name__} does not understand field(s) "
                f"{', '.join(map(repr, unknown))} (valid fields: "
                f"{', '.join(sorted(known))})"
            )
        return cls(**data)


# ----------------------------------------------------------------------
# the plans
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TuningPlan(_Plan):
    """One query, one tuning method, one source-rate trace: a one-campaign
    fleet on the service's ``sequential`` backend."""

    query: str
    rates: tuple[float, ...] = (3.0, 10.0, 5.0)
    engine: str = "flink"
    tuner: str = "streamtune"
    layer: str = "svm"                 # prediction model (streamtune only)
    model: str | None = None           # pretrained directory; None = build at `scale`
    scale: str | None = None           # None = $REPRO_SCALE / 'default'
    seed: int = 17
    cache_path: str | None = None      # persisted TuningCacheSet snapshot
    #: Named rate-trace spec ({family, params, seed}); materializes into
    #: ``rates``.  Raw ``rates`` lists stay first-class (trace = None).
    trace: object = None
    #: Deterministic fault / source-outage schedule (ChaosSpec table);
    #: a no-op schedule normalizes to None.
    chaos: object = None

    kind = "tuning"
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
        # (unlike campaign fleets), and fits M_f at the solver defaults.
        engine_seed = resolve_scale(self.scale).seed
        return [_campaign_spec(self, self.query, self.rates, engine_seed, loose_tolerances=False)]


@dataclass(frozen=True)
class CampaignPlan(_Plan):
    """A fleet of queries tuned concurrently through the service."""

    queries: tuple[str, ...]
    #: The one rate trace every query of the fleet runs.
    rates: tuple[float, ...] = (3.0, 7.0, 4.0, 2.0)
    engine: str = "flink"
    tuner: str = "streamtune"
    backend: str = "thread"
    #: Pool size; for the ``distributed`` backend, the local worker
    #: agents that staff the spool (0: a standing fleet drains it).
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
    #: workers, and removes it).  Ignored by the in-process backends.
    spool_dir: str | None = None
    #: Named rate-trace spec ({family, params, seed}); materializes into
    #: ``rates``.  Raw ``rates`` lists stay first-class (trace = None).
    trace: object = None
    #: Deterministic fault / source-outage schedule (ChaosSpec table),
    #: applied to every campaign of the fleet; no-op normalizes to None.
    chaos: object = None

    kind = "campaign"

    def __post_init__(self) -> None:
        if isinstance(self.queries, (str, bytes)):
            raise PlanError(
                "queries must be a sequence of query tokens, got the string "
                f"{self.queries!r} (did you forget to split it?)"
            )
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
        least = 0 if self.backend == "distributed" else 1
        if self.workers is not None and (
            not isinstance(self.workers, int) or self.workers < least
        ):
            raise PlanError(
                f"workers must be an integer >= {least} for the "
                f"{self.backend} backend, got {self.workers!r}"
            )
        if self.cache_path is not None and self.backend == "distributed":
            raise PlanError(
                "cache_path does not apply to the distributed backend (worker "
                "agents keep their own caches; the coordinator neither loads "
                "nor saves a snapshot); remove it or pick an in-process backend"
            )
        if self.spool_dir is not None and not isinstance(self.spool_dir, str):
            raise PlanError(
                f"spool_dir must be a directory path string, got "
                f"{self.spool_dir!r}"
            )
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
    fails naming the axis at load time, and :meth:`expand` is
    deterministic: engines vary slowest, rate traces fastest.
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
        for axis, values in (
            ("queries", self.queries),
            ("tuners", self.tuners),
            ("engines", self.engines),
        ):
            if isinstance(values, (str, bytes)):
                raise PlanError(
                    f"{axis} must be a sequence of names, got the string "
                    f"{values!r} (did you forget to split it?)"
                )
            object.__setattr__(self, axis, tuple(values))
            if not getattr(self, axis):
                raise PlanError(f"{axis} must contain at least one entry")
        # Duplicate grid-axis entries would expand into indistinguishable
        # cells (same scenario label, merged metrics) — reject them here.
        for axis in ("tuners", "engines"):
            values = getattr(self, axis)
            if len(set(values)) != len(values):
                raise PlanError(
                    f"{axis} contains duplicate entries ({', '.join(values)}); "
                    "each grid-axis entry must be unique"
                )
        for token in self.queries:
            _check_query_token(token)
        for tuner in self.tuners:
            _check_campaign_tuner(tuner)
        for engine in self.engines:
            _check_registry("engine", ENGINES, engine)
        if isinstance(self.rate_traces, (str, bytes)) or not isinstance(
            self.rate_traces, (list, tuple)
        ):
            raise PlanError(
                f"rate_traces must be a list of rate lists, got "
                f"{self.rate_traces!r}"
            )
        if not self.rate_traces:
            raise PlanError("rate_traces must contain at least one rate trace")
        entries = []
        for index, trace in enumerate(self.rate_traces):
            if isinstance(trace, dict) or _is_trace_spec(trace):
                entries.append(_as_trace(trace, field_name=f"rate_traces[{index}]"))
            else:
                entries.append(_as_rates(trace, field_name=f"rate_traces[{index}]"))
        object.__setattr__(self, "rate_traces", tuple(entries))
        if len(set(self.rate_traces)) != len(self.rate_traces):
            raise PlanError(
                "rate_traces contains duplicate traces; each grid-axis "
                "entry must be unique"
            )
        if isinstance(self.chaos, (str, bytes, dict)) or not isinstance(
            self.chaos, (list, tuple)
        ):
            raise PlanError(
                f"chaos must be a list of chaos spec tables (the grid axis; "
                f"include {{}} for a clean baseline cell), got {self.chaos!r}"
            )
        from repro.scenarios.chaos import ChaosSpec
        from repro.scenarios.library import ScenarioError

        axis = []
        for index, spec in enumerate(self.chaos):
            if isinstance(spec, ChaosSpec):
                axis.append(spec)
                continue
            if not isinstance(spec, dict):
                raise PlanError(
                    f"chaos[{index}] must be a chaos spec table "
                    f"({{operator_loss, trace_dropout}}), got {spec!r}"
                )
            try:
                axis.append(ChaosSpec.from_dict(spec))
            except ScenarioError as error:
                raise PlanError(f"chaos[{index}]: {error}") from None
        object.__setattr__(self, "chaos", tuple(axis))
        if len(set(self.chaos)) != len(self.chaos):
            raise PlanError(
                "chaos contains duplicate schedules; each grid-axis entry "
                "must be unique"
            )
        # Delegate the remaining field checks to the cells themselves: a
        # SweepPlan is valid exactly when every expanded CampaignPlan is.
        self.expand()

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
            trace = "x" + "-".join(f"{rate:g}" for rate in plan.rates)
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
                        kwargs = {
                            "queries": self.queries,
                            "engine": engine,
                            "tuner": tuner,
                            "backend": self.backend,
                            "workers": self.workers,
                            "layer": self.layer,
                            "model": self.model,
                            "scale": self.scale,
                            "seed": self.seed,
                            "spool_dir": self.spool_dir,
                            "chaos": chaos,
                        }
                        if _is_trace_spec(trace):
                            kwargs["trace"] = trace
                        else:
                            kwargs["rates"] = trace
                        cells.append(CampaignPlan(**kwargs))
        return cells

    def specs(self) -> list:
        """Every campaign a full sweep run executes, in grid order."""
        return [spec for cell in self.expand() for spec in cell.specs()]


# ----------------------------------------------------------------------
# dict / file round-tripping
# ----------------------------------------------------------------------

def plan_from_dict(data: dict) -> "TuningPlan | CampaignPlan | SweepPlan":
    """Build any plan type from a dict, inferring the kind.

    An explicit ``kind`` key wins; otherwise a sweep-only axis
    (``tuners`` / ``engines`` / ``rate_traces``) selects a sweep,
    ``queries`` a campaign, and ``query`` a single tuning plan.
    """
    if not isinstance(data, dict):
        raise PlanError(f"a plan must be a mapping, got {type(data).__name__}")
    kind = data.get("kind")
    if kind == "tuning":
        return TuningPlan.from_dict(data)
    if kind == "campaign":
        return CampaignPlan.from_dict(data)
    if kind == "sweep":
        return SweepPlan.from_dict(data)
    if kind is not None:
        raise PlanError(
            f"unknown plan kind {kind!r} (expected 'tuning', 'campaign' or "
            "'sweep')"
        )
    if any(axis in data for axis in ("tuners", "engines", "rate_traces")):
        return SweepPlan.from_dict(data)
    if isinstance(data.get("chaos"), (list, tuple)):
        # A chaos *list* is the sweep grid axis (campaign/tuning plans
        # carry a single chaos table).
        return SweepPlan.from_dict(data)
    if "queries" in data:
        return CampaignPlan.from_dict(data)
    if "query" in data:
        return TuningPlan.from_dict(data)
    raise PlanError(
        "cannot infer the plan kind: provide 'kind', a 'query' (tuning plan), "
        "a 'queries' list (campaign plan) or a grid axis like 'tuners' "
        "(sweep plan)"
    )


def _toml_loads():
    """``loads`` of the available TOML parser: stdlib ``tomllib`` (3.11+)
    or ``tomli``; :class:`ModuleNotFoundError` when there is neither."""
    try:
        import tomllib
    except ModuleNotFoundError:
        import tomli as tomllib
    return tomllib.loads


def read_config(path: str | Path, error=PlanError, what: str = "plan") -> dict:
    """Decode a ``.json`` or ``.toml`` file a user handed us — plans here,
    fault plans in :func:`repro.faults.load_fault_plan`.  A missing file,
    an unknown suffix, undecodable text and a missing TOML parser are all
    an ``error`` naming the file, never a traceback."""
    path = Path(path)
    if not path.exists():
        raise error(f"{what} file {path} does not exist")
    suffix = path.suffix.lower()
    if suffix == ".json":
        loads, syntax = json.loads, "JSON"
    elif suffix == ".toml":
        try:
            loads, syntax = _toml_loads(), "TOML"
        except ModuleNotFoundError:
            raise error(
                f"reading a TOML {what} needs Python 3.11+ (tomllib) or the "
                f"'tomli' package; on this interpreter write {path} as JSON"
            ) from None
    else:
        raise error(
            f"unsupported {what} file suffix {suffix!r} for {path} "
            "(expected .json or .toml)"
        )
    try:
        return loads(path.read_text(encoding="utf-8"))
    except ValueError as decode_error:  # JSONDecodeError, TOMLDecodeError, bad UTF-8
        raise error(f"{path} is not valid {syntax}: {decode_error}") from None


def load_plan(path: str | Path) -> "TuningPlan | CampaignPlan | SweepPlan":
    """Load a plan from a ``.json`` or ``.toml`` file."""
    data = read_config(path)
    try:
        return plan_from_dict(data)
    except PlanError as error:
        raise PlanError(f"{path}: {error}") from None


def replace(plan, **changes):
    """`dataclasses.replace` re-exported: overrides re-validate eagerly."""
    return dataclasses.replace(plan, **changes)
