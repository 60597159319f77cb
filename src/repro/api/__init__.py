"""``repro.api`` — the declarative front door to the StreamTune pipeline.

Everything the repo can do is reachable through three layers:

* **registries** (:mod:`repro.api.registry`, populated by
  :mod:`repro.api.components`) — engines, tuners and prediction models
  register under one name each, with a typed spec for the few
  parameters a caller sets; adding one means one ``REGISTRY.register``
  call, not edits to the CLI, the experiments and the service.  Query
  tokens (``q5``, ``linear/3``) are a fixed grammar, not a registry.
* **plans** (:mod:`repro.api.plans`) — :class:`TuningPlan` (one query),
  :class:`CampaignPlan` (a fleet) and :class:`SweepPlan` (a grid of
  fleets), frozen dataclasses that round-trip through dicts, JSON and
  TOML and validate eagerly with actionable errors.
* **sessions** (:mod:`repro.api.session`) — :class:`TuningSession`
  executes every plan as campaigns on the
  :class:`~repro.service.TuningService` (a tuning plan is a one-campaign
  ``sequential`` fleet) and is the only way in: the CLI, the daemon and
  the fleet workers all run plans through it.

Quick start::

    from repro.api import CampaignPlan, TuningSession

    plan = CampaignPlan(queries=("q1", "q5"), rates=(3, 7, 4, 2),
                        backend="thread", scale="smoke")
    result = TuningSession().run(plan)
    for outcome in result.outcomes:
        print(outcome.spec_name, outcome.result.average_reconfigurations)

or, from a config file (JSON or TOML)::

    from repro.api import TuningSession, load_plan

    result = TuningSession().run(load_plan("campaign.toml"))
"""

from repro.api.registry import (
    ENGINES,
    MODELS,
    TUNERS,
    ComponentEntry,
    ParamSpec,
    REQUIRED,
    Registry,
    RegistryError,
    UnknownComponentError,
)
from repro.api.components import (  # importing populates the registries
    TunerResources,
    build_engine,
    build_tuner,
    engine_family,
    resolve_query,
)
from repro.api.events import (
    CacheStats,
    CampaignFailed,
    CampaignFinished,
    CampaignSkipped,
    CampaignStarted,
    ChaosInjected,
    Event,
    EventBus,
    JobStateChanged,
    JobSubmitted,
    JsonlRecorder,
    MetricsAggregator,
    ProgressPrinter,
    Reconfigured,
    StepCompleted,
    SweepFinished,
    campaign_cell_key,
    event_from_dict,
)
from repro.api.resume import (
    ResumeError,
    ResumeLog,
    discover_latest_log,
)
from repro.api.plans import (
    CampaignPlan,
    PlanError,
    SweepPlan,
    TuningPlan,
    load_plan,
    plan_from_dict,
    replace,
)
from repro.api.session import (
    SessionResult,
    SweepResult,
    TuningSession,
)

#: Scenario-plane names resolved lazily (PEP 562): the scenarios package
#: imports the registry machinery above, so an eager import here would
#: be a cycle hazard — and most API users never touch chaos specs.
_SCENARIO_EXPORTS = {
    "ChaosSpec": "repro.scenarios.chaos",
    "OperatorLoss": "repro.scenarios.chaos",
    "ScenarioError": "repro.scenarios.library",
    "TRACES": "repro.scenarios.library",
    "TraceSpec": "repro.scenarios.library",
}


def __getattr__(name: str):
    module = _SCENARIO_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)


__all__ = [
    "CacheStats",
    "CampaignFailed",
    "CampaignFinished",
    "CampaignPlan",
    "CampaignSkipped",
    "CampaignStarted",
    "ChaosInjected",
    "ChaosSpec",
    "ComponentEntry",
    "ENGINES",
    "Event",
    "EventBus",
    "JobStateChanged",
    "JobSubmitted",
    "JsonlRecorder",
    "MODELS",
    "MetricsAggregator",
    "OperatorLoss",
    "ParamSpec",
    "PlanError",
    "ProgressPrinter",
    "REQUIRED",
    "Reconfigured",
    "Registry",
    "RegistryError",
    "ResumeError",
    "ResumeLog",
    "ScenarioError",
    "SessionResult",
    "StepCompleted",
    "SweepFinished",
    "SweepPlan",
    "SweepResult",
    "TRACES",
    "TUNERS",
    "TraceSpec",
    "TunerResources",
    "TuningPlan",
    "TuningSession",
    "UnknownComponentError",
    "build_engine",
    "build_tuner",
    "campaign_cell_key",
    "discover_latest_log",
    "engine_family",
    "event_from_dict",
    "load_plan",
    "plan_from_dict",
    "replace",
    "resolve_query",
]
