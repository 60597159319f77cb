"""Plan execution: the :class:`TuningSession` facade.

A session turns a declarative plan into a computation:

* a :class:`~repro.api.plans.CampaignPlan` runs the fleet lifecycle over
  the concurrent :class:`~repro.service.TuningService`, seeded per
  campaign, so the sequential and thread backends both return
  bit-identical :class:`~repro.baselines.api.TuningResult` step
  sequences;
* a :class:`~repro.api.plans.TuningPlan` — one engine, one tuner, one
  rate trace — is the same lifecycle with one campaign on the
  ``sequential`` backend;
* a :class:`~repro.api.plans.SweepPlan` runs its grid cells in order,
  each as a campaign, and returns one :class:`SweepResult`.

Every backend shares one lifecycle: :func:`stream_sweep` is the one
sweep loop (scenario labels, the stream-wide ``seq``,
:class:`~repro.api.events.SweepFinished`) and :func:`fleet_result` the
one fleet result (campaign results, failures, cache stats), whether the
fleet's events come from the in-process service or from the
``distributed`` coordinator, which only emits events.

Execution is **streaming**: :meth:`TuningSession.stream` yields the typed
:mod:`repro.api.events` of the run as they happen (optionally fanning
them out through an :class:`~repro.api.events.EventBus`), and the
blocking :meth:`TuningSession.run` is a thin wrapper that drains the
stream — so observing a run can never change its results.

Execution is also **resumable** and **fault-tolerant**: ``run``/``stream``
accept ``resume=`` — a recorded JSONL log path or a parsed
:class:`~repro.api.resume.ResumeLog`, nothing else — and replay every
campaign whose deterministic ``cell_key`` the log already records —
bit-identical results without re-execution, marked by
:class:`~repro.api.events.CampaignSkipped` events.  The completed cells'
pure cache entries are warmed into the service's
:class:`~repro.service.cache.TuningCacheSet` before the missing cells
execute, each through its campaign's own tuner at the rates its
recorded result says arrived (see :mod:`repro.service.prewarm`), so a
resumed run — and the ``cache_path`` snapshot it writes afterwards —
recovers the crashed run's paid-for computations, not just its recorded
results.  A campaign whose
worker dies surfaces as a :class:`~repro.api.events.CampaignFailed` event;
the rest of the fleet (and, for sweeps, the remaining grid cells) still
runs, and a :class:`~repro.service.CampaignExecutionError` carrying every
failure is raised once the stream has drained — so a ``--record`` log is
left as complete as possible for the next ``--resume``.

Sessions are reusable: pre-trained artifacts resolve once per
``(engine, scale, model-path)`` and are shared across runs, and an
optional ``cache_path`` plan field round-trips the service's
:class:`~repro.service.cache.TuningCacheSet` through a versioned on-disk
snapshot so even separate *processes* never repeat a pure computation.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.api.events import CacheStats, CampaignFailed, CampaignFinished, SweepFinished
from repro.api.plans import CampaignPlan, PlanError, SweepPlan, TuningPlan
from repro.api.resume import ResumeLog, resume_result


@dataclass
class SessionResult:
    """Everything one :meth:`TuningSession.run` produced."""

    plan: "TuningPlan | CampaignPlan"
    outcomes: list                      # list[CampaignResult], plan order
    wall_seconds: float
    cache_stats: dict = field(default_factory=dict)


@dataclass
class SweepResult:
    """Everything one sweep produced: a :class:`SessionResult` per cell."""

    plan: "SweepPlan"
    results: list                       # list[SessionResult], grid order
    wall_seconds: float

    @property
    def scenarios(self) -> list[tuple[str, "SessionResult"]]:
        """``(scenario label, cell result)`` pairs in grid order."""
        return [
            (self.plan.scenario_label(result.plan), result)
            for result in self.results
        ]

    @property
    def n_campaigns(self) -> int:
        return sum(len(result.outcomes) for result in self.results)


class TuningSession:
    """Execute declarative plans; the single front door to the pipeline.

    Construction is cheap — the expensive artifact (the pre-trained
    model) is resolved lazily per plan and memoised process-wide via
    :mod:`repro.experiments.context`, so interleaved runs of many plans
    share everything pure.  Pass ``pretrained=`` to inject an existing
    artifact (tests and notebooks).

    Long-lived hosts (the :mod:`repro.daemon` control plane) additionally
    pass ``caches=`` — one :class:`~repro.service.cache.TuningCacheSet`
    every plan this session runs shares, so the second job starts warm
    where the first left off.  A plan carrying its own ``cache_path``
    loads and saves its private snapshot, leaving the session set
    untouched.
    """

    def __init__(self, *, pretrained=None, caches=None) -> None:
        self._pretrained_override = pretrained
        self._caches = caches

    # -- artifact resolution -------------------------------------------

    def _pretrained_for(self, plan):
        if self._pretrained_override is not None:
            return self._pretrained_override
        if plan.model is not None:
            from repro.core.persistence import load_pretrained

            if not (Path(plan.model) / "meta.json").is_file():
                raise PlanError(
                    f"model: {plan.model} is not a pre-trained artifact "
                    "directory (no meta.json in it); write one with "
                    "`repro pretrain --output`"
                )
            return load_pretrained(plan.model)
        from repro.experiments.context import pretrained_model
        from repro.experiments.scale import resolve_scale

        return pretrained_model(plan.engine, resolve_scale(plan.scale))

    # -- execution ------------------------------------------------------

    def run(self, plan, *, bus=None, resume=None) -> "SessionResult | SweepResult":
        """Execute ``plan`` synchronously and return its results.

        A thin wrapper that drains :meth:`stream` — observing a run and
        running it blind compute exactly the same thing.  ``bus``
        publishes every event to an :class:`~repro.api.events.EventBus`
        on the way; ``resume`` replays campaigns a recorded JSONL log
        already covers (its path or the parsed
        :class:`~repro.api.resume.ResumeLog`).
        """
        stream = self.stream(plan, bus=bus, resume=resume)
        while True:
            try:
                next(stream)
            except StopIteration as stop:
                return stop.value

    def stream(self, plan, *, bus=None, resume=None):
        """Execute ``plan``, yielding typed events as work completes.

        Returns a generator whose ``StopIteration.value`` (the ``return``
        of a ``yield from``) is the :class:`SessionResult` /
        :class:`SweepResult`, so callers that want both the stream and
        the result can ``result = yield from session.stream(plan)``.
        """
        resume = self._coerce_resume(resume)
        if (
            isinstance(plan, (CampaignPlan, SweepPlan))
            and plan.backend == "distributed"
        ):
            # The multi-host executor owns the spool (seeding, worker
            # agents, ledger merge) and emits the same event stream
            # through this module's fleet_result and stream_sweep.
            from repro.distributed import DistributedSession

            inner = DistributedSession().stream(plan, resume=resume)
        elif isinstance(plan, (TuningPlan, CampaignPlan)):
            inner = self._stream_campaign(plan, resume)
        elif isinstance(plan, SweepPlan):
            inner = stream_sweep(
                plan, lambda position, fleet: self._stream_campaign(fleet, resume)
            )
        else:
            raise PlanError(
                f"cannot run a {type(plan).__name__}; expected TuningPlan, "
                "CampaignPlan or SweepPlan (build one, or load a plan file "
                "via load_plan)"
            )
        if bus is None:
            return inner
        return self._published(inner, bus)

    @staticmethod
    def _published(inner, bus):
        """Re-yield ``inner`` publishing every event to ``bus``."""
        while True:
            try:
                event = next(inner)
            except StopIteration as stop:
                return stop.value
            bus.publish(event)
            yield event

    @staticmethod
    def _coerce_resume(resume) -> "ResumeLog | None":
        """Accept a recorded log path or a parsed log."""
        if resume is None or isinstance(resume, ResumeLog):
            return resume
        return ResumeLog.load(resume)

    def _stream_campaign(self, plan: "TuningPlan | CampaignPlan", resume=None):
        """The fleet lifecycle: every query a campaign on the service."""
        from repro.service import TuningService

        started = time.perf_counter()
        specs = plan.specs()
        # The snapshot loads first: a stale or corrupt ``cache_path`` must
        # fail before a model is trained, not after.
        own_caches = (
            self._load_caches(plan.cache_path) if plan.cache_path is not None else None
        )
        caches = own_caches if own_caches is not None else self._caches
        # A fully resumed cell replays without executing anything, so it
        # does not need the pre-trained artifact (baseline fleets never
        # do): a recorded 30-cell sweep replays without training a model.
        needs_model = specs[0].is_streamtune and any(
            resume_result(resume, spec.cell_key) is None for spec in specs
        )
        pretrained = self._pretrained_for(plan) if needs_model else None
        service = TuningService(
            pretrained,
            backend=plan.backend,
            max_workers=plan.workers,
            caches=caches,
        )

        def events():
            yield from service.stream(specs, resume=resume)
            if own_caches is not None:
                own_caches.save(plan.cache_path)

        return (yield from fleet_result(plan, len(specs), events(), started))

    @staticmethod
    def _load_caches(cache_path: str):
        from repro.service.cache import TuningCacheSet

        if Path(cache_path).exists():
            return TuningCacheSet.load(cache_path)
        return TuningCacheSet()


def fleet_result(plan, n_campaigns: int, events, started: float):
    """Re-yield one fleet's ``events``, then return its :class:`SessionResult`.

    Every backend's fleet stream ends here: ``CampaignFinished`` events
    supply the campaign results (by their fleet ``index``),
    ``CampaignFailed`` events the failures and the last ``CacheStats`` the
    cache counters.
    A fleet with failures raises one
    :class:`~repro.service.CampaignExecutionError` only after ``events``
    drained: the surviving campaigns completed (and were recorded), ready
    for a ``--resume`` retry.
    """
    from repro.service import CampaignExecutionError

    outcomes: dict[int, object] = {}
    failures: list = []
    stats: dict = {}
    for event in events:
        if isinstance(event, CampaignFinished):
            outcomes[event.index] = event.result
        elif isinstance(event, CampaignFailed):
            failures.append(event)
        elif isinstance(event, CacheStats):
            stats = event.stats
        yield event
    if failures:
        raise CampaignExecutionError(failures, outcomes)
    return SessionResult(
        plan=plan,
        outcomes=[outcomes[index] for index in range(n_campaigns)],
        wall_seconds=time.perf_counter() - started,
        cache_stats=stats,
    )


def stream_sweep(plan: SweepPlan, run_fleet):
    """Run the grid fleet by fleet, labelling every event with its cell.

    ``run_fleet(position, fleet)`` streams the ``position``-th
    :meth:`~repro.api.plans.SweepPlan.expand` fleet and returns its
    :class:`SessionResult` (see :func:`fleet_result`); the backend
    decides how the fleet executes, this loop owns the sweep.  A fleet
    with failures does not stop the sweep: the remaining fleets still
    run (maximising what a ``--record`` log captures for ``--resume``)
    and one :class:`~repro.service.CampaignExecutionError` aggregating
    every failure is raised after :class:`SweepFinished`.
    """
    from repro.service import CampaignExecutionError

    started = time.perf_counter()
    results = []
    failures: list = []
    n_campaigns = 0
    seq = 0                 # fleet streams restart their counters; the
    for position, fleet in enumerate(plan.expand()):   # sweep re-stamps
        label = plan.scenario_label(fleet)              # one stream order
        inner = run_fleet(position, fleet)
        while True:
            try:
                event = next(inner)
            except StopIteration as stop:
                results.append(stop.value)
                n_campaigns += len(stop.value.outcomes)
                break
            except CampaignExecutionError as error:
                n_campaigns += len(error.outcomes)
                break
            event = dataclasses.replace(event, scenario=label, seq=seq)
            if isinstance(event, CampaignFailed):
                failures.append(event)      # labelled, unlike error.failures
            yield event
            seq += 1
    wall = time.perf_counter() - started
    yield SweepFinished(
        n_scenarios=plan.n_scenarios,
        n_campaigns=n_campaigns,
        wall_seconds=wall,
        seq=seq,
    )
    if failures:
        raise CampaignExecutionError(failures)
    return SweepResult(plan=plan, results=results, wall_seconds=wall)
