"""The concurrent multi-query tuning service (see package docstring).

``TuningService`` accepts many :class:`CampaignSpec` objects and executes
them in plan order, one after another or through a worker pool.  Every
campaign owns its engine and its tuner, which serves that one campaign,
while the expensive pure computations — cluster assignment GEDs,
warm-up datasets, distilled operating points, parallelism-agnostic
embeddings — flow through one shared :class:`TuningCacheSet`.  Campaign
results are therefore

* **identical across backends**: ``sequential`` and ``thread`` runs of
  the same specs produce bit-identical ``TuningResult`` step sequences
  (cache hits return exactly what a recomputation would), and the
  multi-process executor — the spool fleet of :mod:`repro.distributed` —
  reproduces them too; and
* **independent of dispatch order**: campaigns dispatch in plan order,
  the order the distributed coordinator emits its cells in, and thread
  workers interleave them freely; neither changes what a campaign
  computes.

Execution is **observable**: :meth:`TuningService.stream` yields typed
:mod:`repro.api.events` as campaigns progress — live per-step on every
backend (the sequential loop yields them as they happen; thread workers
relay them through an in-process queue); the blocking front door is
:meth:`repro.api.session.TuningSession.run`, which drains it.  A
campaign is the unit of work on every backend: Algorithm 2's fine-tuning
set T accumulates along the rate trace, so a trace runs serially inside
its campaign and the parallelism is across campaigns.

Execution is also **fault-tolerant** and **resumable**:

* a worker that dies surfaces a typed
  :class:`~repro.api.events.CampaignFailed` carrying the traceback text —
  every pool task posts one last item when it ends, so a task that ends
  without its campaign's result cannot hang the stream.  A raised
  exception fails only its own campaign (the rest of the fleet keeps
  running on every backend) — completed campaigns keep their results and
  a recorded log resumes the rest;
* ``stream(specs, resume=...)`` accepts a
  :class:`~repro.api.resume.ResumeLog`: campaigns whose deterministic
  ``cell_key`` is already recorded are not re-executed — a :class:`~repro.api.events.CampaignSkipped`
  marker plus the replayed :class:`~repro.api.events.CampaignFinished`
  (bit-identical recorded result) enter the stream instead.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import queue
import time
import traceback as traceback_module
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.api.events import (
    CacheStats,
    CampaignFailed,
    CampaignStarted,
    Reconfigured,
    StepCompleted,
    campaign_cell_key,
    campaign_finished,
)
from repro.api.resume import replay_events, resume_result
from repro.core.pretrain import PretrainedStreamTune
from repro.core.tuner import StreamTuneTuner
from repro.engines.base import EngineCluster
from repro.experiments.campaigns import iter_campaign
from repro.service.cache import SharedGEDCache, TuningCacheSet
from repro.service.prewarm import prewarm_caches
from repro.workloads.query import StreamingQuery

BACKENDS = ("sequential", "thread")


@dataclass(frozen=True)
class CampaignSpec:
    """One tuning campaign: a query driven through a source-rate trace."""

    query: StreamingQuery
    multipliers: tuple[float, ...]
    engine: str = "flink"
    engine_seed: int = 20250711
    seed: int = 17
    #: Tuning method by registry name.  ``streamtune`` (the default) runs
    #: the paper's system through the shared caches; any other registered
    #: method that needs no execution history (ds2, conttune, oracle) is
    #: built per campaign from the registry.
    tuner: str = "streamtune"
    #: StreamTune's prediction layer by registry name (a plan's ``layer``).
    model_kind: str = "svm"
    #: Optional :class:`~repro.scenarios.ChaosSpec` executed alongside
    #: the campaign (``None`` = clean run).  Frozen and hashable, so it
    #: participates in spec identity.
    chaos: object = None

    def __post_init__(self) -> None:
        if not self.multipliers:
            raise ValueError(f"{self.query.name}: campaign needs >= 1 multiplier")

    @property
    def is_streamtune(self) -> bool:
        return self.tuner == "streamtune"

    @property
    def layer(self) -> "str | None":
        """The prediction layer this campaign tunes with: ``model_kind``
        for StreamTune, ``None`` for the baselines, which carry no model."""
        return self.model_kind if self.is_streamtune else None

    @property
    def name(self) -> str:
        return self.query.name

    @property
    def cell_key(self) -> str:
        """Deterministic campaign identity stamped on this campaign's
        events; a resumed run matches recorded campaigns by this key."""
        return campaign_cell_key(
            self.query.name,
            self.engine,
            self.tuner,
            self.multipliers,
            self.seed,
            # The prediction layer changes streamtune results, so it is
            # part of their identity; baseline keys stay layer-free.
            layer=self.layer,
            engine_seed=self.engine_seed,
            chaos=self.chaos.label() if self.chaos is not None else None,
        )

    def make_engine(self) -> EngineCluster:
        # Resolved through the engine registry (imported lazily: the
        # registry population should happen on first use, not at import).
        from repro.api.components import build_engine

        return build_engine(self.engine, seed=self.engine_seed)


class CampaignExecutionError(RuntimeError):
    """One or more campaigns failed after the rest of the fleet finished.

    Raised by the session layer once the stream has drained, so
    surviving campaigns complete — and land in any ``--record`` log, ready for ``--resume`` —
    before the failure surfaces.  :attr:`failures` holds the
    :class:`~repro.api.events.CampaignFailed` events (traceback text
    included); :attr:`outcomes` the completed campaigns'
    :class:`~repro.experiments.campaigns.CampaignResult` by spec index.
    """

    def __init__(self, failures: list, outcomes: dict | None = None) -> None:
        self.failures = list(failures)
        self.outcomes = dict(outcomes or {})
        names = ", ".join(event.campaign for event in self.failures)
        first = self.failures[0]
        message = (
            f"{len(self.failures)} campaign(s) failed ({names}); first "
            f"failure: {first.error_type}: {first.error_message}"
        )
        if first.traceback:
            message += f"\n{first.traceback}"
        super().__init__(message)


def _build_campaign_tuner(
    spec: CampaignSpec,
    engine,
    pretrained: PretrainedStreamTune | None,
    caches: TuningCacheSet | None,
):
    """The campaign's tuner: StreamTune through the shared caches, or any
    history-free registry method built from the spec alone."""
    if spec.is_streamtune:
        if pretrained is None:
            raise ValueError(
                f"campaign {spec.name!r} tunes with {spec.tuner!r} but the "
                "service has no pre-trained artifact (pass pretrained=...)"
            )
        return StreamTuneTuner(
            engine,
            pretrained,
            model_kind=spec.model_kind,
            seed=spec.seed,
            caches=caches,
        )
    from repro.api.components import TunerResources, build_tuner

    return build_tuner(spec.tuner, engine, TunerResources())


def _step_events(campaign: str, n_steps: int, step_index: int, multiplier, process):
    """The event block one tuning process contributes to the stream."""
    for iteration, step in enumerate(process.steps):
        if step.reconfigured:
            yield Reconfigured(
                campaign=campaign,
                step_index=step_index,
                iteration=iteration,
                parallelisms=dict(step.parallelisms),
                backpressure_after=step.backpressure_after,
            )
    yield StepCompleted(
        campaign=campaign,
        step_index=step_index,
        n_steps=n_steps,
        multiplier=float(multiplier),
        parallelisms=dict(process.final_parallelisms),
        reconfigurations=process.n_reconfigurations,
        backpressure_events=process.n_backpressure_events,
        converged=process.converged,
        recommendation_seconds=process.recommendation_seconds,
    )


def execute_campaign(
    spec: CampaignSpec,
    pretrained: PretrainedStreamTune | None,
    caches: TuningCacheSet | None,
):
    """Run one campaign end to end (the unit of work a worker executes).

    The one translation of :func:`iter_campaign` into the stream, as it
    happens: after each source-rate change the step's
    :class:`~repro.api.events.ChaosInjected` events (stamped with the
    spec's ``cell_key``), then its :class:`Reconfigured` /
    :class:`StepCompleted` block.  Returns the
    :class:`~repro.experiments.campaigns.CampaignResult`, stamped with
    its wall-clock (``StopIteration.value``).  Event construction never
    touches the tuner, so observing a campaign cannot change its results.
    """
    started = time.perf_counter()
    engine = spec.make_engine()
    tuner = _build_campaign_tuner(spec, engine, pretrained, caches)
    injected: list = []
    iterator = iter_campaign(
        engine, tuner, spec.query, list(spec.multipliers),
        chaos=spec.chaos, chaos_sink=injected.append,
    )
    while True:
        try:
            index, multiplier, process = next(iterator)
        except StopIteration as stop:
            return dataclasses.replace(
                stop.value, wall_seconds=time.perf_counter() - started
            )
        for event in injected:
            yield dataclasses.replace(event, cell_key=spec.cell_key)
        injected.clear()
        yield from _step_events(
            spec.name, len(spec.multipliers), index, multiplier, process
        )


def _started_event_for(spec: CampaignSpec, index: int, backend: str) -> CampaignStarted:
    return CampaignStarted(
        campaign=spec.name,
        index=index,
        engine=spec.engine,
        tuner=spec.tuner,
        backend=backend,
        n_steps=len(spec.multipliers),
        cell_key=spec.cell_key,
    )


def _unit_items(spec: CampaignSpec, index: int, service: TuningService):
    """Campaign ``index``'s lifecycle as relay items, live.

    The one unit-runner of every backend: the sequential loop and a
    thread worker hand over the ``service`` (model, caches, backend).
    Every terminal state is data: ``("event", index, event)`` for the
    campaign's :class:`CampaignStarted` and each of its events as it
    happens, then ``("done", index, result)`` on success or
    ``("error", index, exception)`` on a raised exception.
    """
    yield ("event", index, _started_event_for(spec, index, service.backend))
    events = None
    while True:
        try:
            if events is None:  # inside the try: whatever stands in for it may raise
                events = execute_campaign(spec, service.pretrained, service.caches)
            event = next(events)
        except StopIteration as stop:
            yield ("done", index, stop.value)
            return
        except BaseException as error:  # noqa: BLE001 — relayed as data
            if service.backend == "sequential" and not isinstance(error, Exception):
                raise           # no pool border here: Ctrl-C / SystemExit stop the run
            yield ("error", index, error)
            return
        yield ("event", index, event)


def _run_unit(spec: CampaignSpec, index: int, relay, service: TuningService) -> None:
    """A pool worker's task: relay :func:`_unit_items` as they happen."""
    for item in _unit_items(spec, index, service):
        relay.put(item)


def _post_exit(relay, index: int, future) -> None:
    """Done-callback of unit ``index``'s task: post ``("exit", index,
    exception-or-None)``.

    It runs once the task has returned — on the worker thread, or on the
    submitting one if the task was already done — so it lands behind
    every item the task put.  An exit that finds its campaign unresolved
    is a task that died outside the unit body.
    """
    if future.cancelled():
        return          # the stream was closed early; nobody drains
    relay.put(("exit", index, future.exception()))


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------

class TuningService:
    """Execute many tuning campaigns concurrently over shared caches."""

    def __init__(
        self,
        pretrained: PretrainedStreamTune | None,
        backend: str = "thread",
        max_workers: int | None = None,
        caches: TuningCacheSet | None = None,
    ) -> None:
        """``backend`` selects the worker pool: ``thread`` (default; shares
        every cache section in-process) or ``sequential`` (no pool — the
        reference path concurrency must reproduce bit-for-bit).

        ``pretrained`` may be ``None`` when every campaign tunes with a
        history-free baseline method (ds2, conttune, oracle); StreamTune
        campaigns then fail with a clear error.  A given artifact's
        clustering has its private :class:`~repro.ged.search.GEDCache`
        replaced by a :class:`SharedGEDCache` seeded from the existing
        entries — an exact upgrade (same values, now concurrency-safe).

        ``caches`` injects a pre-populated :class:`TuningCacheSet` (for
        example one loaded from a ``TuningCacheSet.load`` snapshot) so
        warm-up datasets, distilled rows and embeddings survive between
        service runs; ``None`` builds a fresh set for this service.

        Before a resumed fleet dispatches, the service warms ``caches``
        with the entries its resume-covered campaigns consulted (see
        :mod:`repro.service.prewarm`), through those campaigns' own
        tuners.  Concurrent campaigns share cold keys without warming: the
        cache is single-flight, so a key two ``thread`` workers race on is
        computed once.  Every entry is a pure function of its key, so
        results are bit-identical to a cold run.
        """
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        self.pretrained = pretrained
        self.backend = backend
        self.max_workers = max_workers or min(8, (os.cpu_count() or 1) * 2)
        if pretrained is not None:
            self._install_shared_ged_cache()
        self.caches = caches if caches is not None else TuningCacheSet()

    def _install_shared_ged_cache(self) -> None:
        clustering = self.pretrained.clustering
        old = getattr(clustering, "cache", None)
        if isinstance(old, SharedGEDCache):
            return
        shared = SharedGEDCache()
        # Exact migration: seed the shared store with every distance the
        # clustering phase already paid for.
        for key, value in getattr(old, "_exact", {}).items():
            shared._exact.put(key, value)
        clustering.cache = shared

    # -- execution ------------------------------------------------------

    @staticmethod
    def _check_specs(specs: list[CampaignSpec]) -> None:
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"campaign names must be unique, got {sorted(names)}")

    def stream(
        self,
        specs: list[CampaignSpec],
        resume=None,
    ):
        """Execute every campaign, yielding typed events as work completes.

        The stream contains exactly one :class:`CampaignStarted` per
        executed campaign followed — after its :class:`StepCompleted`
        events in monotonically increasing ``step_index`` order — by
        either its :class:`CampaignFinished` or, if its worker died, its
        :class:`CampaignFailed`; then one final :class:`CacheStats`.
        Campaigns emit their step events live as each tuning process
        completes on every backend: the sequential loop yields them as
        the campaign produces them and thread workers relay through an
        in-process queue.  ``seq`` is stamped monotonically at the
        consumer, so merged worker streams never interleave out of order.

        ``resume`` (a :class:`~repro.api.resume.ResumeLog`) replays
        campaigns already recorded: each yields a :class:`CampaignSkipped` marker plus the
        recorded :class:`CampaignFinished` — bit-identical result, no
        re-execution — before the remaining campaigns dispatch.
        """
        specs = list(specs)
        self._check_specs(specs)
        # Spec indices the resume source already covers, with their
        # recorded results (matched by deterministic ``cell_key``).
        resumed = {
            index: result
            for index, spec in enumerate(specs)
            if (result := resume_result(resume, spec.cell_key)) is not None
        }
        seq = 0

        def stamped(event):
            nonlocal seq
            event = dataclasses.replace(event, seq=seq)
            seq += 1
            return event

        if specs:
            for index in sorted(resumed):
                spec = specs[index]
                for event in replay_events(
                    spec.name, index, self.backend, resumed[index],
                    spec.cell_key, resume,
                ):
                    yield stamped(event)
            # The campaigns left to run, dispatched in plan order.
            units = [index for index in range(len(specs)) if index not in resumed]
            # Resumed-only fleets still warm (no pool spins up for them
            # below): their completed cells' pure entries belong in this
            # service's cache set — and any snapshot taken from it — not
            # just their recorded results.
            prewarm_caches(
                self.pretrained,
                self.caches,
                [(specs[index], resumed[index]) for index in sorted(resumed)],
            )
            if units:
                if self.backend == "sequential":
                    emitter = self._stream_sequential(specs, units)
                else:
                    emitter = self._stream_threaded(specs, units)
                for event in emitter:
                    yield stamped(event)
        yield stamped(CacheStats(stats=self.cache_stats()))

    # -- backend-specific emitters -------------------------------------

    def _stream_sequential(self, specs, units):
        started: set[int] = set()
        for index in units:
            for item in _unit_items(specs[index], index, self):
                yield from self._absorb(specs, started, item)

    def _stream_threaded(self, specs, units):
        """Submit every unit to a thread pool and drain the relay queue
        until each resolves; the pool is shut down however the stream
        ends."""
        pool = ThreadPoolExecutor(max_workers=self.max_workers)
        relay = queue.SimpleQueue()
        try:
            futures = {}
            for index in units:
                futures[index] = pool.submit(
                    _run_unit, specs[index], index, relay, self
                )
                futures[index].add_done_callback(
                    functools.partial(_post_exit, relay, index)
                )
            yield from self._drain(specs, futures, relay.get)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def _drain(self, specs, futures: dict, get_event):
        """Yield worker-relayed events until every submitted campaign resolves.

        The consumer loop of the thread backend; it blocks on the relay
        queue.  Each task's ``exit`` item (:func:`_post_exit`) arrives
        after everything the task put, so one that finds its campaign
        unresolved turns into a :class:`CampaignFailed` — the task's own
        exception, or a lost result — instead of hanging the stream, and
        the surviving workers keep streaming.
        """
        started: set[int] = set()
        pending: set[int] = set(futures)
        while pending:
            kind, index, payload = get_event()
            if index not in pending:
                continue        # the exit of a task whose campaign resolved
            if kind == "exit":
                kind, payload = "error", payload or RuntimeError(
                    "worker exited without posting its result"
                )
            if kind != "event":
                pending.discard(index)
            yield from self._absorb(specs, started, (kind, index, payload))

    def _absorb(self, specs, started: set, item):
        """Turn one relayed item into stream events — the one place a
        finished unit becomes :class:`CampaignFinished` and a failure
        becomes :class:`CampaignStarted` (if not yet sent) +
        :class:`CampaignFailed`, on every backend."""
        kind, index, payload = item
        spec = specs[index]
        if kind == "event":
            if isinstance(payload, CampaignStarted):
                started.add(index)
            yield payload
        elif kind == "done":
            yield campaign_finished(
                spec.name, index, self.backend, payload, spec.cell_key
            )
        else:
            if index not in started:
                yield _started_event_for(spec, index, self.backend)
            yield CampaignFailed(
                campaign=spec.name,
                index=index,
                backend=self.backend,
                error_type=type(payload).__name__,
                error_message=str(payload),
                traceback="".join(traceback_module.format_exception(payload))
                if payload.__traceback__ else "",
                cell_key=spec.cell_key,
            )

    def cache_stats(self) -> dict[str, dict[str, int]]:
        """Hit/miss counters of the in-process cache sections."""
        stats = self.caches.stats()
        if self.pretrained is not None:
            ged = getattr(self.pretrained.clustering, "cache", None)
            if isinstance(ged, SharedGEDCache):
                stats["ged"] = {"hits": ged.hits, "misses": ged.misses}
        return stats
