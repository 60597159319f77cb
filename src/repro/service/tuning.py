"""The concurrent multi-query tuning service (see package docstring).

``TuningService`` accepts many :class:`CampaignSpec` objects and executes
them through a worker pool.  Every campaign owns its engine and its
tuner (the reentrancy unit), while the expensive pure computations —
cluster assignment GEDs, warm-up datasets, distilled operating points,
parallelism-agnostic embeddings — flow through one shared
:class:`TuningCacheSet`.  Campaign results are therefore

* **identical across backends**: ``sequential``, ``thread`` and
  ``process`` runs of the same specs produce bit-identical
  ``TuningResult`` step sequences (cache hits return exactly what a
  recomputation would), and
* **independent of scheduling**: the backpressure scheduler only decides
  *when* a campaign runs, never what it computes.

Execution is **observable**: :meth:`TuningService.stream` yields typed
:mod:`repro.api.events` as campaigns progress — live per-step on every
backend (the sequential loop yields them as they happen; process workers
relay them through a ``multiprocessing.Manager`` queue, the one object
that manager holds) — and :meth:`TuningService.run` is a thin wrapper that
drains the stream and returns outcomes in input order, so the legacy
blocking call stays bit-identical.  A campaign is the unit of work on
every backend: Algorithm 2's fine-tuning set T accumulates along the rate
trace, so a trace runs serially inside its campaign and the parallelism
is across campaigns.

Execution is also **fault-tolerant** and **resumable**:

* a worker that dies surfaces a typed
  :class:`~repro.api.events.CampaignFailed` carrying the traceback text —
  the drain loop polls with a timeout and checks worker liveness, so a
  lost sentinel can never hang the stream.  A raised exception fails only
  its own campaign (the rest of the fleet keeps running on every
  backend); a process worker killed outright (OOM, signal) breaks the
  shared pool, so in-flight campaigns each surface their own
  ``CampaignFailed`` too — completed campaigns keep their results and a
  recorded log resumes the rest;
* ``stream(specs, resume=...)`` accepts a
  :class:`~repro.api.resume.ResumeLog` (or any ``cell_key -> outcome``
  mapping): campaigns whose deterministic ``cell_key`` is already recorded
  are not re-executed — a :class:`~repro.api.events.CampaignSkipped`
  marker plus the replayed :class:`~repro.api.events.CampaignFinished`
  (bit-identical recorded result) enter the stream instead.
"""

from __future__ import annotations

import dataclasses
import os
import queue
import time
import traceback as traceback_module
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

from repro.api.events import (
    CacheStats,
    CampaignFailed,
    CampaignFinished,
    CampaignStarted,
    Reconfigured,
    StepCompleted,
    campaign_finished,
)
from repro.api.resume import replay_events, resume_outcome
from repro.core.pretrain import PretrainedStreamTune
from repro.core.tuner import StreamTuneTuner
from repro.experiments.campaigns import CampaignResult, iter_campaign
from repro.service.cache import SharedGEDCache, TuningCacheSet
from repro.service.prewarm import RESUME_DEMAND, prewarm_caches
from repro.service.scheduler import BackpressureScheduler, CampaignSpec

BACKENDS = ("sequential", "thread", "process")


@dataclass
class CampaignOutcome:
    """One campaign's result plus service-side accounting."""

    spec_name: str
    result: CampaignResult
    wall_seconds: float
    backend: str


class CampaignExecutionError(RuntimeError):
    """One or more campaigns failed after the rest of the fleet finished.

    Raised by the blocking wrappers (:meth:`TuningService.run`, the
    session layer) once the stream has drained, so surviving campaigns
    complete — and land in any ``--record`` log, ready for ``--resume`` —
    before the failure surfaces.  :attr:`failures` holds the
    :class:`~repro.api.events.CampaignFailed` events (traceback text
    included); :attr:`outcomes` the completed campaigns by spec index.
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


@dataclass(frozen=True)
class _FailurePayload:
    """A worker failure flattened to data that crosses process borders."""

    error_type: str
    error_message: str
    traceback: str


def _failure_payload(error: BaseException) -> _FailurePayload:
    return _FailurePayload(
        error_type=type(error).__name__,
        error_message=str(error),
        traceback="".join(
            traceback_module.format_exception(type(error), error, error.__traceback__)
        ),
    )


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
            model_kind=spec.layer,
            seed=spec.seed,
            caches=caches,
            # Campaign and sweep cells fit at looser solver tolerances than
            # a tuning plan; they move decisions on some traces, so one
            # setting for both is a separate, measured step (ROADMAP item 2).
            loose_tolerances=spec.loose_tolerances,
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
    :class:`StepCompleted` block.  Returns the :class:`CampaignOutcome`
    (``StopIteration.value``).  Event construction never touches the
    tuner, so observing a campaign cannot change its results.
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
            return CampaignOutcome(
                spec_name=spec.name,
                result=stop.value,
                wall_seconds=time.perf_counter() - started,
                backend="worker",
            )
        for event in injected:
            yield dataclasses.replace(event, cell_key=spec.cell_key)
        injected.clear()
        yield from _step_events(
            spec.name, len(spec.multipliers), index, multiplier, process
        )


# ----------------------------------------------------------------------
# process-backend worker state
# ----------------------------------------------------------------------

_WORKER: dict = {}


def _init_worker(
    pretrained: PretrainedStreamTune | None,
    shm_payload: dict,
) -> None:
    """Per-process initialiser: install the model and fresh local caches.

    The pretrained artifact arrives once per worker (pickled or inherited
    via fork), not once per campaign; GED entries travel inside
    ``pretrained.clustering``'s shared cache.  Warm cache entries arrive
    as ``shm_payload``: ``kind -> [(key, descriptor)]`` where numpy-heavy
    payloads are :class:`~repro.service.shm.SharedArrayRef` descriptors
    into parent-owned segments.  The worker attaches read-only views over
    the parent's pages — zero-copy, so N workers hold one copy of every
    embedding matrix, warm-up dataset and distilled row set.
    """
    from repro.service.shm import SharedArrayStore, attach_sections

    caches = TuningCacheSet()
    # The worker's store only attaches (never unlinks): it lives for the
    # worker's lifetime in _WORKER so its mappings — and the views cached
    # below — stay valid across every campaign the worker runs.
    store = SharedArrayStore()
    for kind, entries in attach_sections(shm_payload, store).items():
        section = caches.section(kind)
        for key, value in entries:
            section.put(key, value)
    _WORKER.update(
        pretrained=pretrained, caches=caches, backend="process", shm_store=store,
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


def _unit_items(spec: CampaignSpec, index: int, state=None):
    """Campaign ``index``'s lifecycle as relay items, live.

    The one unit-runner of every backend: the sequential loop and a
    thread worker hand over the service's ``state`` (model, caches,
    backend), a process worker reads what :func:`_init_worker` installed
    in ``_WORKER``.  Every terminal state is data: ``("event", index,
    event)`` for the campaign's :class:`CampaignStarted` and each of its
    events as it happens, then ``("done", index, outcome)`` on success or
    ``("error", index, payload)`` on a raised exception.
    """
    state = _WORKER if state is None else state
    yield ("event", index, _started_event_for(spec, index, state["backend"]))
    events = None
    while True:
        try:
            if events is None:  # inside the try: whatever stands in for it may raise
                events = execute_campaign(spec, state["pretrained"], state["caches"])
            event = next(events)
        except StopIteration as stop:
            yield ("done", index, stop.value)
            return
        except BaseException as error:  # noqa: BLE001 — relayed as data
            if state["backend"] == "sequential" and not isinstance(error, Exception):
                raise           # no pool border here: Ctrl-C / SystemExit stop the run
            yield ("error", index, _failure_payload(error))
            return
        yield ("event", index, event)


def _run_unit(spec: CampaignSpec, index: int, relay, state=None) -> None:
    """A pool worker's task: relay :func:`_unit_items` as they happen.  A
    worker killed outright posts nothing — the consumer's liveness check
    turns its broken future into a failure."""
    for item in _unit_items(spec, index, state):
        relay.put(item)


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------

class TuningService:
    """Execute many tuning campaigns concurrently over shared caches."""

    #: Idle-poll interval (seconds) of the stream's drain loop: how often
    #: worker liveness is re-checked while no events are arriving.
    poll_seconds = 0.2
    #: How long a completed worker future may go without its queued
    #: sentinel arriving before the sentinel is declared lost and the
    #: campaign failed (covers relay-queue latency on the process backend).
    sentinel_grace = 5.0

    #: The process backend's multiprocessing start method (``None`` keeps
    #: the platform default).  Results are bit-identical across start
    #: methods: shared-memory descriptors attach by name, with no
    #: fork-inherited state involved.
    start_method: str | None = None

    def __init__(
        self,
        pretrained: PretrainedStreamTune | None,
        backend: str = "thread",
        max_workers: int | None = None,
        caches: TuningCacheSet | None = None,
        shm_store=None,
    ) -> None:
        """``backend`` selects the worker pool: ``thread`` (default; shares
        every cache section in-process), ``process`` (one Python per
        worker, each with local cache sections warmed from the parent's
        over shared memory), or ``sequential`` (no pool — the reference
        path concurrency must reproduce bit-for-bit).

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

        Before a fleet dispatches, the service pre-warms ``caches`` (see
        :mod:`repro.service.prewarm`): every entry on the ``process``
        backend (worker-local caches would otherwise recompute them per
        worker), entries demanded by more than one campaign on the
        ``thread`` backend, and — on every backend — the entries of
        resume-covered campaigns.  Pre-warmed entries come from the exact
        builders the tuner would run on a miss, so results are
        bit-identical to a cold run.

        ``shm_store`` injects the :class:`~repro.service.shm.
        SharedArrayStore` the process backend publishes warm numpy
        payloads through (a long-lived host's arena, so a payload it
        already backs is published by descriptor with no further copy);
        the caller then owns its lifecycle.  ``None`` (default) creates
        and closes a store per process-backend stream.

        Warm entries travel one way, parent to workers: the process
        backend's pre-warm covers every key its campaigns consult, so the
        parent's :class:`TuningCacheSet` — and a ``cache_path`` snapshot
        or a long-lived daemon's cache plane taken from it — already holds
        everything a worker would have computed.
        """
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        self.pretrained = pretrained
        self.backend = backend
        self._shm_store = shm_store
        self.max_workers = max_workers or min(8, (os.cpu_count() or 1) * 2)
        if pretrained is not None:
            self._install_shared_ged_cache()
        #: Sections newly computed by the most recent stream's pre-warm.
        self.last_prewarm: dict[str, int] = {}
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

    def _plan_units(
        self, specs: list[CampaignSpec], skip: frozenset | set = frozenset()
    ) -> list[int]:
        """Spec indices in dispatch order: backpressured campaigns first.
        ``skip`` holds the indices a resume log already covers — they are
        neither probed nor planned; fewer than two pending campaigns have
        no order to find, so nothing is probed for them either.
        """
        active = [index for index in range(len(specs)) if index not in skip]
        if len(active) < 2:
            return active
        order = BackpressureScheduler().order([specs[index] for index in active])
        return [active[position] for position in order]

    @staticmethod
    def _check_specs(specs: list[CampaignSpec]) -> None:
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"campaign names must be unique, got {sorted(names)}")

    def _check_executable(self, specs: list[CampaignSpec]) -> None:
        """Fail before the fleet spins up, not deep inside a worker."""
        if self.pretrained is not None:
            return
        for spec in specs:
            if spec.is_streamtune:
                raise ValueError(
                    f"campaign {spec.name!r} tunes with {spec.tuner!r} but the "
                    "service has no pre-trained artifact (pass pretrained=...)"
                )

    def run(
        self,
        specs: list[CampaignSpec],
        resume=None,
    ) -> list[CampaignOutcome]:
        """Execute every campaign; outcomes are returned in *input* order.

        A thin wrapper that drains :meth:`stream` — dispatch order follows
        the scheduler (backpressured queries first), which matters for
        time-to-first-recommendation under limited workers but never
        changes any campaign's result.  If any campaign failed, the fleet
        still runs to completion and a :class:`CampaignExecutionError`
        carrying every failure (plus the surviving outcomes) is raised
        afterwards.
        """
        outcomes: dict[int, CampaignOutcome] = {}
        failures: list[CampaignFailed] = []
        for event in self.stream(specs, resume=resume):
            if isinstance(event, CampaignFinished):
                outcomes[event.index] = event.outcome
            elif isinstance(event, CampaignFailed):
                failures.append(event)
        if failures:
            raise CampaignExecutionError(failures, outcomes)
        return [outcomes[index] for index in range(len(specs))]

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
        the campaign produces them, thread workers relay through an
        in-process queue and process workers through a manager-backed
        one.  ``seq`` is stamped monotonically at the consumer, so merged
        worker streams never interleave out of order.

        ``resume`` (a :class:`~repro.api.resume.ResumeLog` or a
        ``cell_key -> CampaignOutcome`` mapping) replays campaigns already
        recorded: each yields a :class:`CampaignSkipped` marker plus the
        recorded :class:`CampaignFinished` — bit-identical result, no
        re-execution — before the remaining campaigns dispatch.
        """
        specs = list(specs)
        self._check_specs(specs)
        # Spec indices the resume source already covers, with their
        # recorded outcomes (matched by deterministic ``cell_key``).
        resumed = {
            index: outcome
            for index, spec in enumerate(specs)
            if (outcome := resume_outcome(resume, spec.cell_key)) is not None
        }
        self._check_executable(
            [spec for index, spec in enumerate(specs) if index not in resumed]
        )
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
            units = self._plan_units(specs, skip=set(resumed))
            # Resumed-only fleets still warm (no pool spins up for them
            # below): their completed cells' pure entries belong in this
            # service's cache set — and any snapshot taken from it — not
            # just their recorded results.
            self._prewarm_for(specs, resumed)
            if units:
                if self.backend == "sequential":
                    emitter = self._stream_sequential(specs, units)
                elif self.backend == "thread":
                    emitter = self._stream_threaded(specs, units)
                else:
                    emitter = self._stream_processes(specs, units)
                for event in emitter:
                    yield stamped(event)
        yield stamped(CacheStats(stats=self.cache_stats()))

    # -- pre-warming ----------------------------------------------------

    #: The key-demand threshold of each backend's pre-warm policy.
    _PREWARM_MIN_DEMAND = {
        "process": 1,                   # worker-local caches duplicate everything
        "thread": 2,                    # only de-duplicate concurrent cold misses
        "sequential": RESUME_DEMAND,    # resume-covered entries only
    }

    def _prewarm_for(self, specs, resumed) -> None:
        """Populate the shared caches before the fleet dispatches.

        A key's demand is the number of campaigns that will consult it;
        campaigns a resume log already covers carry :data:`RESUME_DEMAND`
        — their pure entries warm the missing cells and the next
        ``cache_path`` snapshot without re-executing anything.
        """
        demands = [
            RESUME_DEMAND if index in resumed else 1 for index in range(len(specs))
        ]
        self.last_prewarm = prewarm_caches(
            self.pretrained,
            self.caches,
            specs,
            demands=demands,
            min_demand=self._PREWARM_MIN_DEMAND[self.backend],
        )

    def _section_entries(self) -> dict:
        """Per-section ``[(key, value), ...]`` snapshots for worker pools."""
        entries: dict = {}
        for kind in ("assign", "warmup", "distill", "embed"):
            try:
                cache = self.caches.section(kind)
            except KeyError:
                continue
            items = cache.items_snapshot()
            if items:
                entries[kind] = items
        return entries

    # -- backend-specific emitters -------------------------------------

    def _worker_state(self) -> dict:
        """What :func:`_run_unit` needs when it runs in this process."""
        return {
            "pretrained": self.pretrained,
            "caches": self.caches,
            "backend": self.backend,
        }

    def _stream_sequential(self, specs, units):
        state = self._worker_state()
        started: set[int] = set()
        for index in units:
            for item in _unit_items(specs[index], index, state):
                yield from self._absorb(specs, started, item)

    def _stream_pool(self, specs, units, pool, relay, *state):
        """Submit every unit to ``pool`` and drain ``relay`` until each
        resolves; the pool is shut down however the stream ends.  ``state``
        is what a thread worker's :func:`_run_unit` runs on (a process
        worker has its own from :func:`_init_worker`)."""
        try:
            futures = {
                index: pool.submit(_run_unit, specs[index], index, relay, *state)
                for index in units
            }
            yield from self._drain(specs, futures, relay.get)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def _stream_threaded(self, specs, units):
        return self._stream_pool(
            specs,
            units,
            ThreadPoolExecutor(max_workers=self.max_workers),
            queue.SimpleQueue(),
            self._worker_state(),
        )

    def _stream_processes(self, specs, units):
        import multiprocessing

        from repro.service.shm import SharedArrayStore, publish_sections

        context = multiprocessing.get_context(self.start_method)
        # The relay queue lives in a manager this stream owns: a put is an
        # RPC the manager has already applied when it returns, so it
        # survives the worker's os._exit.
        manager = context.Manager()
        # Warm entries cross the pool border as shared-memory descriptors:
        # the parent publishes each numpy-heavy payload into one segment
        # and workers attach read-only views — one copy for the whole
        # fleet, instead of a pickled copy per worker.  The store is
        # parent-owned; the ``finally`` below (which runs even when the
        # drain loop turned a killed worker into a CampaignFailed) and the
        # store's own atexit hook guarantee the segments are unlinked.
        store = self._shm_store if self._shm_store is not None else SharedArrayStore()
        try:
            relay = manager.Queue()
            pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=context,
                initializer=_init_worker,
                initargs=(
                    self.pretrained,
                    publish_sections(self._section_entries(), store),
                ),
            )
            yield from self._stream_pool(specs, units, pool, relay)
        finally:
            if store is not self._shm_store:
                store.close()
            manager.shutdown()

    def _drain(self, specs, futures: dict, get_event):
        """Yield worker-relayed events until every submitted campaign resolves.

        The single consumer loop behind the thread and process backends.
        Blocking on the relay queue is bounded (``poll_seconds``): every
        idle tick re-checks worker liveness, so a worker that died without
        posting its sentinel — killed process, fatal error outside the
        worker body — resolves as a :class:`CampaignFailed` instead of
        hanging the stream, and the surviving workers keep streaming.
        """
        started: set[int] = set()
        pending: set[int] = set(futures)
        silent_since: dict[int, float] = {}
        while pending:
            try:
                item = get_event(timeout=self.poll_seconds)
            except queue.Empty:
                for index in list(pending):
                    future = futures[index]
                    if not future.done():
                        continue
                    error = future.exception()
                    if error is not None:
                        payload = _failure_payload(error)
                    else:
                        # Future completed but its sentinel has not been
                        # seen: on the process backend the relay item may
                        # still be in IPC flight, so allow a grace window
                        # before declaring the sentinel lost.
                        first_seen = silent_since.setdefault(index, time.monotonic())
                        if time.monotonic() - first_seen < self.sentinel_grace:
                            continue
                        payload = _FailurePayload(
                            error_type="RuntimeError",
                            error_message="worker exited without posting its result",
                            traceback="",
                        )
                    pending.discard(index)
                    yield from self._absorb(specs, started, ("error", index, payload))
                continue
            kind, index, _ = item
            if index not in pending:
                continue        # late item after a synthesized failure
            if kind != "event":
                pending.discard(index)
            yield from self._absorb(specs, started, item)

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
                error_type=payload.error_type,
                error_message=payload.error_message,
                traceback=payload.traceback,
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
