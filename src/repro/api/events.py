"""Typed execution events and the bus that distributes them.

The execution layer is observable: a streaming run (``TuningSession.stream``
or ``TuningService.stream``) yields a sequence of frozen event records as
campaigns progress, instead of going dark until a barrier join.  Events are
plain data — every consumer sees the same stream, and recording a run is
just writing the events down:

* :class:`CampaignStarted` — a campaign began executing; followed by either
  its :class:`CampaignFinished` or its :class:`CampaignFailed`;
* :class:`StepCompleted` — one per tuning process (one source-rate change),
  with a per-campaign ``step_index`` that increases monotonically;
* :class:`ChaosInjected` — a scheduled chaos effect (operator loss or
  trace dropout from the plan's :class:`~repro.scenarios.ChaosSpec`) was
  applied, emitted ahead of the affected step's event block;
* :class:`Reconfigured` — one per stop-and-restart redeployment inside a
  step, emitted before its step's :class:`StepCompleted`;
* :class:`CampaignFinished` — a campaign's last tuning process finished
  (always follows its steps); carries the full campaign result, which
  :meth:`Event.to_dict` serialises so a recorded log can later be resumed;
* :class:`CampaignFailed` — a campaign's worker died (exception or killed
  process); carries the error type, message and traceback text;
* :class:`CampaignSkipped` — a resumed run found the campaign already
  completed in its resume log and replayed the recorded result instead of
  re-executing (followed by the replayed :class:`CampaignFinished`);
* :class:`CacheStats` — one per service run, after the last campaign;
* :class:`SweepFinished` — one per :class:`~repro.api.plans.SweepPlan`
  execution, after the last scenario;
* :class:`JobSubmitted` / :class:`JobStateChanged` — the daemon's job
  lifecycle (:mod:`repro.daemon`): a plan accepted by ``repro serve``
  and its transitions through ``queued``/``running``/``finished``/
  ``failed``.  They share the event round-trip contract, so the daemon's
  manifest is an event ledger like any ``--record`` log.

Every event carries a stream-wide monotonic ``seq`` (re-stamped at the
consumer, so merged worker streams never interleave out of order),
the ``scenario`` label of the sweep grid cell that produced it (when any),
and — for campaign-scoped events — a deterministic ``cell_key`` derived
from the campaign's (query, engine, tuner, rate trace, seed) via
:func:`campaign_cell_key`.  The cell key is what checkpoint/resume matches
on: two runs of the same plan stamp identical keys.

:func:`event_from_dict` restores any event from its :meth:`Event.to_dict`
output — the round-trip contract ``--resume`` depends on.

:class:`EventBus` fans one stream out to many subscribers (progress
printer, JSONL recorder, metrics aggregator — or anything callable).  A
subscriber raising never breaks the run: the error is recorded on
``bus.errors`` and the remaining subscribers still see the event.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.faults.plane import fire as _fault_fire, hard_exit, trip as _fault_trip

__all__ = [
    "CacheStats",
    "CampaignFailed",
    "CampaignFinished",
    "CampaignSkipped",
    "CampaignStarted",
    "ChaosInjected",
    "Event",
    "EventBus",
    "JobStateChanged",
    "JobSubmitted",
    "JsonlRecorder",
    "MetricsAggregator",
    "ProgressPrinter",
    "Reconfigured",
    "StepCompleted",
    "SweepFinished",
    "campaign_cell_key",
    "campaign_finished",
    "event_from_dict",
    "read_event_log",
]


def campaign_cell_key(
    query: str,
    engine: str,
    tuner: str,
    rates,
    seed: int | None = None,
    *,
    layer: str | None = None,
    engine_seed: int | None = None,
    chaos: str | None = None,
) -> str:
    """The deterministic identity of one campaign across runs.

    Two executions of the same plan stamp the same key on the same
    campaign, so a recorded :class:`CampaignFinished` can stand in for a
    re-execution (``--resume``).  The key covers every result-affecting
    axis the execution layer knows: query, engine (and its seed), tuner
    (and its prediction ``layer``, when it uses one), rate trace
    (``repr``-exact floats, so distinct traces can never collide) and
    tuner seed.  What it cannot see — the pre-trained artifact behind a
    ``scale``/``model`` setting, or the code itself — is the operator's
    responsibility, exactly as when resuming across code versions.  The
    key is readable on purpose: it is what operators grep for in a JSONL
    log.

    ``chaos`` is the :meth:`~repro.scenarios.ChaosSpec.label` of the
    campaign's chaos schedule, when it has one.  Chaos-free campaigns —
    every campaign recorded before the chaos dimension existed — omit the
    token entirely, keeping their keys byte-identical across versions.
    """
    trace = "-".join(repr(float(rate)) for rate in rates)
    key = f"{engine}:{tuner}:{query}:x{trace}"
    if layer is not None:
        key += f":l{layer}"
    if seed is not None:
        key += f":s{seed}"
    if engine_seed is not None:
        key += f":e{engine_seed}"
    if chaos is not None:
        key += f":c{chaos}"
    return key


@dataclass(frozen=True)
class Event:
    """Base record: stream position plus the sweep cell that produced it."""

    #: Stream-wide monotonic sequence number, stamped by the consumer.
    seq: int = field(default=-1, kw_only=True)
    #: Grid-cell label when the event belongs to a sweep, else ``None``.
    scenario: str | None = field(default=None, kw_only=True)
    #: Deterministic campaign identity (:func:`campaign_cell_key`) on
    #: campaign-scoped events; ``None`` on stream-scoped ones.
    cell_key: str | None = field(default=None, kw_only=True)

    @property
    def kind(self) -> str:
        """The event's type name (``"CampaignStarted"``, ...)."""
        return type(self).__name__

    def to_dict(self) -> dict:
        """A JSON-serialisable view (non-serialisable fields omitted)."""
        data: dict = {"event": self.kind}
        for spec in dataclasses.fields(self):
            if not spec.metadata.get("serialise", True):
                continue
            data[spec.name] = getattr(self, spec.name)
        return data


@dataclass(frozen=True)
class CampaignStarted(Event):
    """A campaign's first tuning process is about to run."""

    campaign: str = ""
    index: int = 0                     # position in the submitted spec list
    engine: str = "flink"
    tuner: str = "streamtune"
    backend: str = "sequential"
    n_steps: int = 0                   # rate changes this campaign will tune


@dataclass(frozen=True)
class StepCompleted(Event):
    """One tuning process (one source-rate change) finished."""

    campaign: str = ""
    step_index: int = 0                # 0-based position in the rate trace
    n_steps: int = 0
    multiplier: float = 0.0
    parallelisms: dict = field(default_factory=dict)   # final per-operator map
    reconfigurations: int = 0
    backpressure_events: int = 0
    converged: bool = False
    recommendation_seconds: float = 0.0

    @property
    def total_parallelism(self) -> int:
        return sum(self.parallelisms.values())


@dataclass(frozen=True)
class ChaosInjected(Event):
    """A scheduled chaos effect was applied before/at a trace step.

    Emitted by campaigns whose plan carries a
    :class:`~repro.scenarios.ChaosSpec`, ahead of the affected step's
    :class:`Reconfigured` / :class:`StepCompleted` block.
    ``effect`` is ``"operator-loss"`` (``operator``/``count`` say what
    failed) or ``"trace-dropout"`` (``factor`` says what fraction of the
    step's source rate survived the outage).
    """

    campaign: str = ""
    step_index: int = 0
    effect: str = ""
    operator: str = ""
    count: int = 0
    factor: float = 0.0


@dataclass(frozen=True)
class Reconfigured(Event):
    """The engine stop-and-restarted the job with a new parallelism map."""

    campaign: str = ""
    step_index: int = 0
    iteration: int = 0                 # tuner iteration within the step
    parallelisms: dict = field(default_factory=dict)
    backpressure_after: bool = False


@dataclass(frozen=True)
class CampaignFinished(Event):
    """A campaign's last tuning process finished (always follows its steps)."""

    campaign: str = ""
    index: int = 0
    backend: str = "sequential"
    n_steps: int = 0
    converged_steps: int = 0
    wall_seconds: float = 0.0
    #: The campaign's :class:`~repro.experiments.campaigns.CampaignResult`;
    #: carried for programmatic consumers, omitted from the field walk in
    #: ``to_dict`` (serialised instead as the ``result`` payload below).
    result: object = field(default=None, repr=False, compare=False,
                           metadata={"serialise": False})

    def to_dict(self) -> dict:
        """The JSON view, including the campaign's full ``result``.

        The result payload (multipliers plus every tuning process's step
        records) is what lets a recorded log stand in for re-execution on
        ``--resume``: :func:`event_from_dict` rebuilds the result from it
        bit-identically.
        """
        data = super().to_dict()
        payload = _result_payload(self.result)
        if payload is not None:
            data["result"] = payload
        return data


def campaign_finished(
    campaign: str, index: int, backend: str, result, cell_key: str | None
) -> CampaignFinished:
    """The :class:`CampaignFinished` of ``result`` as emitted by ``backend``
    (live or replayed)."""
    return CampaignFinished(
        campaign=campaign,
        index=index,
        backend=backend,
        n_steps=result.n_processes,
        converged_steps=result.converged_steps,
        wall_seconds=result.wall_seconds,
        result=result,
        cell_key=cell_key,
    )


@dataclass(frozen=True)
class CampaignFailed(Event):
    """A campaign's worker died; the fleet keeps running without it.

    Emitted instead of :class:`CampaignFinished` when a worker raises or
    its process is killed (OOM, signal).  ``traceback`` preserves the full
    text even across process boundaries, where exception objects may not
    unpickle.
    """

    campaign: str = ""
    index: int = 0
    backend: str = "sequential"
    error_type: str = ""
    error_message: str = ""
    traceback: str = ""


@dataclass(frozen=True)
class CampaignSkipped(Event):
    """A resumed run replayed this campaign from its resume log.

    Always followed by the replayed :class:`CampaignFinished` carrying the
    recorded result, so blocking wrappers see a complete fleet.
    """

    campaign: str = ""
    index: int = 0
    backend: str = "sequential"
    n_steps: int = 0
    #: Path of the resume log that supplied the recorded result.
    resumed_from: str = ""


@dataclass(frozen=True)
class CacheStats(Event):
    """Hit/miss counters of the run's shared cache sections."""

    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SweepFinished(Event):
    """Every scenario of a sweep has run."""

    n_scenarios: int = 0
    n_campaigns: int = 0
    wall_seconds: float = 0.0


@dataclass(frozen=True)
class JobSubmitted(Event):
    """The daemon accepted a plan submission (:mod:`repro.daemon`).

    Carries everything needed to reconstruct the job after a restart:
    the full plan payload, its tenant/priority, and the ledger file its
    execution events are recorded to.
    """

    job: str = ""
    tenant: str = "default"
    priority: int = 0
    plan_kind: str = ""
    n_cells: int = 0                    # campaigns the plan will execute
    ledger: str = ""                    # ledger filename, relative to the store
    plan: dict = field(default_factory=dict)
    submitted_at: float = 0.0           # unix time, operator-facing only


@dataclass(frozen=True)
class JobStateChanged(Event):
    """A daemon job moved through its lifecycle.

    ``state`` is one of :data:`repro.daemon.jobs.JOB_STATES`
    (``queued``/``running``/``finished``/``failed``); ``error`` carries
    the failure text on ``failed`` transitions.
    """

    job: str = ""
    state: str = ""
    error: str = ""
    at: float = 0.0                     # unix time, operator-facing only


# ----------------------------------------------------------------------
# JSON round-trip: to_dict() output -> an equal event
# ----------------------------------------------------------------------

def _result_payload(result) -> dict | None:
    """Serialise a ``CampaignResult`` as plain JSON data (its
    ``wall_seconds`` is the event's own field)."""
    if result is None:
        return None
    return {
        "query_name": result.query_name,
        "method": result.method,
        "multipliers": list(result.multipliers),
        "processes": [
            {
                "query_name": process.query_name,
                "tuner_name": process.tuner_name,
                "converged": process.converged,
                "steps": [dataclasses.asdict(step) for step in process.steps],
            }
            for process in result.processes
        ],
    }


def _result_from_payload(payload: dict, wall_seconds: float):
    """Rebuild a ``CampaignResult`` from :func:`_result_payload` output.

    Floats survive JSON exactly (``repr`` round-trip), so the rebuilt
    result is bit-identical to the recorded one — the property resume
    rests on.  Imports are lazy: the event layer stays import-light and
    cycle-free with the service layer that imports it.
    """
    from repro.baselines.api import TuningResult, TuningStep
    from repro.experiments.campaigns import CampaignResult

    result = CampaignResult(
        query_name=payload["query_name"],
        method=payload["method"],
        multipliers=list(payload["multipliers"]),
        wall_seconds=wall_seconds,
    )
    for process in payload["processes"]:
        result.processes.append(
            TuningResult(
                query_name=process["query_name"],
                tuner_name=process["tuner_name"],
                converged=process["converged"],
                steps=[TuningStep(**step) for step in process["steps"]],
            )
        )
    return result


#: Every concrete event class, keyed by its ``kind`` — the dispatch table
#: of :func:`event_from_dict`.
EVENT_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls in (
        CampaignStarted,
        StepCompleted,
        ChaosInjected,
        Reconfigured,
        CampaignFinished,
        CampaignFailed,
        CampaignSkipped,
        CacheStats,
        SweepFinished,
        JobSubmitted,
        JobStateChanged,
    )
}


def event_from_dict(data: dict) -> Event:
    """Restore an event from its :meth:`Event.to_dict` output.

    The inverse of recording: for every event class,
    ``event_from_dict(event.to_dict()) == event`` (the ``result`` object
    is excluded from equality but is itself rebuilt from the ``result``
    payload when one was recorded).  Raises ``ValueError`` for a missing,
    non-string or unknown kind, and for a record (or ``result`` payload)
    of a known kind that does not rebuild — a resume log with foreign
    lines should fail loudly.
    """
    if not isinstance(data, dict):
        raise ValueError(f"an event record must be a mapping, got {type(data).__name__}")
    kind = data.get("event")
    if not isinstance(kind, str):
        raise ValueError(f"event record has no 'event' kind name, got {kind!r}")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown event kind {kind!r} (expected one of "
            f"{', '.join(sorted(EVENT_TYPES))})"
        )
    known = {
        spec.name
        for spec in dataclasses.fields(cls)
        if spec.metadata.get("serialise", True)
    }
    kwargs = {key: value for key, value in data.items() if key in known}
    try:
        if cls is CampaignFinished and isinstance(data.get("result"), dict):
            kwargs["result"] = _result_from_payload(
                data["result"], wall_seconds=kwargs.get("wall_seconds", 0.0)
            )
        return cls(**kwargs)
    except (KeyError, TypeError, AttributeError) as error:
        raise ValueError(f"damaged {kind} record: {error!r}") from None


def read_event_log(path: str | Path) -> tuple[list, int]:
    """Every well-formed event of a JSONL log in order, plus the number of
    lines skipped.

    The one reader behind resume logs, spool ledgers and the daemon's
    manifest: a crash can truncate the final line mid-write, and a
    readable prefix is exactly what recovery is for, so lines that do
    not decode (bad UTF-8 or JSON, or nested past the recursion limit)
    or do not describe a known event are counted, not fatal.
    Raises ``FileNotFoundError`` when there is no log at all.
    """
    events = []
    n_malformed = 0
    with open(path, "rb") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(event_from_dict(json.loads(line)))
            except (ValueError, RecursionError):
                n_malformed += 1
    return events, n_malformed


class EventBus:
    """Fan one event stream out to pluggable subscribers.

    Subscribers are callables taking one event.  ``publish`` never raises
    on a subscriber's behalf: failures are appended to :attr:`errors` as
    ``(subscriber, event, exception)`` so a broken progress printer cannot
    kill a half-finished fleet.
    """

    def __init__(self, *subscribers) -> None:
        self._subscribers = subscribers
        self.errors: list[tuple] = []

    def publish(self, event: Event) -> None:
        for subscriber in self._subscribers:
            try:
                subscriber(event)
            except Exception as error:  # noqa: BLE001 — isolation by design
                self.errors.append((subscriber, event, error))


# ----------------------------------------------------------------------
# built-in subscribers
# ----------------------------------------------------------------------

class ProgressPrinter:
    """One human-readable line per event (``--follow`` in the CLI).

    Per-reconfiguration events print nothing: they dominate the stream
    but rarely matter when following a fleet.
    """

    def __init__(self, stream=None) -> None:
        self.stream = stream if stream is not None else sys.stderr

    def _write(self, line: str, scenario: str | None) -> None:
        prefix = f"[{scenario}] " if scenario else ""
        print(f"{prefix}{line}", file=self.stream, flush=True)

    def __call__(self, event: Event) -> None:
        if isinstance(event, CampaignStarted):
            self._write(
                f"> {event.campaign}: {event.n_steps} rate change(s) via "
                f"{event.tuner}@{event.engine} ({event.backend})",
                event.scenario,
            )
        elif isinstance(event, StepCompleted):
            note = "" if event.converged else ", not converged"
            self._write(
                f"  . {event.campaign} step {event.step_index + 1}/"
                f"{event.n_steps}: rate x{event.multiplier:g} -> "
                f"parallelism {event.total_parallelism} "
                f"({event.reconfigurations} reconfig(s){note})",
                event.scenario,
            )
        elif isinstance(event, ChaosInjected):
            if event.effect == "operator-loss":
                detail = f"lost {event.count} instance(s) of {event.operator}"
            else:
                detail = f"source rate x{event.factor:g} survives"
            self._write(
                f"  ! {event.campaign} step {event.step_index + 1}: chaos "
                f"{event.effect} ({detail})",
                event.scenario,
            )
        elif isinstance(event, CampaignFinished):
            self._write(
                f"< {event.campaign} done: {event.converged_steps}/"
                f"{event.n_steps} converged in {event.wall_seconds:.2f}s",
                event.scenario,
            )
        elif isinstance(event, CampaignFailed):
            self._write(
                f"x {event.campaign} FAILED: {event.error_type}: "
                f"{event.error_message}",
                event.scenario,
            )
        elif isinstance(event, CampaignSkipped):
            self._write(
                f"= {event.campaign} skipped: {event.n_steps} recorded "
                f"step(s) replayed from {event.resumed_from or 'resume log'}",
                event.scenario,
            )
        elif isinstance(event, CacheStats):
            summary = ", ".join(
                f"{kind}: {values.get('hits', 0)}h/{values.get('misses', 0)}m"
                for kind, values in event.stats.items()
            )
            self._write(f"caches: {summary or 'none'}", event.scenario)
        elif isinstance(event, SweepFinished):
            self._write(
                f"sweep done: {event.n_scenarios} scenario(s), "
                f"{event.n_campaigns} campaign(s) in {event.wall_seconds:.2f}s",
                event.scenario,
            )


class JsonlRecorder:
    """Write every event to ``path`` as one JSON object per line.

    The file opens lazily on the first write (truncating any previous
    log — one recorder, one run).  Lines are committed a block at a
    time: a :class:`Reconfigured` or :class:`ChaosInjected` line waits
    for the event that closes its tuning process's block (the step's
    :class:`StepCompleted`, which the stream yields right behind it),
    every other event commits at once, and :meth:`close` commits what is
    left.  A commit is one write and one flush, so a crash mid-run
    leaves a readable prefix that ends on a block boundary.
    ``fsync=True`` adds one fsync per commit: the flush only hands the
    block to the OS page cache, which a SIGKILL survives but a power
    loss (or an eager container teardown) does not — a daemon whose
    ledger *is* the recovery source pays the sync so every recorded
    event is durable the moment a client can observe it.  ``on_commit``
    is called with each committed block's lines (no newlines) once they
    are durable; a block whose write or sync fails is cut back off the
    file and never reaches it.  Usable as a context manager; otherwise
    call :meth:`close` (or let the interpreter do it).
    """

    def __init__(self, path: str | Path, *, fsync: bool = False, on_commit=None) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.on_commit = on_commit
        self._handle = None
        self._pending: list[str] = []
        self.n_events = 0

    def _open(self):
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "wb")
        return self._handle

    def __call__(self, event: Event) -> None:
        line = json.dumps(event.to_dict(), sort_keys=True)
        torn = _fault_trip("ledger.write.torn-tail")
        if torn is not None:
            # Cooperative torn-tail injection: persist only a prefix of
            # the line, then die mid-write — the exact artifact a crash
            # during write() leaves, which every ledger reader (resume,
            # coordinator merge) must tolerate.
            head = "".join(pending + "\n" for pending in self._pending)
            self._open().write((head + line[: max(1, len(line) // 2)]).encode())
            self._handle.flush()
            hard_exit(torn.exit_code)
        self._pending.append(line)
        if not isinstance(event, (Reconfigured, ChaosInjected)):
            self._commit()

    def _commit(self) -> None:
        """Write, flush (and fsync) the pending block, then hand it to
        ``on_commit``."""
        if not self._pending:
            return
        lines, self._pending = self._pending, []
        handle = self._open()
        start = handle.tell()
        try:
            handle.write("".join(line + "\n" for line in lines).encode())
            handle.flush()
            if self.fsync:
                _fault_fire("ledger.fsync.crash-before")
                os.fsync(handle.fileno())
        except OSError:
            # Never published: cut the block back off, so the file holds
            # exactly the lines ``on_commit`` has seen.
            handle.seek(start)
            handle.truncate()
            raise
        self.n_events += len(lines)
        if self.on_commit is not None:
            self.on_commit(lines)

    def close(self) -> None:
        self._commit()
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        self.close()


class MetricsAggregator:
    """Reduce a stream into the counters the daemon's ``/metrics`` serves."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}
        self.steps = 0
        self.reconfigurations = 0

    def __call__(self, event: Event) -> None:
        self.counts[event.kind] = self.counts.get(event.kind, 0) + 1
        if isinstance(event, StepCompleted):
            self.steps += 1
            self.reconfigurations += event.reconfigurations

    @property
    def n_events(self) -> int:
        return sum(self.counts.values())
