"""Spans recorded from outside the program, for the traced pass.

The benchmark owns the tracing in this revision: `TRACE_TABLE` names the
public callables of each layer, `installed()` substitutes a span wrapper
for each of them (the class attribute for methods, the importing
module's global for ``from``-imports) and restores the originals on the
way out.  Spans stay in memory; `reduce_spans` turns them into the
per-layer numbers.

Named ``tracing`` and not ``trace`` so the directory never shadows the
standard library's ``trace`` module on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    """One call (or one generator's life) at a layer boundary."""

    name: str
    start: float
    end: float = 0.0
    parent: "Span | None" = None
    op: str = ""
    thread: str = ""
    #: When the span was running: ``[(start, end)]`` for a call; for a
    #: generator one interval per resumption, because its consumer runs
    #: between two of them.
    intervals: list = field(default_factory=list)
    #: What the table entry's ``value`` callback read off the call.
    value: float | None = None

    @property
    def busy(self) -> float:
        """Seconds spent inside the span."""
        return sum(end - start for start, end in self.intervals)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "intervals": self.intervals,
            "parent": id(self.parent) if self.parent is not None else None,
            "id": id(self),
            "op": self.op,
            "thread": self.thread,
            "value": self.value,
        }


class Tracer:
    """Collects spans; one stack of open spans per thread.

    Spans are stamped on the wall clock, whatever clock the workload is
    timed on; a test passes its own ``clock``."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._now = clock
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op: str) -> None:
        """Spans this thread opens from now on belong to operation ``op``."""
        self._local.op = op

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(
            name=name,
            start=self._now(),
            parent=stack[-1] if stack else None,
            op=getattr(self._local, "op", ""),
            thread=threading.current_thread().name,
        )
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self._now()
        span.intervals.append((span.start, span.end))
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name: str, func, *, op_from=None, value=None):
        """A stand-in for ``func`` that records one span per call.

        ``op_from(args, kwargs)`` may name the operation the calling
        thread is now working on; ``value(args, kwargs, result)`` may read
        one number off the call (a row count, a step count).  A call that
        returns a generator is recorded as one span over the generator's
        life instead.
        """
        tracer = self

        def traced(*args, **kwargs):
            if op_from is not None:
                op = op_from(args, kwargs)
                if op is not None:
                    tracer.set_op(op)
            span = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer._close(span)
                raise
            if inspect.isgenerator(result):
                tracer._stack().pop()           # re-opened on first resume
                return tracer._drive(span, result)
            tracer._close(span)
            if value is not None:
                span.value = value(args, kwargs, result)
            return result

        return functools.wraps(func)(traced)

    def _drive(self, span: Span, generator):
        """Re-yield ``generator``; ``span`` is open only while it runs."""
        stack = self._stack()
        sent = None
        try:
            while True:
                span.parent = stack[-1] if stack else None
                stack.append(span)
                resumed = self._now()
                try:
                    item = generator.send(sent)
                except StopIteration as stop:
                    return stop.value
                finally:
                    span.intervals.append((resumed, self._now()))
                    stack.pop()
                sent = yield item
        finally:
            span.end = self._now()
            self.spans.append(span)
            generator.close()


# ----------------------------------------------------------------------
# the fixed table of layer boundaries
# ----------------------------------------------------------------------

def _rows(args, kwargs, result) -> float:
    return float(len(args[1]))          # MonotonicSVM.fit(self, features, ...)


def _steps(args, kwargs, result) -> float:
    return float(len(result.steps))     # StreamTuneTuner.tune -> TuningResult


def _entries(args, kwargs, result) -> float:
    return float(sum(result.values()))  # prewarm_caches -> {section: new}


def _plan_op(args, kwargs):
    plan = args[1] if len(args) > 1 else kwargs.get("plan")
    return getattr(plan, "query", None)


def _spec_op(args, kwargs):
    return args[0].name                 # execute_campaign(spec, ...)


def _job_op(args, kwargs):
    return args[1].id                   # JobStore.mark/append_event(self, job, ...)


def _tune_op(args, kwargs):
    deployment, target_rates = args[1], args[2]   # tune(self, ...)
    return f"{deployment.flow.name}@{sum(target_rates.values()):g}"


#: (owner, attribute, span name, wrap options).  Owners are
#: ``module`` or ``module:Class``; a module owner means the global that
#: module looks the callable up through.
TRACE_TABLE: tuple = (
    ("repro.engines.base:EngineCluster", "measure", "engines.measure", {}),
    ("repro.core.history:HistoryGenerator", "generate", "engines.history_generate", {}),
    ("repro.ged.search:GEDCache", "distance", "ged.distance", {}),
    ("repro.ged.search:GEDCache", "within", "ged.distance", {}),
    ("repro.ged.search:GEDCache", "nearest", "ged.nearest", {}),
    ("repro.service.cache:SharedGEDCache", "distance", "ged.distance", {}),
    ("repro.service.cache:SharedGEDCache", "within", "ged.distance", {}),
    ("repro.service.cache:SharedGEDCache", "nearest", "ged.nearest", {}),
    ("repro.ged.search", "astar_lsa_ged", "ged.exact_search", {}),
    ("repro.service.cache", "astar_lsa_ged", "ged.exact_search", {}),
    ("repro.core.pretrain", "choose_k_elbow", "clustering.elbow", {}),
    ("repro.clustering.kmeans:GEDKMeans", "fit", "clustering.kmeans_fit", {}),
    ("repro.core.pretrain", "train_bottleneck_gnn", "gnn.train", {}),
    ("repro.gnn.model:BottleneckGNN", "encode", "gnn.encode", {}),
    ("repro.gnn.model:BottleneckGNN", "predict_probabilities_grid", "gnn.encode", {}),
    ("repro.core.pretrain", "pretrain", "core.pretrain.pretrain", {}),
    ("repro.core.pretrain:PretrainedStreamTune", "assign_cluster",
     "core.pretrain.assign_cluster", {}),
    ("repro.core.persistence", "save_pretrained", "core.persistence.save", {}),
    ("repro.core.persistence", "load_pretrained", "core.persistence.load", {}),
    ("repro.core.finetune", "distill_rows", "core.finetune.distill", {}),
    ("repro.core.tuner", "build_warmup_dataset", "core.finetune.warmup", {}),
    ("repro.core.tuner", "distill_rows", "core.finetune.distill", {}),
    ("repro.core.tuner", "agnostic_embeddings", "core.finetune.embed", {}),
    ("repro.service.prewarm", "build_warmup_dataset", "core.finetune.warmup", {}),
    ("repro.service.prewarm", "distill_rows", "core.finetune.distill", {}),
    ("repro.service.prewarm", "agnostic_embeddings", "core.finetune.embed", {}),
    ("repro.models.svm:MonotonicSVM", "fit", "models.fit", {"value": _rows}),
    ("repro.core.tuner", "min_feasible_parallelism", "models.search", {}),
    ("repro.core.tuner:StreamTuneTuner", "tune", "core.tuner.tune",
     {"value": _steps, "op_from": _tune_op}),
    ("repro.service.cache:TuningCacheSet", "get_or_compute", "service.cache", {}),
    ("repro.service.tuning", "prewarm_caches", "service.prewarm", {"value": _entries}),
    ("repro.service.tuning", "execute_campaign", "service.tuning.execute",
     {"op_from": _spec_op}),
    ("repro.service.tuning:TuningService", "stream", "service.tuning.stream", {}),
    ("repro.api.session:TuningSession", "stream", "api.session.stream",
     {"op_from": _plan_op}),
    ("repro.api.events:EventBus", "publish", "api.events.publish", {}),
    ("repro.api.events:JsonlRecorder", "__call__", "api.events.recorder", {}),
    ("repro.daemon.server:TuningDaemon", "submit", "daemon.submit", {}),
    ("repro.daemon.jobs:JobStore", "submit", "daemon.jobstore", {}),
    ("repro.daemon.jobs:JobStore", "mark", "daemon.jobstore", {"op_from": _job_op}),
    ("repro.daemon.jobs:JobStore", "append_event", "daemon.jobstore",
     {"op_from": _job_op}),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


@contextlib.contextmanager
def installed(tracer: Tracer, table=TRACE_TABLE):
    """Substitute span wrappers for every callable in ``table``; the
    originals are back in place when the block exits, however it exits."""
    originals: list[tuple] = []
    try:
        for owner_path, attribute, name, options in table:
            owner = _resolve(owner_path)
            original = vars(owner)[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(name, original, **options))
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


# ----------------------------------------------------------------------
# reduction
# ----------------------------------------------------------------------

def covered_seconds(intervals, low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``.

    Pass the ``intervals`` of spans, not their ``(start, end)``: a
    suspended generator covers nothing."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_seconds(spans) -> dict[int, float]:
    """Self time per span (keyed by ``id``): the time inside the span
    minus the part of it during which its child spans ran.  Children may
    overlap each other; covered time is counted once.  A child runs on
    its parent's thread, so only while the parent does."""
    children: dict[int, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).extend(span.intervals)
    return {
        id(span): max(
            0.0,
            span.busy - covered_seconds(children.get(id(span), ()), span.start, span.end),
        )
        for span in spans
    }


def reduce_spans(spans) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, summed ``self_s`` and ``busy_s``, how many
    calls were ``childless`` (reached no deeper traced layer: a cache hit),
    and the ``value_sum`` / ``value_n`` of the numbers read off the calls."""
    own = self_seconds(spans)
    parents = {id(span.parent) for span in spans if span.parent is not None}
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        row = totals.setdefault(span.name, {
            "calls": 0, "childless": 0, "self_s": 0.0, "busy_s": 0.0,
            "value_sum": 0.0, "value_n": 0,
        })
        row["calls"] += 1
        row["childless"] += id(span) not in parents
        row["self_s"] += own[id(span)]
        row["busy_s"] += span.busy
        if span.value is not None:
            row["value_sum"] += span.value
            row["value_n"] += 1
    return totals
