"""Shared experiment artifacts with in-process caching.

Histories, pre-trained StreamTune models, and tuning campaigns are
expensive; several figures consume the same ones (Fig. 6, Fig. 7a,
Table III and Fig. 10 are all views over one campaign grid).  This module
builds each artifact once per (scale, engine) and caches it for the
lifetime of the process.
"""

from __future__ import annotations

import threading

from repro.api.components import (
    TunerResources,
    build_engine,
    build_tuner,
    engine_family,
)
from repro.core import HistoryGenerator, PretrainedStreamTune, pretrain
from repro.core.history import ExecutionRecord
from repro.engines import EngineCluster
from repro.experiments.scale import ExperimentScale
from repro.workloads import StreamingQuery, nexmark_queries, pqp_query_set

#: The evaluation groups :func:`evaluation_queries` derives, in the paper's
#: plotting order — the one spelling every figure module imports.
PQP_GROUPS = ("linear", "2-way-join", "3-way-join")
FLINK_GROUPS = ("q1", "q2", "q3", "q5", "q8") + PQP_GROUPS

_CACHE: dict = {}

#: Reentrant because builders nest (pretraining builds the history first);
#: held across the build so sessions on different threads (the daemon's
#: executor, fleet workers) share one artifact instead of each paying the
#: minutes-scale construction.
_CACHE_LOCK = threading.RLock()


def _cached(key, builder):
    with _CACHE_LOCK:
        if key not in _CACHE:
            _CACHE[key] = builder()
        return _CACHE[key]


# ----------------------------------------------------------------------
# engines and query corpora
# ----------------------------------------------------------------------

def make_engine(engine_name: str, scale: ExperimentScale) -> EngineCluster:
    """A fresh engine cluster (not cached: engines carry deployment state).

    Resolution goes through the :data:`repro.api.ENGINES` registry, so any
    registered engine — including ``flink-faulty`` — is available to every experiment by name.
    """
    return build_engine(engine_name, seed=scale.seed)


def corpus(engine_name: str) -> list[StreamingQuery]:
    """The full training corpus for an engine (Fig. 5 distribution).

    Engine *variants* (``flink-faulty``, ``flink-paced``) train on
    their base family's corpus — same queries, same rate units.
    """
    family = engine_family(engine_name)
    if family == "flink":
        return nexmark_queries("flink") + [
            query for queries in pqp_query_set().values() for query in queries
        ]
    if family == "timely":
        return nexmark_queries("timely")
    raise KeyError(f"engine {engine_name!r} has no workload corpus")


def evaluation_queries(
    engine_name: str, scale: ExperimentScale
) -> dict[str, list[StreamingQuery]]:
    """Queries per evaluation group, as reported in the paper's tables.

    Flink: the five Nexmark queries plus ``queries_per_template`` samples
    of each PQP template.  Timely: Nexmark Q3/Q5/Q8 (§V-F: the other
    queries run fine at parallelism 1).
    """
    if engine_family(engine_name) == "timely":
        timely = {q.name.split("_")[1]: q for q in nexmark_queries("timely")}
        return {key: [timely[key]] for key in ("q3", "q5", "q8")}
    groups: dict[str, list[StreamingQuery]] = {}
    for query in nexmark_queries("flink"):
        groups[query.name.split("_")[1]] = [query]
    for template, queries in pqp_query_set().items():
        groups[template] = queries[: scale.queries_per_template]
    return groups


# ----------------------------------------------------------------------
# histories and pre-training
# ----------------------------------------------------------------------

def history(engine_name: str, scale: ExperimentScale) -> list[ExecutionRecord]:
    """Synthetic execution history for pre-training (cached)."""

    def build() -> list[ExecutionRecord]:
        engine = make_engine(engine_name, scale)
        generator = HistoryGenerator(engine, seed=scale.seed + 1)
        return generator.generate(corpus(engine_name), scale.n_history_records)

    return _cached(("history", engine_name, scale.name), build)


def pretrained_model(engine_name: str, scale: ExperimentScale) -> PretrainedStreamTune:
    """Clustered, pre-trained StreamTune artifact (cached)."""

    def build() -> PretrainedStreamTune:
        engine = make_engine(engine_name, scale)
        return pretrain(
            history(engine_name, scale),
            max_parallelism=engine.max_parallelism,
            n_clusters=scale.n_clusters,
            epochs=scale.gnn_epochs,
            seed=scale.seed + 2,
        )

    return _cached(("pretrained", engine_name, scale.name), build)


# ----------------------------------------------------------------------
# tuner factory
# ----------------------------------------------------------------------

def make_tuner(method: str, engine: EngineCluster, scale: ExperimentScale):
    """Instantiate a tuning method bound to ``engine``.

    ``method`` is any :data:`repro.api.TUNERS` registry name (DS2,
    ContTune, StreamTune, ZeroTune, Oracle), or ``StreamTune-<model>`` for the Fig. 11a
    prediction-layer ablation (svm/xgboost/nn).  The registry factories
    pull whatever shared artifacts they need — the pre-trained model for
    StreamTune, history records for ZeroTune — lazily from this module's
    cache, with the scale's seed conventions applied inside the factory.
    """
    resources = TunerResources(
        scale=scale,
        pretrained=lambda: pretrained_model(engine.name, scale),
        history=lambda limit: history(engine.name, scale)[:limit],
    )
    return build_tuner(method, engine, resources)
