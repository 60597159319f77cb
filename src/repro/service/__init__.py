"""Concurrent multi-query tuning service.

StreamTune's premise is amortising past tuning work; this package extends
the amortisation across *queries running at the same time*.  The seed
repository tuned one :class:`~repro.workloads.query.StreamingQuery` at a
time through a synchronous tuner — real deployments face fleets of
concurrent jobs whose source rates move independently (ContTune VLDB'23,
PDSP-Bench 2025), so the service layer runs many tuning campaigns at once
and makes sure no piece of pure work is ever computed twice.

Architecture (see each module for depth):

* :mod:`repro.service.cache` — :class:`TuningCacheSet` routes the tuner's
  pure computations (cluster assignment, warm-up dataset construction,
  distilled operating points, operator embeddings) through bounded
  single-flight LRU caches — concurrent campaigns racing on one cold key
  compute it once — and persists them between service runs via
  versioned snapshots (``TuningCacheSet.save`` / ``load``);
  :class:`SharedGEDCache` is the thread-safe pairwise-GED store
  behind cluster assignment.
* :mod:`repro.service.prewarm` — resume-aware warming: a resume log's
  completed cells restore their pure entries through their own tuners
  (:meth:`~repro.core.tuner.StreamTuneTuner.warm`, the one owner of the
  cache keys) before the missing cells dispatch.
* :mod:`repro.service.tuning` — :class:`CampaignSpec` describes one
  ``(query, rate-trace)`` campaign; :class:`TuningService` dispatches
  campaigns in plan order, one after another (``sequential``) or over a
  ``thread`` worker pool, both streaming their campaigns' events live;
  the multi-process executor is the spool fleet of
  :mod:`repro.distributed`.  Every campaign owns its engine and a tuner
  that serves it alone (per-campaign seeding), all share the caches, and
  results are bit-identical across backends and dispatch orders because
  every cached value is a pure function of its key.

Quick start — a :class:`~repro.api.plans.CampaignPlan` runs on this
service through the session front door::

    from repro.api import CampaignPlan, TuningSession

    plan = CampaignPlan(queries=("q1", "q5"), backend="thread", workers=4)
    result = TuningSession().run(plan)     # CampaignResults in plan order
    # TuningService(...).stream(specs) yields the same run as events.

Benchmark: ``python benchmarks/e2e/run.py --all`` times single-query
tuning plans, each a one-campaign sequential fleet (``tune_cold``), next
to this service on two worker threads (``fleet_thread``, which also
checks thread == sequential);
``tests/test_determinism.py::TestServiceDeterminism`` asserts backend
identity.
"""

from repro.service.cache import (
    ConcurrentLRUCache,
    SharedGEDCache,
    SnapshotError,
    TuningCacheSet,
)
from repro.service.prewarm import prewarm_caches
from repro.service.tuning import (
    BACKENDS,
    CampaignExecutionError,
    CampaignSpec,
    TuningService,
    execute_campaign,
)

__all__ = [
    "BACKENDS",
    "CampaignExecutionError",
    "CampaignSpec",
    "ConcurrentLRUCache",
    "SharedGEDCache",
    "SnapshotError",
    "TuningCacheSet",
    "TuningService",
    "execute_campaign",
    "prewarm_caches",
]
