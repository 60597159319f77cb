"""Resume-aware cache warming: restore a resumed fleet's paid-for entries.

A resumed fleet's completed cells never re-execute, but their pure cache
entries — cluster assignments, warm-up datasets, distilled operating
points and parallelism-agnostic embeddings — are exactly what the missing
cells (and the ``cache_path`` snapshot written afterwards) want warm.
:func:`prewarm_caches` restores them without re-running a campaign: each
resume-covered campaign's own tuner looks up every entry its tuning
processes consulted (:meth:`~repro.core.tuner.StreamTuneTuner.warm`), at
the multipliers its recorded result says arrived.  The tuner alone knows
the keys, so a warmed entry is the one a cold run would have computed.

Concurrent campaigns need no warming ahead of dispatch: the cache is
single-flight (:class:`~repro.service.cache.ConcurrentLRUCache`), so
campaigns racing on one cold key compute it once.
"""

from __future__ import annotations

# Not called here: benchmarks/e2e/tracing.py's TRACE_TABLE still wraps
# these three names in this module, so they stay importable from it.
from repro.core.finetune import (  # noqa: F401
    agnostic_embeddings,
    build_warmup_dataset,
    distill_rows,
)


def prewarm_caches(pretrained, caches, resumed) -> dict[str, int]:
    """Warm ``caches`` with every entry the ``resumed`` campaigns consulted.

    ``resumed`` holds ``(spec, result)`` pairs: a campaign's
    :class:`~repro.service.tuning.CampaignSpec` and its recorded
    :class:`~repro.experiments.campaigns.CampaignResult`.  History-free
    campaigns consult no cache and are skipped.  Returns the number of
    *newly computed* entries per section (its miss delta).
    """
    from repro.service.tuning import _build_campaign_tuner

    before = caches.stats()
    if pretrained is not None:
        for spec, result in resumed:
            if spec.is_streamtune:
                tuner = _build_campaign_tuner(
                    spec, spec.make_engine(), pretrained, caches
                )
                tuner.warm(spec.query, result.multipliers)
    after = caches.stats()
    return {
        kind: after[kind]["misses"] - before[kind]["misses"] for kind in after
    }
