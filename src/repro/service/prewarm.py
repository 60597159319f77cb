"""Service-level cache pre-warming: pay for shared pure work exactly once.

Before a fleet dispatches, the service can compute every pure cache entry
its campaigns will consult — cluster assignments (bound-pruned GED),
warm-up datasets (whose record encodings coalesce into one padded
pack of :mod:`repro.gnn.batch` inside
:func:`~repro.core.finetune.build_warmup_dataset`), distilled operating
points and parallelism-agnostic embeddings — in one pass, instead of
letting each campaign dispatch the same requests independently.

Every entry is produced by the exact builder the tuner itself would call
on a cache miss, so a pre-warmed run is bit-identical to a cold one; only
the wall-clock changes.  Two situations profit:

* **thread backend** — builders run outside the cache lock (so an
  expensive miss never serialises hits), which lets two workers racing on
  the same cold key both pay for it; pre-warming keys demanded by more
  than one campaign removes the duplicated work;
* **resume** — a resumed fleet's completed cells never re-execute, but
  their pure entries are exactly what the missing cells (and the
  ``cache_path`` snapshot written afterwards) want warm; pre-warming from
  the completed cells' specs restores them without re-running campaigns.

``min_demand`` encodes the backend policy: an entry is only pre-warmed
when the number of campaigns that will consult it reaches the threshold
(resume-covered campaigns count as :data:`RESUME_DEMAND`, i.e. always).
"""

from __future__ import annotations

from repro.core.finetune import (
    agnostic_embeddings,
    build_warmup_dataset,
    distill_rows,
    shared_structure_key,
    warmup_cache_key,
)
from repro.core.tuner import DEFAULT_WARMUP_ROWS

#: Effective demand of a resume-covered campaign's entries: always worth
#: warming (the next snapshot must reflect completed cells), regardless of
#: the backend's duplication threshold.
RESUME_DEMAND = 1_000_000


def prewarm_caches(
    pretrained,
    caches,
    specs,
    demands=None,
    min_demand: int = 1,
) -> dict[str, int]:
    """Populate ``caches`` with the pure entries ``specs`` will consult.

    ``demands`` carries one weight per spec (1 for a campaign that will
    run, :data:`RESUME_DEMAND` for a resume-covered one; defaults to 1
    each); an expensive entry is computed only when the demand summed
    over the specs sharing it reaches ``min_demand``.  Cluster assignments
    are always resolved (they are cheap, bound-pruned, and prerequisites
    for every other key).  Returns the number of *newly computed* entries
    per section.
    """
    stats = {"assign": 0, "warmup": 0, "distill": 0, "embed": 0}
    if pretrained is None or caches is None:
        return stats
    specs = list(specs)
    demands = [1] * len(specs) if demands is None else list(demands)
    if len(demands) != len(specs):
        raise ValueError(
            f"demands must match specs ({len(specs)}), got {len(demands)}"
        )
    if sum(demands) < min_demand:
        # No key can possibly reach the threshold (e.g. the sequential
        # backend with nothing resume-covered): touch nothing at all.
        return stats
    sections = getattr(caches, "_caches", {})

    def compute(kind, key, builder):
        if kind not in sections:
            # The cache set does not carry this section: computing the
            # value would warm nothing, so skip it.
            return None
        fresh = False

        def counted():
            nonlocal fresh
            fresh = True
            return builder()

        value = caches.get_or_compute(kind, key, counted)
        if fresh:
            stats[kind] += 1
        return value

    # -- cluster assignment per unique structure (always) ---------------
    cluster_of: dict[int, int] = {}          # spec position -> cluster id
    by_signature: dict[str, int] = {}
    for position, spec in enumerate(specs):
        if not spec.is_streamtune:
            continue
        flow = spec.query.flow
        signature = flow.structural_signature()
        cluster = by_signature.get(signature)
        if cluster is None:
            cluster = compute(
                "assign",
                (signature,),
                lambda flow=flow: pretrained.assign_cluster(flow),
            )
            if cluster is None:              # no 'assign' section configured
                cluster = pretrained.assign_cluster(flow)
            by_signature[signature] = cluster
        cluster_of[position] = cluster

    # -- demand accounting over the expensive sections ------------------
    warmup_demand: dict[tuple, int] = {}
    warmup_cluster: dict[tuple, int] = {}    # warmup key -> builder cluster id
    shared_demand: dict[tuple, int] = {}
    exemplar: dict[tuple, tuple] = {}        # shared key -> (flow, rates)
    for position, spec in enumerate(specs):
        cluster = cluster_of.get(position)
        if cluster is None:
            continue
        demand = demands[position]
        # Same signature-based key the tuner consults (the cluster *id*
        # stays out of the key — it is a pretrain-run-local artifact — but
        # the builder still needs it to reach the right encoder/history).
        # Service tuners keep the default warm-up size.
        warmup_key = warmup_cache_key(
            pretrained, cluster, DEFAULT_WARMUP_ROWS, spec.seed
        )
        warmup_demand[warmup_key] = warmup_demand.get(warmup_key, 0) + demand
        warmup_cluster[warmup_key] = cluster
        seen: set = set()
        for step, multiplier in enumerate(spec.multipliers):
            if spec.chaos is not None:
                # The tuner is consulted at the rate that arrives: a
                # trace dropout rewrites the step's multiplier.
                multiplier = spec.chaos.effective_multiplier(step, multiplier)
            rates = spec.query.rates_at(multiplier)
            key = shared_structure_key(spec.query.flow, cluster, rates)
            if key in seen:
                continue                     # intra-campaign repeats hit anyway
            seen.add(key)
            shared_demand[key] = shared_demand.get(key, 0) + demand
            exemplar.setdefault(key, (spec.query.flow, rates))

    # -- warm-up datasets (bulk record encoding via repro.gnn.batch) ----
    for warmup_key, demand in warmup_demand.items():
        if demand < min_demand:
            continue
        _, max_rows, seed = warmup_key
        cluster = warmup_cluster[warmup_key]
        compute(
            "warmup",
            warmup_key,
            lambda c=cluster, r=max_rows, s=seed: (
                build_warmup_dataset(pretrained, c, max_rows=r, seed=s)
            ),
        )

    # -- distilled operating points + agnostic embeddings ---------------
    for key, demand in shared_demand.items():
        if demand < min_demand:
            continue
        flow, rates = exemplar[key]
        encoder = pretrained.encoders[key[0]]
        compute(
            "distill",
            key,
            lambda e=encoder, f=flow, r=rates: distill_rows(pretrained, e, f, r),
        )
        compute(
            "embed",
            key,
            lambda e=encoder, f=flow, r=rates: (
                agnostic_embeddings(pretrained, e, f, r)
            ),
        )
    return stats
