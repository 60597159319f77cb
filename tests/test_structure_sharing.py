"""Cross-query structure-signature sharing of tuning cache entries.

PR 5 keys distilled operating points and parallelism-agnostic embeddings
by the dataflow's *full-fidelity* tuning signature instead of its name,
so campaigns over structurally identical queries share one cached entry.
Sharing is only sound if (a) the signature captures every feature-
relevant field (unlike the GED-level structural signature) and (b) a
query's results are unchanged by who populated the cache first.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.finetune import shared_structure_key
from repro.service import CampaignSpec, TuningService
from repro.workloads import nexmark_query
from repro.workloads.query import StreamingQuery
from tests.conftest import build_linear_flow, build_window_flow
from tests.conftest import run_campaigns


class TestTuningSignature:
    def test_renamed_flow_shares_the_signature(self):
        original = build_linear_flow("one")
        renamed = build_linear_flow("two")
        assert original.tuning_signature() == renamed.tuning_signature()

    def test_renamed_operators_share_the_signature(self):
        original = build_linear_flow()
        clone = original.copy(name="clone")
        assert original.tuning_signature() == clone.tuning_signature()

    def test_feature_relevant_fields_split_the_signature(self):
        # selectivity never enters the GED labels (structural_signature is
        # deliberately lossy) but does change engine behaviour — the
        # tuning signature must keep such flows apart.
        plain = build_linear_flow(selectivity=0.5)
        skewed = build_linear_flow(selectivity=0.9)
        assert plain.structural_signature() == skewed.structural_signature()
        assert plain.tuning_signature() != skewed.tuning_signature()

    def test_different_structures_differ(self):
        assert (
            build_linear_flow().tuning_signature()
            != build_window_flow().tuning_signature()
        )


class TestSharedStructureKey:
    def test_renamed_flows_canonicalise_to_one_key(self):
        original = build_linear_flow("one")
        renamed = build_linear_flow("two")
        rates = {"src": 1000.0}
        assert shared_structure_key(original, 0, rates) == shared_structure_key(
            renamed, 0, rates
        )

    def test_rates_split_keys(self):
        flow = build_linear_flow()
        assert shared_structure_key(flow, 0, {"src": 1.0}) != shared_structure_key(
            flow, 0, {"src": 2.0}
        )

    def test_cluster_splits_keys(self):
        flow = build_linear_flow()
        rates = {"src": 1.0}
        assert shared_structure_key(flow, 0, rates) != shared_structure_key(
            flow, 1, rates
        )

    def test_foreign_rate_names_are_ignored(self):
        # A rate for an operator the flow does not contain cannot affect
        # the encoding, so it must not split the cache key either.
        flow = build_linear_flow()
        assert shared_structure_key(flow, 0, {"src": 1.0}) == shared_structure_key(
            flow, 0, {"src": 1.0, "elsewhere": 9.0}
        )


def _renamed_query(query: StreamingQuery, name: str) -> StreamingQuery:
    """A structurally identical query under a different job name."""
    return dataclasses.replace(query, name=name, flow=query.flow.copy(name=name))


def _steps(outcome):
    return [
        [step.parallelisms for step in process.steps]
        for process in outcome.processes
    ]


class TestServiceSharing:
    def _query(self):
        return nexmark_query("q1", "flink")

    def _spec(self, query, seed=41):
        return CampaignSpec(
            query=query, multipliers=(3, 7), engine_seed=31, seed=seed
        )

    def test_identical_structures_share_distill_and_embed_entries(
        self, tiny_pretrained
    ):
        query = self._query()
        twin = _renamed_query(query, "q1_twin")
        service = TuningService(tiny_pretrained, backend="sequential")
        run_campaigns(service, [self._spec(query), self._spec(twin)])
        stats = service.cache_stats()
        # The twin's iterations hit the entries the first campaign built:
        # distinct job names, one cache entry per (structure, rates).
        assert stats["distill"]["hits"] >= stats["distill"]["misses"]
        assert stats["embed"]["hits"] >= stats["embed"]["misses"]
        assert stats["assign"]["hits"] >= 1

    def test_shared_rows_equal_per_query_rows(self, tiny_pretrained):
        # The renamed twin tuned *alongside* the original (warm shared
        # entries) must recommend exactly what it recommends when tuned
        # *alone* on cold caches — a cache hit is a recomputation.
        query = self._query()
        twin = _renamed_query(query, "q1_twin")
        alone = run_campaigns(
            TuningService(tiny_pretrained, backend="sequential"), [self._spec(twin)]
        )
        together = run_campaigns(
            TuningService(tiny_pretrained, backend="sequential"), [self._spec(query), self._spec(twin)]
        )
        assert _steps(together[1]) == _steps(alone[0])

    def test_shared_entries_are_bit_identical_values(self, tiny_pretrained):
        # Directly compare the shared cached values against fresh
        # recomputation for the renamed flow.
        from repro.core.finetune import agnostic_embeddings, distill_rows

        query = self._query()
        twin = _renamed_query(query, "q1_twin")
        cluster = tiny_pretrained.assign_cluster(query.flow)
        assert tiny_pretrained.assign_cluster(twin.flow) == cluster
        encoder = tiny_pretrained.encoders[cluster]
        rates = query.rates_at(3.0)
        twin_rates = twin.rates_at(3.0)
        shared = shared_structure_key(query.flow, cluster, rates)
        assert shared == shared_structure_key(twin.flow, cluster, twin_rates)
        np.testing.assert_array_equal(
            agnostic_embeddings(tiny_pretrained, encoder, query.flow, rates),
            agnostic_embeddings(tiny_pretrained, encoder, twin.flow, twin_rates),
        )
        ours = distill_rows(tiny_pretrained, encoder, query.flow, rates)
        theirs = distill_rows(tiny_pretrained, encoder, twin.flow, twin_rates)
        assert ours.labels == theirs.labels
        np.testing.assert_array_equal(
            np.stack(ours.features), np.stack(theirs.features)
        )


class TestSnapshotVersionBump:
    def test_v1_snapshots_are_rejected_by_name(self, tmp_path):
        # The key/value layout changed (structure-keyed sections, matrix-
        # only embed values), so v1 snapshots must be refused loudly.
        import pickle

        from repro.service.cache import SnapshotError, TuningCacheSet

        path = tmp_path / "old.pkl"
        payload = {
            "format": "repro.service.TuningCacheSet",
            "version": 1,
            "sections": {},
        }
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(SnapshotError, match="version 1"):
            TuningCacheSet.load(path)
