"""Tests for similarity search, caching, similarity centers and k-means."""

from __future__ import annotations

import pytest

from repro.clustering.center import appearance_counts, similarity_center
from repro.clustering.elbow import choose_k_elbow
from repro.clustering.kmeans import GEDKMeans
from repro.ged.exact import exact_ged
from repro.ged.search import GEDCache, similarity_search
from repro.workloads.nexmark import nexmark_queries
from repro.workloads.pqp import pqp_query_set


@pytest.fixture(scope="module")
def flows():
    queries = nexmark_queries("flink") + [
        q for qs in pqp_query_set().values() for q in qs
    ]
    return [q.flow for q in queries]


class TestSimilaritySearch:
    def test_matches_brute_force(self, flows):
        query = flows[0]
        dataset = flows[:20]
        expected = [
            i for i, g in enumerate(dataset) if exact_ged(query, g) <= 5.0
        ]
        assert similarity_search(query, dataset, 5.0) == expected

    def test_lsa_and_direct_agree(self, flows):
        query = flows[10]
        dataset = flows[:15]
        assert similarity_search(query, dataset, 4.0, use_lsa=True) == (
            similarity_search(query, dataset, 4.0, use_lsa=False)
        )

    def test_zero_threshold_finds_structural_twins(self, flows):
        query = flows[0]
        matches = similarity_search(query, flows, 0.0)
        for index in matches:
            assert (
                flows[index].structural_signature()
                == query.structural_signature()
            )

    def test_negative_threshold_rejected(self, flows):
        with pytest.raises(ValueError):
            similarity_search(flows[0], flows, -1.0)


class TestGEDCache:
    def test_distance_cached(self, flows):
        cache = GEDCache()
        a = cache.distance(flows[0], flows[1])
        misses = cache.misses
        b = cache.distance(flows[1], flows[0])   # symmetric lookup
        assert a == b
        assert cache.misses == misses
        assert cache.hits >= 1

    def test_within_consistent_with_distance(self, flows):
        cache = GEDCache()
        d = cache.distance(flows[2], flows[7])
        assert cache.within(flows[2], flows[7], d)
        assert not cache.within(flows[2], flows[7], d - 0.5)

    def test_pruned_verification_records_lower_bound(self, flows):
        cache = GEDCache()
        assert not cache.within(flows[0], flows[30], 0.5)
        # Re-verifying below the recorded bound is a cache hit.
        hits = cache.hits
        assert not cache.within(flows[0], flows[30], 0.25)
        assert cache.hits == hits + 1


class TestSimilarityCenter:
    def test_counts_match_definition(self, flows):
        cluster = flows[:10]
        counts = appearance_counts(cluster, tau=5.0)
        for g_index, graph in enumerate(cluster):
            expected = sum(
                1 for other in cluster if exact_ged(other, graph) <= 5.0
            )
            assert counts[g_index] == expected

    def test_center_maximises_count(self, flows):
        cluster = flows[:10]
        counts = appearance_counts(cluster, tau=5.0)
        center = similarity_center(cluster, tau=5.0)
        assert counts[center] == max(counts)

    def test_weights_shift_center(self, flows):
        # Put overwhelming weight behind the last member's neighbourhood.
        cluster = [flows[0], flows[1], flows[40], flows[41], flows[42]]
        weights = [1.0, 1.0, 100.0, 100.0, 100.0]
        weighted_center = similarity_center(cluster, tau=5.0, weights=weights)
        assert weighted_center >= 2

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            similarity_center([])

    def test_lsa_and_direct_centers_agree(self, flows):
        cluster = flows[5:20]
        assert similarity_center(cluster, use_lsa=True) == similarity_center(
            cluster, use_lsa=False
        )


class TestGEDKMeans:
    def test_assignments_cover_all_inputs(self, flows):
        result = GEDKMeans(3, seed=2).fit(flows[:30])
        assert len(result.assignments) == 30
        assert set(result.assignments) <= set(range(result.n_clusters))

    def test_members_partition(self, flows):
        result = GEDKMeans(3, seed=2).fit(flows[:30])
        all_members = sorted(
            i for c in range(result.n_clusters) for i in result.members(c)
        )
        assert all_members == list(range(30))

    def test_deterministic_with_seed(self, flows):
        a = GEDKMeans(3, seed=9).fit(flows[:25])
        b = GEDKMeans(3, seed=9).fit(flows[:25])
        assert a.assignments == b.assignments

    def test_assigned_center_is_nearest(self, flows):
        result = GEDKMeans(3, seed=2).fit(flows[:30])
        cache = result.cache
        for index, cluster in enumerate(result.assignments):
            own = cache.distance(flows[index], result.center_graphs[cluster])
            for other in range(result.n_clusters):
                assert own <= cache.distance(
                    flows[index], result.center_graphs[other]
                ) + 1e-9

    def test_predict_matches_training_assignment_for_duplicates(self, flows):
        result = GEDKMeans(3, seed=2).fit(flows[:30])
        # A structural twin of a training graph lands in its cluster.
        predicted = result.predict(flows[0].copy("twin"))
        assert predicted == result.assignments[0]

    def test_single_cluster_bypass(self, flows):
        result = GEDKMeans(1, seed=2).fit(flows[:20])
        assert result.n_clusters == 1
        assert set(result.assignments) == {0}

    def test_k_larger_than_uniques_shrinks(self, flows):
        result = GEDKMeans(10, seed=2).fit(flows[:4])
        assert result.n_clusters <= 4

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            GEDKMeans(0)
        with pytest.raises(ValueError):
            GEDKMeans(2).fit([])

    def test_duplicates_share_assignment(self, flows):
        doubled = flows[:10] + [f.copy(f"{f.name}_dup") for f in flows[:10]]
        result = GEDKMeans(3, seed=2).fit(doubled)
        for i in range(10):
            assert result.assignments[i] == result.assignments[10 + i]


class TestElbow:
    def test_returns_valid_k(self, flows):
        k, curve = choose_k_elbow(flows[:25], k_max=5, seed=3)
        assert 1 <= k <= 5
        assert len(curve) == 5

    def test_invalid_k_max(self, flows):
        with pytest.raises(ValueError):
            choose_k_elbow(flows[:5], k_max=0)

    def test_handles_tiny_datasets(self, flows):
        k, curve = choose_k_elbow(flows[:2], k_max=6, seed=3)
        assert k <= 2
