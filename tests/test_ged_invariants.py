"""GED invariants: identity, cross-algorithm symmetry, cache bit-identity."""

from __future__ import annotations

import pytest

from repro.ged import GEDCache, astar_lsa_ged, exact_ged
from repro.service.cache import SharedGEDCache
from tests.conftest import build_diamond_flow, build_linear_flow, build_window_flow


FLOWS = {
    "linear": build_linear_flow,
    "diamond": build_diamond_flow,
    "window": build_window_flow,
}
ALGORITHMS = {
    "exact": exact_ged,
    "astar_lsa": astar_lsa_ged,
}


class TestIdentity:
    @pytest.mark.parametrize("flow_name", sorted(FLOWS))
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_self_distance_is_zero(self, flow_name, algorithm):
        flow = FLOWS[flow_name]()
        assert ALGORITHMS[algorithm](flow, flow) == 0.0

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_structural_copy_distance_is_zero(self, algorithm):
        # Same structure under different operator names is still identity.
        a = build_linear_flow("left_name")
        b = build_linear_flow("right_name")
        assert ALGORITHMS[algorithm](a, b) == 0.0


class TestSymmetry:
    PAIRS = [("linear", "diamond"), ("linear", "window"), ("diamond", "window")]

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_symmetric(self, pair, algorithm):
        a, b = FLOWS[pair[0]](), FLOWS[pair[1]]()
        forward = ALGORITHMS[algorithm](a, b)
        backward = ALGORITHMS[algorithm](b, a)
        assert forward == pytest.approx(backward)

    @pytest.mark.parametrize("pair", PAIRS)
    def test_algorithms_agree_on_small_graphs(self, pair):
        a, b = FLOWS[pair[0]](), FLOWS[pair[1]]()
        exact = exact_ged(a, b)
        assert astar_lsa_ged(a, b) == pytest.approx(exact)


class TestCacheBitIdentity:
    def test_ged_cache_hit_equals_cold_computation(self):
        a, b = build_linear_flow(), build_diamond_flow()
        cache = GEDCache()
        cold = cache.distance(a, b)
        assert cache.misses == 1
        warm = cache.distance(a, b)
        assert cache.hits == 1
        # Bit-identical, not approximately equal.
        assert warm == cold
        assert astar_lsa_ged(a, b) == cold

    def test_shared_cache_matches_plain_cache(self):
        flows = [build_linear_flow(), build_diamond_flow(), build_window_flow()]
        plain, shared = GEDCache(), SharedGEDCache()
        for x in flows:
            for y in flows:
                assert shared.distance(x, y) == plain.distance(x, y)
        # Second sweep is all hits and returns the same bits.
        before = shared.misses
        for x in flows:
            for y in flows:
                assert shared.distance(x, y) == plain.distance(x, y)
        assert shared.misses == before

    @pytest.mark.parametrize("cache_class", [GEDCache, SharedGEDCache])
    def test_failed_verification_caches_an_admissible_bound(self, corpus, cache_class):
        # GED 6.0, and the cheap bound (5.0) sends both thresholds to search.
        a, b = corpus[0].flow, corpus[18].flow
        assert exact_ged(a, b) == 6.0
        cache = cache_class()
        assert not cache.within(a, b, 5.5)
        # The failed search proves only ged > 5.5: a looser threshold must
        # still be verified, as on a fresh cache.
        assert cache.within(a, b, 6.2)
        assert not cache.within(a, b, 5.5)

    def test_shared_cache_within_agrees_with_distance(self):
        a, b = build_linear_flow(), build_window_flow()
        shared = SharedGEDCache()
        distance = shared.distance(a, b)
        assert shared.within(a, b, distance)
        assert not shared.within(a, b, distance - 1.0)
        assert shared.within(a, a, 0.0)
