"""Tests for GED lower bounds and the prefilter they make.

The critical invariant:  lower bound <= exact GED, for every pair —
exercised against exact values on small random DAGs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.graph import LogicalDataflow
from repro.dataflow.operators import OperatorSpec, OperatorType
from repro.ged import (
    GEDCache,
    combined_bound,
    degree_sequence_bound,
    exact_ged,
    label_multiset_bound,
    similarity_search,
)
from repro.ged.view import as_view
from repro.utils.rng import seeded_rng

_CHAINABLE = [
    OperatorType.MAP,
    OperatorType.FLAT_MAP,
    OperatorType.FILTER,
    OperatorType.AGGREGATE,
]


def random_chain_flow(seed: int, max_middle: int = 4) -> LogicalDataflow:
    """source -> 1..max_middle random middle operators -> sink."""
    rng = seeded_rng(seed)
    flow = LogicalDataflow(f"rand_{seed}")
    middle = [
        OperatorSpec(
            name=f"op{i}",
            op_type=_CHAINABLE[int(rng.integers(len(_CHAINABLE)))],
            aggregate_function=__import__(
                "repro.dataflow.operators", fromlist=["AggregateFunction"]
            ).AggregateFunction.SUM,
        )
        for i in range(1 + int(rng.integers(max_middle)))
    ]
    flow.chain(
        OperatorSpec(name="src", op_type=OperatorType.SOURCE),
        *middle,
        OperatorSpec(name="sink", op_type=OperatorType.SINK),
    )
    flow.validate()
    return flow


class TestLowerBounds:
    def test_zero_on_identical_graphs(self, linear_flow):
        view = as_view(linear_flow)
        assert label_multiset_bound(view, view) == 0.0
        assert degree_sequence_bound(view, view) == 0.0
        assert combined_bound(linear_flow, linear_flow) == 0.0

    def test_label_bound_counts_substitutions(self, linear_flow, window_flow):
        bound = label_multiset_bound(as_view(linear_flow), as_view(window_flow))
        assert bound > 0

    def test_degree_bound_sees_structural_difference(self, linear_flow, diamond_flow):
        bound = degree_sequence_bound(as_view(linear_flow), as_view(diamond_flow))
        assert bound > 0

    @pytest.mark.parametrize("seed_pair", [(1, 2), (3, 9), (5, 11), (7, 20), (13, 4)])
    def test_bounds_are_admissible(self, seed_pair):
        a = random_chain_flow(seed_pair[0])
        b = random_chain_flow(seed_pair[1])
        exact = exact_ged(a, b)
        assert label_multiset_bound(as_view(a), as_view(b)) <= exact + 1e-9
        assert degree_sequence_bound(as_view(a), as_view(b)) <= exact + 1e-9
        assert combined_bound(a, b) <= exact + 1e-9

    def test_bounds_are_symmetric(self, linear_flow, diamond_flow):
        forward = combined_bound(linear_flow, diamond_flow)
        backward = combined_bound(diamond_flow, linear_flow)
        assert forward == pytest.approx(backward)


class TestPrefilter:
    def test_rejections_are_sound(self, linear_flow):
        dataset = [random_chain_flow(seed) for seed in range(8)]
        tau = 3.0
        survivors = {
            index for index, graph in enumerate(dataset)
            if combined_bound(linear_flow, graph) <= tau + 1e-9
        }
        for index, graph in enumerate(dataset):
            if index not in survivors:
                assert exact_ged(linear_flow, graph) > tau

    def test_prefiltered_search_equals_plain_search(self, linear_flow):
        dataset = [random_chain_flow(seed) for seed in range(10)]
        tau = 4.0
        plain = similarity_search(linear_flow, dataset, tau)
        # A cache verifies only what the bounds do not already rule out.
        filtered = similarity_search(linear_flow, dataset, tau, cache=GEDCache())
        assert plain == filtered

    def test_negative_threshold_rejected(self, linear_flow):
        with pytest.raises(ValueError):
            similarity_search(linear_flow, [linear_flow], -1.0)


@settings(max_examples=20, deadline=None)
@given(
    seed_a=st.integers(min_value=0, max_value=60),
    seed_b=st.integers(min_value=0, max_value=60),
)
def test_bound_sandwich_property(seed_a, seed_b):
    """lower bound <= exact, on arbitrary DAG pairs."""
    a = random_chain_flow(seed_a, max_middle=3)
    b = random_chain_flow(seed_b, max_middle=3)
    exact = exact_ged(a, b)
    assert combined_bound(a, b) <= exact + 1e-9
