"""Unit and property tests for graph edit distance."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataflow.graph import LogicalDataflow
from repro.dataflow.operators import OperatorSpec, OperatorType
from repro.ged import costs
from repro.ged.astar_lsa import astar_lsa_ged
from repro.ged.exact import exact_ged
from repro.ged.view import GraphView, as_view
from tests.conftest import build_diamond_flow, build_linear_flow


def chain_flow(name: str, *types: OperatorType) -> LogicalDataflow:
    flow = LogicalDataflow(name)
    specs = [OperatorSpec(name=f"n{i}", op_type=t) for i, t in enumerate(types)]
    flow.chain(*specs)
    return flow


SRC, MAP, FIL, SNK = (
    OperatorType.SOURCE,
    OperatorType.MAP,
    OperatorType.FILTER,
    OperatorType.SINK,
)


# A small strategy over random labelled DAGs (<= 6 nodes).
@st.composite
def small_dags(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    types = [SRC] + [
        draw(st.sampled_from([MAP, FIL, OperatorType.JOIN, SNK]))
        for _ in range(n - 1)
    ]
    flow = LogicalDataflow(f"dag{draw(st.integers(0, 10**6))}")
    for i, t in enumerate(types):
        flow.add_operator(OperatorSpec(name=f"n{i}", op_type=t))
    for v in range(1, n):
        # each node gets at least one upstream parent to keep things dag-ish
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        flow.connect(f"n{parent}", f"n{v}")
        if v >= 2 and draw(st.booleans()):
            extra = draw(st.integers(min_value=0, max_value=v - 1))
            if extra != parent:
                flow.connect(f"n{extra}", f"n{v}")
    return flow


class TestBasicProperties:
    def test_identity_zero(self):
        flow = chain_flow("a", SRC, MAP, SNK)
        assert exact_ged(flow, flow) == 0.0

    def test_renamed_copy_zero(self):
        a = chain_flow("a", SRC, FIL, SNK)
        b = LogicalDataflow("b")
        b.chain(
            OperatorSpec(name="x", op_type=SRC),
            OperatorSpec(name="y", op_type=FIL),
            OperatorSpec(name="z", op_type=SNK),
        )
        assert exact_ged(a, b) == 0.0

    def test_single_substitution(self):
        a = chain_flow("a", SRC, MAP, SNK)
        b = chain_flow("b", SRC, FIL, SNK)
        assert exact_ged(a, b) == 1.0

    def test_node_insertion(self):
        a = chain_flow("a", SRC, SNK)
        b = chain_flow("b", SRC, MAP, SNK)
        # Optimal script: relabel a's sink to map (1), insert a new sink
        # node (1), insert the map->sink edge (1); a's src->snk edge maps
        # onto b's src->map edge for free.  Total 3.
        assert exact_ged(a, b) == 3.0

    def test_edge_direction_modification_cheaper_than_delete_insert(self):
        a = LogicalDataflow("a")
        a.add_operator(OperatorSpec(name="s", op_type=SRC))
        a.add_operator(OperatorSpec(name="m", op_type=MAP))
        a.connect("s", "m")
        b = LogicalDataflow("b")
        b.add_operator(OperatorSpec(name="s", op_type=SRC))
        b.add_operator(OperatorSpec(name="m", op_type=MAP))
        b.connect("m", "s")
        # same labels, single edge reversed: one direction modification.
        assert exact_ged(a, b) == 1.0

    def test_costs_validation(self):
        """Every cost is positive, and a reversal is never dearer than the
        delete + insert it replaces (else it is never optimal)."""
        values = (
            costs.NODE_INSERT, costs.NODE_DELETE, costs.NODE_SUBSTITUTE,
            costs.EDGE_INSERT, costs.EDGE_DELETE, costs.EDGE_REVERSE,
        )
        assert all(value > 0 for value in values)
        assert costs.EDGE_REVERSE <= costs.EDGE_INSERT + costs.EDGE_DELETE

    def test_edge_pair_cost_matrix(self):
        assert costs.edge_pair_cost(0, 0) == 0.0
        assert costs.edge_pair_cost(1, 1) == 0.0
        assert costs.edge_pair_cost(-1, -1) == 0.0
        assert costs.edge_pair_cost(0, 1) == costs.EDGE_INSERT
        assert costs.edge_pair_cost(1, 0) == costs.EDGE_DELETE
        assert costs.edge_pair_cost(1, -1) == costs.EDGE_REVERSE


class TestAgreementAndBounds:
    @settings(max_examples=25, deadline=None)
    @given(small_dags(), small_dags(), st.floats(min_value=0.0, max_value=8.0))
    def test_exact_equals_lsa(self, a, b, threshold):
        exact = exact_ged(a, b)
        assert astar_lsa_ged(a, b) == exact
        verified = astar_lsa_ged(a, b, threshold=threshold)
        assert (verified is not None) == (exact <= threshold + 1e-9)
        assert verified in (None, exact)

    @settings(max_examples=25, deadline=None)
    @given(small_dags(), small_dags())
    def test_symmetry(self, a, b):
        assert exact_ged(a, b) == pytest.approx(exact_ged(b, a))

    @settings(max_examples=15, deadline=None)
    @given(small_dags(), small_dags(), small_dags())
    def test_triangle_inequality(self, a, b, c):
        ab = astar_lsa_ged(a, b)
        bc = astar_lsa_ged(b, c)
        ac = astar_lsa_ged(a, c)
        assert ac <= ab + bc + 1e-9

    def test_corpus_pairs_agree(self, corpus):
        flows = [q.flow for q in corpus[:12]]
        for f1, f2 in itertools.islice(itertools.combinations(flows, 2), 20):
            assert exact_ged(f1, f2) == pytest.approx(astar_lsa_ged(f1, f2))


class TestThresholdVerification:
    def test_true_at_exact_distance(self):
        a = chain_flow("a", SRC, MAP, SNK)
        b = chain_flow("b", SRC, FIL, FIL, SNK)
        distance = exact_ged(a, b)
        assert astar_lsa_ged(a, b, threshold=distance) == pytest.approx(distance)
        assert astar_lsa_ged(a, b, threshold=distance - 0.5) is None

    def test_threshold_search_returns_none_above(self):
        a = chain_flow("a", SRC, MAP, SNK)
        b = build_diamond_flow()
        distance = exact_ged(a, b)
        assert astar_lsa_ged(a, b, threshold=distance - 1) is None

    def test_zero_threshold_identity(self):
        a = chain_flow("a", SRC, MAP, SNK)
        assert astar_lsa_ged(a, a, threshold=0.0) == 0.0


class TestSearchMechanics:
    def test_view_caches_per_object(self):
        flow = build_linear_flow()
        assert as_view(flow) is as_view(flow)

    def test_view_structure(self):
        view = GraphView.from_dataflow(build_diamond_flow())
        assert view.n_nodes == 5
        assert view.n_edges == 5
        assert view.direction(0, 1) in (-1, 1)
        assert view.direction(0, 4) == 0  # src and sink not adjacent
        assert view.label_counts == {"source": 1, "filter": 2, "join": 1, "sink": 1}
        assert view.degrees == (3, 2, 2, 2, 1)
