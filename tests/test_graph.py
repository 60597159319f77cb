"""Unit tests for the logical dataflow DAG."""

from __future__ import annotations

import pytest

from repro.dataflow.graph import DataflowError, LogicalDataflow
from repro.dataflow.operators import OperatorSpec, OperatorType
from tests.conftest import build_diamond_flow, build_linear_flow


def op(name: str, kind: OperatorType = OperatorType.MAP) -> OperatorSpec:
    return OperatorSpec(name=name, op_type=kind)


class TestConstruction:
    def test_duplicate_operator_rejected(self):
        flow = LogicalDataflow("f")
        flow.add_operator(op("a"))
        with pytest.raises(DataflowError, match="duplicate"):
            flow.add_operator(op("a"))

    def test_unknown_edge_endpoint_rejected(self):
        flow = LogicalDataflow("f")
        flow.add_operator(op("a"))
        with pytest.raises(DataflowError, match="unknown"):
            flow.connect("a", "b")

    def test_self_loop_rejected(self):
        flow = LogicalDataflow("f")
        flow.add_operator(op("a"))
        with pytest.raises(DataflowError, match="self-loop"):
            flow.connect("a", "a")

    def test_duplicate_edge_rejected(self):
        flow = LogicalDataflow("f")
        flow.add_operator(op("a"))
        flow.add_operator(op("b"))
        flow.connect("a", "b")
        with pytest.raises(DataflowError, match="duplicate edge"):
            flow.connect("a", "b")

    def test_empty_name_rejected(self):
        with pytest.raises(DataflowError):
            LogicalDataflow("")

    def test_chain_builds_pipeline(self):
        flow = LogicalDataflow("f")
        flow.chain(
            op("s", OperatorType.SOURCE), op("m"), op("k", OperatorType.SINK)
        )
        assert flow.edges == [("s", "m"), ("m", "k")]


class TestTraversal:
    def test_topological_order_respects_edges(self, diamond_flow):
        order = diamond_flow.topological_order()
        position = {name: i for i, name in enumerate(order)}
        for u, v in diamond_flow.edges:
            assert position[u] < position[v]

    def test_cycle_detected(self):
        flow = LogicalDataflow("f")
        flow.add_operator(op("a", OperatorType.SOURCE))
        flow.add_operator(op("b"))
        flow.add_operator(op("c"))
        flow.connect("a", "b")
        flow.connect("b", "c")
        flow._succ["c"].append("b")   # force a cycle past the guard
        flow._pred["b"].append("c")
        with pytest.raises(DataflowError, match="cycle"):
            flow.topological_order()

    def test_ancestors_and_descendants(self, diamond_flow):
        assert diamond_flow.ancestors("join") == {"src", "left", "right"}
        assert diamond_flow.descendants("src") == {"left", "right", "join", "sink"}
        assert diamond_flow.ancestors("src") == set()
        assert diamond_flow.descendants("sink") == set()

    def test_upstream_downstream(self, diamond_flow):
        assert set(diamond_flow.upstream("join")) == {"left", "right"}
        assert diamond_flow.downstream("src") == ["left", "right"]

    def test_sources(self, diamond_flow):
        assert diamond_flow.sources() == ["src"]


class TestValidation:
    def test_empty_flow_invalid(self):
        with pytest.raises(DataflowError, match="empty"):
            LogicalDataflow("f").validate()

    def test_disconnected_flow_invalid(self):
        flow = LogicalDataflow("f")
        flow.add_operator(op("s", OperatorType.SOURCE))
        flow.add_operator(op("island"))
        with pytest.raises(DataflowError, match="connected"):
            flow.validate()

    def test_no_source_invalid(self):
        flow = LogicalDataflow("f")
        flow.add_operator(op("a"))
        flow.add_operator(op("b"))
        flow.connect("a", "b")
        with pytest.raises(DataflowError, match="source"):
            flow.validate()

    def test_source_with_upstream_invalid(self):
        flow = LogicalDataflow("f")
        flow.add_operator(op("s1", OperatorType.SOURCE))
        flow.add_operator(op("s2", OperatorType.SOURCE))
        flow.connect("s1", "s2")
        with pytest.raises(DataflowError, match="upstream"):
            flow.validate()

    def test_sink_with_downstream_invalid(self):
        flow = LogicalDataflow("f")
        flow.add_operator(op("s", OperatorType.SOURCE))
        flow.add_operator(op("k", OperatorType.SINK))
        flow.add_operator(op("m"))
        flow.connect("s", "k")
        flow.connect("k", "m")
        with pytest.raises(DataflowError, match="downstream"):
            flow.validate()

    def test_valid_flow_passes(self, linear_flow, diamond_flow, window_flow):
        linear_flow.validate()
        diamond_flow.validate()
        window_flow.validate()


class TestStructure:
    def test_signature_identical_for_renamed_copy(self):
        a = build_linear_flow("one")
        b = build_linear_flow("two")
        assert a.structural_signature() == b.structural_signature()

    def test_signature_distinguishes_structures(self):
        assert (
            build_linear_flow().structural_signature()
            != build_diamond_flow().structural_signature()
        )

    def test_copy_is_equal_but_independent(self, diamond_flow):
        clone = diamond_flow.copy("clone")
        assert clone.structural_signature() == diamond_flow.structural_signature()
        clone.add_operator(op("extra"))
        assert "extra" not in diamond_flow

    @pytest.mark.parametrize("method", ["structural_signature", "tuning_signature"])
    def test_signature_memo_refreshes_on_growth(self, method):
        flow = build_linear_flow()

        def fresh() -> str:
            return getattr(LogicalDataflow.from_dict(flow.to_dict()), method)()

        first = getattr(flow, method)()
        assert getattr(flow, method)() == first == fresh()
        flow.add_operator(op("extra"))
        grown = getattr(flow, method)()
        assert grown != first and grown == fresh()
        flow.connect("filter", "extra")
        connected = getattr(flow, method)()
        assert connected != grown and connected == fresh()

    def test_serde_round_trip(self, diamond_flow):
        restored = LogicalDataflow.from_dict(diamond_flow.to_dict())
        assert restored.structural_signature() == diamond_flow.structural_signature()
        assert restored.operator("join").selectivity == 0.5

    def test_len_contains_iter(self, linear_flow):
        assert len(linear_flow) == 3
        assert "filter" in linear_flow
        assert {s.name for s in linear_flow} == {"src", "filter", "sink"}
