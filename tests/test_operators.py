"""Unit tests for the operator taxonomy (Table I) and spec validation."""

from __future__ import annotations

import pytest

from repro.dataflow.operators import (
    AggregateFunction,
    DataType,
    KeyClass,
    OperatorSpec,
    OperatorType,
    WindowPolicy,
    WindowType,
)


def make_spec(**overrides) -> OperatorSpec:
    base = dict(name="op", op_type=OperatorType.FILTER)
    base.update(overrides)
    return OperatorSpec(**base)


class TestValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            make_spec(name="")

    def test_negative_selectivity_rejected(self):
        with pytest.raises(ValueError, match="selectivity"):
            make_spec(selectivity=-0.1)

    def test_zero_cost_factor_rejected(self):
        with pytest.raises(ValueError, match="cost_factor"):
            make_spec(cost_factor=0.0)

    def test_window_requires_length(self):
        with pytest.raises(ValueError, match="window_length"):
            make_spec(
                op_type=OperatorType.WINDOW_AGGREGATE,
                window_type=WindowType.TUMBLING,
                window_length=0.0,
                aggregate_function=AggregateFunction.SUM,
            )

    def test_sliding_requires_slide(self):
        with pytest.raises(ValueError, match="sliding_length"):
            make_spec(
                op_type=OperatorType.WINDOW_AGGREGATE,
                window_type=WindowType.SLIDING,
                window_length=10.0,
                sliding_length=0.0,
                aggregate_function=AggregateFunction.SUM,
            )

    def test_aggregate_requires_function(self):
        with pytest.raises(ValueError, match="aggregate_function"):
            make_spec(op_type=OperatorType.AGGREGATE)

    def test_valid_window_aggregate(self):
        spec = make_spec(
            op_type=OperatorType.WINDOW_AGGREGATE,
            window_type=WindowType.SLIDING,
            window_policy=WindowPolicy.TIME,
            window_length=60.0,
            sliding_length=10.0,
            aggregate_function=AggregateFunction.AVG,
        )
        assert spec.is_stateful


class TestProperties:
    def test_source_flags(self):
        spec = make_spec(
            name="s", op_type=OperatorType.SOURCE, tuple_data_type=DataType.BID
        )
        assert spec.is_source and not spec.is_sink
        assert not spec.is_stateful

    def test_sink_flags(self):
        spec = make_spec(name="k", op_type=OperatorType.SINK)
        assert spec.is_sink and not spec.is_source

    @pytest.mark.parametrize(
        "op_type,stateful",
        [
            (OperatorType.MAP, False),
            (OperatorType.FLAT_MAP, False),
            (OperatorType.FILTER, False),
            (OperatorType.JOIN, True),
            (OperatorType.WINDOW_JOIN, True),
            (OperatorType.AGGREGATE, True),
            (OperatorType.WINDOW_AGGREGATE, True),
        ],
    )
    def test_statefulness_by_type(self, op_type, stateful):
        kwargs = {}
        if op_type in (OperatorType.AGGREGATE, OperatorType.WINDOW_AGGREGATE):
            kwargs["aggregate_function"] = AggregateFunction.SUM
        if op_type in (OperatorType.WINDOW_AGGREGATE, OperatorType.WINDOW_JOIN):
            kwargs["window_type"] = WindowType.TUMBLING
            kwargs["window_length"] = 10.0
        assert make_spec(op_type=op_type, **kwargs).is_stateful is stateful

    def test_structural_label_is_type(self):
        assert make_spec(op_type=OperatorType.JOIN, join_key_class=KeyClass.INT).structural_label() == "join"


class TestSerde:
    def test_round_trip_simple(self):
        spec = make_spec(selectivity=0.7, cost_factor=3.0)
        assert OperatorSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_windowed(self):
        spec = make_spec(
            op_type=OperatorType.WINDOW_JOIN,
            window_type=WindowType.SLIDING,
            window_policy=WindowPolicy.COUNT,
            window_length=120.0,
            sliding_length=30.0,
            join_key_class=KeyClass.STRING,
            tuple_width_in=96.0,
            tuple_width_out=192.0,
            tuple_data_type=DataType.JOINED,
        )
        assert OperatorSpec.from_dict(spec.to_dict()) == spec

    def test_dict_uses_plain_values(self):
        data = make_spec().to_dict()
        assert data["op_type"] == "filter"
        assert isinstance(data["window_length"], float)

    def test_frozen(self):
        spec = make_spec()
        with pytest.raises(AttributeError):
            spec.selectivity = 0.9
