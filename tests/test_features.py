"""Unit tests for feature encoding (Table I + dynamic source rate)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.dataflow.features import FeatureEncoder, RATE_ENCODING_FREQUENCIES
from repro.dataflow.operators import (
    AggregateFunction,
    DataType,
    KeyClass,
    OperatorSpec,
    OperatorType,
    WindowPolicy,
    WindowType,
)
from tests.conftest import build_diamond_flow, build_linear_flow, feature_dimension


@pytest.fixture
def encoder() -> FeatureEncoder:
    return FeatureEncoder()


class TestDimension:
    def test_dimension_matches_encoding(self, encoder):
        spec = OperatorSpec(name="x", op_type=OperatorType.MAP)
        assert len(encoder.encode_operator(spec)) == feature_dimension(encoder)

    def test_dimension_counts_rate_sinusoids(self, encoder):
        spec = OperatorSpec(name="x", op_type=OperatorType.MAP)
        vector = encoder.encode_operator(spec, source_rate=0.0)
        sinusoid_count = 2 * len(RATE_ENCODING_FREQUENCIES)
        assert np.allclose(vector[-sinusoid_count:], 0.0)

    def test_invalid_ceilings_rejected(self):
        with pytest.raises(ValueError):
            FeatureEncoder(max_source_rate=0.0)


class TestCategoricalEncoding:
    def test_one_hot_operator_type(self, encoder):
        a = encoder.encode_operator(OperatorSpec(name="a", op_type=OperatorType.MAP))
        b = encoder.encode_operator(OperatorSpec(name="b", op_type=OperatorType.FILTER))
        type_slice = slice(0, len(OperatorType))
        assert a[type_slice].sum() == 1.0
        assert b[type_slice].sum() == 1.0
        assert not np.array_equal(a[type_slice], b[type_slice])

    def test_window_config_changes_encoding(self, encoder):
        plain = OperatorSpec(name="p", op_type=OperatorType.WINDOW_AGGREGATE,
                             window_type=WindowType.TUMBLING, window_length=60.0,
                             window_policy=WindowPolicy.TIME,
                             aggregate_function=AggregateFunction.SUM)
        sliding = OperatorSpec(name="s", op_type=OperatorType.WINDOW_AGGREGATE,
                               window_type=WindowType.SLIDING, window_length=60.0,
                               sliding_length=10.0, window_policy=WindowPolicy.TIME,
                               aggregate_function=AggregateFunction.SUM)
        assert not np.array_equal(
            encoder.encode_operator(plain), encoder.encode_operator(sliding)
        )

    def test_all_key_classes_distinct(self, encoder):
        vectors = []
        for key_class in KeyClass:
            spec = OperatorSpec(name="j", op_type=OperatorType.JOIN, join_key_class=key_class)
            vectors.append(tuple(encoder.encode_operator(spec)))
        assert len(set(vectors)) == len(KeyClass)


class TestNumericEncoding:
    def test_values_bounded(self, encoder):
        spec = OperatorSpec(
            name="w",
            op_type=OperatorType.WINDOW_JOIN,
            window_type=WindowType.SLIDING,
            window_length=1e9,          # beyond the ceiling
            sliding_length=1e8,
            join_key_class=KeyClass.INT,
            tuple_width_in=1e6,
            tuple_width_out=1e6,
        )
        vector = encoder.encode_operator(spec, source_rate=1e12)
        assert np.all(vector <= 1.0) and np.all(vector >= -1.0)

    def test_rate_scaling_monotone(self, encoder):
        spec = OperatorSpec(name="s", op_type=OperatorType.SOURCE)
        rate_index = feature_dimension(encoder) - 1 - 2 * len(RATE_ENCODING_FREQUENCIES)
        values = [
            encoder.encode_operator(spec, source_rate=r)[rate_index]
            for r in (0.0, 1e3, 1e5, 1e7)
        ]
        assert values == sorted(values)

    def test_rate_sinusoids_resolve_small_multiples(self, encoder):
        """3 x Wu and 10 x Wu must be clearly separable (the tuning band)."""
        spec = OperatorSpec(name="s", op_type=OperatorType.SOURCE)
        low = encoder.encode_operator(spec, source_rate=3 * 80_000)
        high = encoder.encode_operator(spec, source_rate=10 * 80_000)
        assert np.linalg.norm(low - high) > 0.5


class TestDataflowEncoding:
    def test_topological_row_order(self, encoder):
        flow = build_diamond_flow()
        matrix, order = encoder.encode_dataflow(flow, {"src": 1000.0})
        assert order == flow.topological_order()
        assert matrix.shape == (len(flow), feature_dimension(encoder))

    def test_rate_feature_on_source_and_first_level(self, encoder):
        flow = build_diamond_flow()
        matrix, order = encoder.encode_dataflow(flow, {"src": 5e5})
        rate_index = feature_dimension(encoder) - 1 - 2 * len(RATE_ENCODING_FREQUENCIES)
        by_name = dict(zip(order, matrix))
        assert by_name["src"][rate_index] > 0
        assert by_name["left"][rate_index] > 0     # first-level downstream
        assert by_name["right"][rate_index] > 0
        assert by_name["join"][rate_index] == 0.0  # deeper operators: zero
        assert by_name["sink"][rate_index] == 0.0

    def test_missing_rate_defaults_to_zero(self, encoder):
        flow = build_linear_flow()
        matrix, order = encoder.encode_dataflow(flow, {})
        rate_index = feature_dimension(encoder) - 1 - 2 * len(RATE_ENCODING_FREQUENCIES)
        assert matrix[order.index("src")][rate_index] == 0.0


class TestParallelismNormalisation:
    def test_monotone(self, encoder):
        values = [encoder.normalize_parallelism(p, 100) for p in range(1, 101)]
        assert values == sorted(values)
        assert len(set(values)) == 100

    def test_bounds(self, encoder):
        assert encoder.normalize_parallelism(0, 100) == 0.0
        assert encoder.normalize_parallelism(100, 100) == 1.0
        assert encoder.normalize_parallelism(1000, 100) == 1.0

    def test_log_shape(self, encoder):
        """Low degrees get more resolution than high degrees."""
        low_gap = encoder.normalize_parallelism(2, 100) - encoder.normalize_parallelism(1, 100)
        high_gap = encoder.normalize_parallelism(100, 100) - encoder.normalize_parallelism(99, 100)
        assert low_gap > high_gap

    def test_invalid_max_rejected(self, encoder):
        with pytest.raises(ValueError):
            encoder.normalize_parallelism(1, 0)
