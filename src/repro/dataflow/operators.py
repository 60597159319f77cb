"""Streaming operator taxonomy and static features (paper Table I).

An :class:`OperatorSpec` carries

* the *static* features of Table I (operator type, window configuration,
  join/aggregate key classes, tuple widths, tuple data type), which the
  paper treats as transferable, context-independent inputs to the GNN; and
* *ground-truth* execution parameters (selectivity, cost multiplier) that
  only the engine simulator reads.  Tuners and learned models never see
  these directly — they are the simulator's hidden truth, standing in for
  the physical behaviour of a real Flink/Timely operator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class OperatorType(enum.Enum):
    """Logical operator kinds appearing in Nexmark and PQP queries."""

    SOURCE = "source"
    MAP = "map"
    FLAT_MAP = "flat_map"
    FILTER = "filter"
    JOIN = "join"                       # incremental (record-at-a-time) join
    WINDOW_JOIN = "window_join"
    AGGREGATE = "aggregate"             # running (unwindowed) aggregate
    WINDOW_AGGREGATE = "window_aggregate"
    SINK = "sink"


class WindowType(enum.Enum):
    """Window shifting strategy (Table I: tumbling / sliding)."""

    NONE = "none"
    TUMBLING = "tumbling"
    SLIDING = "sliding"


class WindowPolicy(enum.Enum):
    """Windowing strategy (Table I: count-based / time-based)."""

    NONE = "none"
    COUNT = "count"
    TIME = "time"


class KeyClass(enum.Enum):
    """Data type of a join or aggregation key (Table I)."""

    NONE = "none"
    INT = "int"
    LONG = "long"
    STRING = "string"


class AggregateFunction(enum.Enum):
    """Aggregation function (Table I: e.g. min, avg)."""

    NONE = "none"
    MIN = "min"
    MAX = "max"
    AVG = "avg"
    SUM = "sum"
    COUNT = "count"


class DataType(enum.Enum):
    """Type of tuple flowing on the operator's output (Table I)."""

    GENERIC = "generic"
    BID = "bid"
    AUCTION = "auction"
    PERSON = "person"
    JOINED = "joined"
    AGGREGATED = "aggregated"


# Operator types that carry aggregation configuration.
AGGREGATING_TYPES = frozenset({OperatorType.AGGREGATE, OperatorType.WINDOW_AGGREGATE})

# Operator types that carry a join key.
JOINING_TYPES = frozenset({OperatorType.JOIN, OperatorType.WINDOW_JOIN})


@dataclass(frozen=True)
class OperatorSpec:
    """A logical dataflow operator with Table I static features.

    Parameters
    ----------
    name:
        Unique operator name within its dataflow.
    op_type:
        Kind of computation (see :class:`OperatorType`).
    window_type / window_policy / window_length / sliding_length:
        Window configuration; only meaningful for windowed operator types.
    join_key_class:
        Join key data type for (window) joins.
    aggregate_class / aggregate_key_class / aggregate_function:
        Aggregation configuration for (window) aggregates.
    tuple_width_in / tuple_width_out:
        Input/output tuple widths in bytes.
    tuple_data_type:
        Type of tuple the operator emits.
    selectivity:
        Ground-truth output/input rate ratio (hidden from tuners).  Sources
        use 1.0; filters < 1.0; flat-maps may exceed 1.0; window aggregates
        compress heavily.
    cost_factor:
        Ground-truth multiplier on the per-record CPU cost of the operator
        type (hidden from tuners); models e.g. an expensive UDF.
    """

    name: str
    op_type: OperatorType
    window_type: WindowType = WindowType.NONE
    window_policy: WindowPolicy = WindowPolicy.NONE
    window_length: float = 0.0
    sliding_length: float = 0.0
    join_key_class: KeyClass = KeyClass.NONE
    aggregate_class: KeyClass = KeyClass.NONE
    aggregate_key_class: KeyClass = KeyClass.NONE
    aggregate_function: AggregateFunction = AggregateFunction.NONE
    tuple_width_in: float = 32.0
    tuple_width_out: float = 32.0
    tuple_data_type: DataType = DataType.GENERIC
    selectivity: float = 1.0
    cost_factor: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("operator name must be non-empty")
        if self.selectivity < 0:
            raise ValueError(f"{self.name}: selectivity must be >= 0")
        if self.cost_factor <= 0:
            raise ValueError(f"{self.name}: cost_factor must be > 0")
        if self.window_type is not WindowType.NONE and self.window_length <= 0:
            raise ValueError(f"{self.name}: windowed operator needs window_length > 0")
        if self.window_type is WindowType.SLIDING and self.sliding_length <= 0:
            raise ValueError(f"{self.name}: sliding window needs sliding_length > 0")
        if self.op_type in AGGREGATING_TYPES and self.aggregate_function is AggregateFunction.NONE:
            raise ValueError(f"{self.name}: aggregating operator needs aggregate_function")

    @property
    def is_source(self) -> bool:
        return self.op_type is OperatorType.SOURCE

    @property
    def is_sink(self) -> bool:
        return self.op_type is OperatorType.SINK

    @property
    def is_stateful(self) -> bool:
        """Stateful operators keep per-key state (joins, aggregates, windows)."""
        return self.op_type in (JOINING_TYPES | AGGREGATING_TYPES)

    def structural_label(self) -> str:
        """Label used by GED node-substitution costs (operator type)."""
        return self.op_type.value

    def to_dict(self) -> dict:
        """Serialise to plain types (round-trips via :meth:`from_dict`)."""
        return {
            "name": self.name,
            "op_type": self.op_type.value,
            "window_type": self.window_type.value,
            "window_policy": self.window_policy.value,
            "window_length": self.window_length,
            "sliding_length": self.sliding_length,
            "join_key_class": self.join_key_class.value,
            "aggregate_class": self.aggregate_class.value,
            "aggregate_key_class": self.aggregate_key_class.value,
            "aggregate_function": self.aggregate_function.value,
            "tuple_width_in": self.tuple_width_in,
            "tuple_width_out": self.tuple_width_out,
            "tuple_data_type": self.tuple_data_type.value,
            "selectivity": self.selectivity,
            "cost_factor": self.cost_factor,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OperatorSpec":
        return cls(
            name=data["name"],
            op_type=OperatorType(data["op_type"]),
            window_type=WindowType(data["window_type"]),
            window_policy=WindowPolicy(data["window_policy"]),
            window_length=data["window_length"],
            sliding_length=data["sliding_length"],
            join_key_class=KeyClass(data["join_key_class"]),
            aggregate_class=KeyClass(data["aggregate_class"]),
            aggregate_key_class=KeyClass(data["aggregate_key_class"]),
            aggregate_function=AggregateFunction(data["aggregate_function"]),
            tuple_width_in=data["tuple_width_in"],
            tuple_width_out=data["tuple_width_out"],
            tuple_data_type=DataType(data["tuple_data_type"]),
            selectivity=data["selectivity"],
            cost_factor=data["cost_factor"],
        )
