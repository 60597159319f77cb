"""Initial feature vector construction (paper §IV-A, Table I).

Categorical features are one-hot encoded over fixed vocabularies derived
from the enums in :mod:`repro.dataflow.operators`, so the encoding dimension
is deterministic and transferable across workloads.  Numeric features are
squashed to [0, 1]; because rates span five orders of magnitude between PQP
(hundreds of records/s) and Timely Nexmark (millions of records/s) we use a
log-scaled min-max rather than a linear one — a monotone normalisation that
preserves the paper's intent while keeping small-rate workloads away from
the representational floor.

Per the paper, the initial vector h^(0) contains all static features plus
one dynamic feature, the source rate; *operator parallelism is deliberately
excluded* here and injected later through the FUSE layer (Eq. 3).

The source rate is additionally expanded into multi-frequency sinusoids of
its logarithm (a positional encoding).  A single squashed scalar cannot
separate 3 Wu from 10 Wu once rates span five orders of magnitude across
workloads, yet that 1-10x band is exactly where parallelism thresholds
move; the sinusoids give the models high resolution inside every band
while remaining smooth and bounded.
"""

from __future__ import annotations

import math

import numpy as np

from repro.dataflow.graph import LogicalDataflow
from repro.dataflow.operators import (
    AggregateFunction,
    DataType,
    KeyClass,
    OperatorSpec,
    OperatorType,
    WindowPolicy,
    WindowType,
)

#: Normalisation ceilings for numeric features (log-scaled).
DEFAULT_MAX_WINDOW_LENGTH = 3600.0      # seconds or records
DEFAULT_MAX_TUPLE_WIDTH = 4096.0        # bytes
DEFAULT_MAX_SOURCE_RATE = 2.0e7         # records/s (covers Timely Nexmark)

#: Frequencies of the sinusoidal log-rate expansion.
RATE_ENCODING_FREQUENCIES = (0.5, 1.0, 2.0, 4.0)


def _one_hot(value: object, vocabulary: list) -> list[float]:
    return [1.0 if value is item else 0.0 for item in vocabulary]


def _log_scale(value: float, ceiling: float) -> float:
    """Monotone map of [0, ceiling] to [0, 1] via log1p; clips above ceiling."""
    if value <= 0:
        return 0.0
    return min(1.0, math.log1p(value) / math.log1p(ceiling))


class FeatureEncoder:
    """Encodes operators of a dataflow into initial GNN feature vectors.

    The encoder is stateless apart from its normalisation ceilings, so the
    same instance can encode any dataflow and the feature layout is stable
    across training and tuning.
    """

    _OPERATOR_TYPES = list(OperatorType)
    _WINDOW_TYPES = list(WindowType)
    _WINDOW_POLICIES = list(WindowPolicy)
    _KEY_CLASSES = list(KeyClass)
    _AGG_FUNCTIONS = list(AggregateFunction)
    _DATA_TYPES = list(DataType)

    def __init__(
        self,
        max_window_length: float = DEFAULT_MAX_WINDOW_LENGTH,
        max_tuple_width: float = DEFAULT_MAX_TUPLE_WIDTH,
        max_source_rate: float = DEFAULT_MAX_SOURCE_RATE,
    ) -> None:
        if min(max_window_length, max_tuple_width, max_source_rate) <= 0:
            raise ValueError("normalisation ceilings must be positive")
        self.max_window_length = max_window_length
        self.max_tuple_width = max_tuple_width
        self.max_source_rate = max_source_rate

    def encode_operator(self, spec: OperatorSpec, source_rate: float = 0.0) -> np.ndarray:
        """Encode a single operator; ``source_rate`` is the dynamic feature."""
        parts: list[float] = []
        parts += _one_hot(spec.op_type, self._OPERATOR_TYPES)
        parts += _one_hot(spec.window_type, self._WINDOW_TYPES)
        parts += _one_hot(spec.window_policy, self._WINDOW_POLICIES)
        parts += _one_hot(spec.join_key_class, self._KEY_CLASSES)
        parts += _one_hot(spec.aggregate_class, self._KEY_CLASSES)
        parts += _one_hot(spec.aggregate_key_class, self._KEY_CLASSES)
        parts += _one_hot(spec.aggregate_function, self._AGG_FUNCTIONS)
        parts += _one_hot(spec.tuple_data_type, self._DATA_TYPES)
        parts.append(_log_scale(spec.window_length, self.max_window_length))
        parts.append(_log_scale(spec.sliding_length, self.max_window_length))
        parts.append(_log_scale(spec.tuple_width_in, self.max_tuple_width))
        parts.append(_log_scale(spec.tuple_width_out, self.max_tuple_width))
        parts.append(_log_scale(source_rate, self.max_source_rate))
        parts.extend(self._rate_sinusoids(source_rate))
        return np.asarray(parts, dtype=np.float64)

    @staticmethod
    def _rate_sinusoids(source_rate: float) -> list[float]:
        """Positional encoding of log(rate): fine-grained demand resolution."""
        if source_rate <= 0:
            return [0.0] * (2 * len(RATE_ENCODING_FREQUENCIES))
        log_rate = math.log1p(source_rate)
        values: list[float] = []
        for frequency in RATE_ENCODING_FREQUENCIES:
            values.append(math.sin(frequency * log_rate))
            values.append(math.cos(frequency * log_rate))
        return values

    def encode_dataflow(
        self,
        flow: LogicalDataflow,
        source_rates: dict[str, float],
    ) -> tuple[np.ndarray, list[str]]:
        """Encode every operator of ``flow``.

        Returns the feature matrix (n_operators x dimension) and the operator
        name order (topological), which downstream GNN code uses as the node
        index.  The dynamic source-rate feature is set on source operators
        (their configured rate) and on first-level downstream operators (the
        total rate arriving from their sources, per §IV-A: "only the
        first-level downstream operators have non-zero source rates").
        """
        order = flow.topological_order()
        rate_feature = dict.fromkeys(order, 0.0)
        for src in flow.sources():
            rate = source_rates.get(src, 0.0)
            rate_feature[src] = rate
            for succ in flow.downstream(src):
                rate_feature[succ] += rate
        matrix = np.stack(
            [
                self.encode_operator(flow.operator(name), rate_feature[name])
                for name in order
            ]
        )
        return matrix, order

    def normalize_parallelism(self, parallelism: int, max_parallelism: int) -> float:
        """Monotone map of a parallelism degree to [0, 1] (FUSE / M_f input).

        Log-scaled: processing ability grows as ``p^alpha``, so the true
        bottleneck boundary is ``log(demand) - alpha * log(p) = const`` —
        presenting ``log p`` makes that boundary near-linear in feature
        space, which both the GNN and the monotone models learn from far
        fewer bottleneck examples.  Any strictly monotone encoding keeps
        the binary search of Algorithm 2 sound.
        """
        if max_parallelism <= 0:
            raise ValueError("max_parallelism must be positive")
        parallelism = max(0, parallelism)
        return min(1.0, math.log1p(parallelism) / math.log1p(max_parallelism))
