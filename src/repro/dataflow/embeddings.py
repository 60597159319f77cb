"""Embedding-based operator representations (paper §VII, future work).

The paper's feature scheme (Table I + one-hot operator types) "requires
retraining when entirely new operators are introduced" and its §VII
suggests "embedding-based representations that capture semantic
relationships between operators, improving generalization to unseen
operators".  This module implements that extension:

* :class:`OperatorProperties` — a compact, human-interpretable property
  vector per operator kind (statefulness, windowing, fan-in, amplification
  tendency, relative per-record cost class).  Two operator kinds that
  behave alike (e.g. ``map`` and ``flat_map``) sit close in property
  space, so knowledge learned on one transfers to the other.
* :class:`OperatorTaxonomy` — a registry from operator-kind labels to
  property vectors.  New operator kinds are *registered*, not retrained:
  downstream models consume only the property vector.
* :class:`SemanticFeatureEncoder` — drop-in replacement for
  :class:`~repro.dataflow.features.FeatureEncoder` that swaps the one-hot
  operator-type block for the taxonomy's property vector.  Everything else
  (window/key/aggregate one-hots, numeric scaling, rate sinusoids, the
  FUSE parallelism handling) is inherited unchanged, so pre-training and
  fine-tuning work with either encoder.

The generalisation claim is testable: hold one operator kind out of the
pre-training histories and tune a query that uses it.  Under one-hot
encoding the held-out column is untrained dead weight; under the semantic
encoder the unseen kind lands between its behavioural neighbours and the
encoder's bottleneck surface extends to it (see
``examples/unseen_operators.py`` and ``tests/test_embeddings.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataflow.features import FeatureEncoder
from repro.dataflow.operators import OperatorSpec, OperatorType

#: Cost classes: rough per-record CPU expense tiers, normalised to [0, 1].
_COST_CLASS = {"trivial": 0.0, "light": 0.25, "moderate": 0.5, "heavy": 0.75, "extreme": 1.0}


@dataclass(frozen=True)
class OperatorProperties:
    """Semantic coordinates of an operator kind.

    Every field is in [0, 1] so the vector is directly consumable as model
    input.  The fields are *behavioural*, not nominal: they describe what
    the operator does to data and state, which is what determines its
    processing-ability curve — the quantity parallelism tuning cares about.

    Parameters
    ----------
    emits:
        1.0 if the operator produces records into the dataflow (everything
        except sinks).
    consumes:
        1.0 if the operator receives records from upstream (everything
        except sources).
    stateful:
        1.0 for operators keeping per-key state (joins, aggregates).
    windowed:
        1.0 for operators that buffer window contents.
    keyed:
        1.0 for operators that partition their input by key.
    fan_in:
        Normalised upstream fan-in: 0.0 for one input, 1.0 for two-input
        operators (joins).  Multi-way joins are composed from binary ones
        in both Nexmark and PQP, so the scale is binary in practice.
    amplification:
        Tendency of output rate relative to input rate: 0.0 contracts
        (filters, window aggregates), 0.5 preserves (maps), 1.0 expands
        (flat-maps, joins on hot keys).
    cost_class:
        Relative per-record CPU cost tier (see ``_COST_CLASS``).
    """

    emits: float
    consumes: float
    stateful: float
    windowed: float
    keyed: float
    fan_in: float
    amplification: float
    cost_class: float

    def __post_init__(self) -> None:
        for field_name, value in self.as_dict().items():
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{field_name} must be in [0, 1], got {value}")

    def as_dict(self) -> dict[str, float]:
        return {
            "emits": self.emits,
            "consumes": self.consumes,
            "stateful": self.stateful,
            "windowed": self.windowed,
            "keyed": self.keyed,
            "fan_in": self.fan_in,
            "amplification": self.amplification,
            "cost_class": self.cost_class,
        }

    def vector(self) -> np.ndarray:
        """The property vector in a fixed field order."""
        return np.asarray(list(self.as_dict().values()), dtype=np.float64)


#: Dimensionality of a property vector.
PROPERTY_DIMENSION = 8


def _props(
    emits: float = 1.0,
    consumes: float = 1.0,
    stateful: float = 0.0,
    windowed: float = 0.0,
    keyed: float = 0.0,
    fan_in: float = 0.0,
    amplification: float = 0.5,
    cost: str = "light",
) -> OperatorProperties:
    return OperatorProperties(
        emits=emits,
        consumes=consumes,
        stateful=stateful,
        windowed=windowed,
        keyed=keyed,
        fan_in=fan_in,
        amplification=amplification,
        cost_class=_COST_CLASS[cost],
    )


#: Built-in semantics for the Table I operator kinds.
BUILTIN_PROPERTIES: dict[str, OperatorProperties] = {
    OperatorType.SOURCE.value: _props(consumes=0.0, cost="trivial"),
    OperatorType.SINK.value: _props(emits=0.0, cost="trivial"),
    OperatorType.MAP.value: _props(cost="light"),
    OperatorType.FLAT_MAP.value: _props(amplification=1.0, cost="light"),
    OperatorType.FILTER.value: _props(amplification=0.0, cost="trivial"),
    OperatorType.JOIN.value: _props(
        stateful=1.0, keyed=1.0, fan_in=1.0, amplification=1.0, cost="heavy"
    ),
    OperatorType.WINDOW_JOIN.value: _props(
        stateful=1.0, windowed=1.0, keyed=1.0, fan_in=1.0, amplification=1.0, cost="extreme"
    ),
    OperatorType.AGGREGATE.value: _props(
        stateful=1.0, keyed=1.0, amplification=0.0, cost="moderate"
    ),
    OperatorType.WINDOW_AGGREGATE.value: _props(
        stateful=1.0, windowed=1.0, keyed=1.0, amplification=0.0, cost="heavy"
    ),
}


class OperatorTaxonomy:
    """Registry of operator kinds and their semantic property vectors.

    The taxonomy starts from :data:`BUILTIN_PROPERTIES` and accepts new
    kinds at runtime through :meth:`register` — the §VII path for
    introducing operators unseen at pre-training time without touching the
    trained models.
    """

    def __init__(self) -> None:
        self._properties = dict(BUILTIN_PROPERTIES)

    def __contains__(self, kind: str) -> bool:
        return kind in self._properties

    @property
    def kinds(self) -> list[str]:
        return sorted(self._properties)

    def register(self, kind: str, properties: OperatorProperties) -> None:
        """Add (or redefine) an operator kind.

        Registration is idempotent for identical properties and raises on
        a silent semantic change of an existing kind, which would corrupt
        models trained against the previous definition.
        """
        if not kind:
            raise ValueError("operator kind must be non-empty")
        existing = self._properties.get(kind)
        if existing is not None and existing != properties:
            raise ValueError(
                f"operator kind {kind!r} already registered with different "
                "properties; use a new kind name instead of redefining"
            )
        self._properties[kind] = properties

    def properties_for(self, kind: str) -> OperatorProperties:
        try:
            return self._properties[kind]
        except KeyError:
            raise KeyError(
                f"unknown operator kind {kind!r}; register() it first "
                f"(known kinds: {', '.join(self.kinds)})"
            ) from None

    def vector_for(self, kind: str) -> np.ndarray:
        return self.properties_for(kind).vector()

    def nearest_known(self, kind: str) -> str:
        """The behaviourally closest other registered kind to ``kind``.

        Used for analysis and for explaining transfer: an unseen kind's
        predictions will look most like its nearest neighbour's.
        """
        candidates = [k for k in self.kinds if k != kind]
        target = self.vector_for(kind)
        return min(
            candidates,
            key=lambda other: float(np.linalg.norm(self.vector_for(other) - target)),
        )


class SemanticFeatureEncoder(FeatureEncoder):
    """Feature encoder using semantic property vectors for operator kinds.

    Identical to :class:`~repro.dataflow.features.FeatureEncoder` except
    that the operator-type one-hot block (first ``len(OperatorType)``
    entries) is replaced by the taxonomy's :data:`PROPERTY_DIMENSION`-wide
    property vector.  The remaining blocks are produced by the parent
    class, so the two encoders stay in lock-step as Table I evolves.
    """

    def __init__(self, taxonomy: OperatorTaxonomy | None = None, **kwargs) -> None:
        super().__init__(**kwargs)
        self.taxonomy = taxonomy or OperatorTaxonomy()

    def encode_operator(self, spec: OperatorSpec, source_rate: float = 0.0) -> np.ndarray:
        base = super().encode_operator(spec, source_rate)
        one_hot_block = len(self._OPERATOR_TYPES)
        semantic = self.taxonomy.vector_for(spec.structural_label())
        return np.concatenate([semantic, base[one_hot_block:]])


def interpolate_properties(
    taxonomy: OperatorTaxonomy,
    weights: dict[str, float],
) -> OperatorProperties:
    """Blend known kinds into a new property vector.

    A convenience for registering operators that behave "like 70% map,
    30% aggregate": the blended vector is a convex combination, which keeps
    every field in [0, 1].
    """
    if not weights:
        raise ValueError("weights must name at least one kind")
    total = sum(weights.values())
    if total <= 0 or any(w < 0 for w in weights.values()):
        raise ValueError("weights must be non-negative and sum to > 0")
    blended = np.zeros(PROPERTY_DIMENSION)
    for kind, weight in weights.items():
        blended += (weight / total) * taxonomy.vector_for(kind)
    field_names = list(OperatorProperties(1, 1, 0, 0, 0, 0, 0.5, 0).as_dict())
    values = dict(zip(field_names, np.clip(blended, 0.0, 1.0)))
    return OperatorProperties(**values)


def embedding_generalisation_gap(
    one_hot_scores: np.ndarray,
    semantic_scores: np.ndarray,
    labels: np.ndarray,
) -> dict[str, float]:
    """Compare encoders on held-out-operator predictions.

    Scores are bottleneck probabilities for operators of a kind absent
    from pre-training; labels are Algorithm 1 ground truth.  Reports the
    binary cross-entropy of each encoder and the gap (positive = semantic
    encoder better), which the unseen-operator example prints.
    """
    if not (len(one_hot_scores) == len(semantic_scores) == len(labels)):
        raise ValueError("score and label arrays must have equal length")
    if len(labels) == 0:
        raise ValueError("need at least one held-out prediction")

    def bce(scores: np.ndarray) -> float:
        clipped = np.clip(scores, 1e-9, 1 - 1e-9)
        return float(
            -np.mean(labels * np.log(clipped) + (1 - labels) * np.log(1 - clipped))
        )

    one_hot_loss = bce(np.asarray(one_hot_scores, dtype=np.float64))
    semantic_loss = bce(np.asarray(semantic_scores, dtype=np.float64))
    return {
        "one_hot_bce": one_hot_loss,
        "semantic_bce": semantic_loss,
        "gap": one_hot_loss - semantic_loss,
        "n_heldout": float(len(labels)),
    }
