"""Tests for embedding-based operator representations (§VII extension)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.embeddings import (
    BUILTIN_PROPERTIES,
    PROPERTY_DIMENSION,
    OperatorProperties,
    OperatorTaxonomy,
    SemanticFeatureEncoder,
    embedding_generalisation_gap,
    interpolate_properties,
)
from repro.dataflow.features import FeatureEncoder
from repro.dataflow.operators import OperatorSpec, OperatorType
from tests.conftest import feature_dimension


class TestOperatorProperties:
    def test_vector_has_fixed_dimension(self):
        for properties in BUILTIN_PROPERTIES.values():
            assert properties.vector().shape == (PROPERTY_DIMENSION,)

    def test_rejects_out_of_range_fields(self):
        with pytest.raises(ValueError, match="must be in"):
            OperatorProperties(
                emits=1.5, consumes=1.0, stateful=0.0, windowed=0.0,
                keyed=0.0, fan_in=0.0, amplification=0.5, cost_class=0.0,
            )

    def test_every_builtin_type_is_covered(self):
        assert set(BUILTIN_PROPERTIES) == {t.value for t in OperatorType}

    def test_vector_field_order_matches_as_dict(self):
        properties = BUILTIN_PROPERTIES[OperatorType.JOIN.value]
        assert np.allclose(
            properties.vector(), list(properties.as_dict().values())
        )


class TestOperatorTaxonomy:
    def test_contains_builtins(self):
        taxonomy = OperatorTaxonomy()
        assert "map" in taxonomy
        assert "window_join" in taxonomy
        assert "quantum_sort" not in taxonomy

    def test_register_new_kind(self):
        taxonomy = OperatorTaxonomy()
        dedupe = interpolate_properties(taxonomy, {"filter": 0.5, "aggregate": 0.5})
        taxonomy.register("dedupe", dedupe)
        assert "dedupe" in taxonomy
        assert taxonomy.vector_for("dedupe").shape == (PROPERTY_DIMENSION,)

    def test_register_rejects_silent_redefinition(self):
        taxonomy = OperatorTaxonomy()
        changed = interpolate_properties(taxonomy, {"join": 1.0})
        with pytest.raises(ValueError, match="already registered"):
            taxonomy.register("map", changed)

    def test_register_idempotent_for_identical_properties(self):
        taxonomy = OperatorTaxonomy()
        taxonomy.register("map", BUILTIN_PROPERTIES["map"])   # no raise

    def test_register_rejects_empty_name(self):
        taxonomy = OperatorTaxonomy()
        with pytest.raises(ValueError, match="non-empty"):
            taxonomy.register("", BUILTIN_PROPERTIES["map"])

    def test_unknown_kind_raises_with_known_kinds_listed(self):
        taxonomy = OperatorTaxonomy()
        with pytest.raises(KeyError, match="register"):
            taxonomy.properties_for("teleport")

    def test_flat_map_is_nearer_to_map_than_to_window_join(self):
        taxonomy = OperatorTaxonomy()

        def similarity(kind_a, kind_b):
            a, b = taxonomy.vector_for(kind_a), taxonomy.vector_for(kind_b)
            return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

        assert similarity("flat_map", "map") > similarity("flat_map", "window_join")

    def test_nearest_known_finds_behavioural_neighbour(self):
        taxonomy = OperatorTaxonomy()
        assert taxonomy.nearest_known("flat_map") == "map"
        assert taxonomy.nearest_known("window_join") == "join"



class TestInterpolateProperties:
    def test_blend_stays_in_unit_interval(self):
        taxonomy = OperatorTaxonomy()
        blended = interpolate_properties(
            taxonomy, {"map": 0.7, "window_aggregate": 0.3}
        )
        for value in blended.as_dict().values():
            assert 0.0 <= value <= 1.0

    def test_single_kind_blend_is_identity(self):
        taxonomy = OperatorTaxonomy()
        blended = interpolate_properties(taxonomy, {"join": 1.0})
        assert blended == BUILTIN_PROPERTIES["join"]

    def test_weights_normalised(self):
        taxonomy = OperatorTaxonomy()
        a = interpolate_properties(taxonomy, {"map": 1.0, "filter": 1.0})
        b = interpolate_properties(taxonomy, {"map": 5.0, "filter": 5.0})
        assert np.allclose(a.vector(), b.vector())

    def test_rejects_empty_and_negative_weights(self):
        taxonomy = OperatorTaxonomy()
        with pytest.raises(ValueError):
            interpolate_properties(taxonomy, {})
        with pytest.raises(ValueError):
            interpolate_properties(taxonomy, {"map": -1.0})


class TestSemanticFeatureEncoder:
    def test_dimension_swaps_one_hot_for_properties(self):
        one_hot = FeatureEncoder()
        semantic = SemanticFeatureEncoder()
        expected = feature_dimension(one_hot) - len(OperatorType) + PROPERTY_DIMENSION
        assert feature_dimension(semantic) == expected

    def test_encoding_length_matches_dimension(self):
        encoder = SemanticFeatureEncoder()
        spec = OperatorSpec(name="f", op_type=OperatorType.FILTER)
        vector = encoder.encode_operator(spec, source_rate=1000.0)
        assert vector.shape == (feature_dimension(encoder),)

    def test_semantic_block_leads_the_vector(self):
        encoder = SemanticFeatureEncoder()
        spec = OperatorSpec(name="f", op_type=OperatorType.FILTER)
        vector = encoder.encode_operator(spec)
        expected = encoder.taxonomy.vector_for("filter")
        assert np.allclose(vector[:PROPERTY_DIMENSION], expected)

    def test_non_type_blocks_agree_with_one_hot_encoder(self):
        """Everything after the type block must be identical to the parent."""
        one_hot = FeatureEncoder()
        semantic = SemanticFeatureEncoder()
        spec = OperatorSpec(name="m", op_type=OperatorType.MAP, tuple_width_in=128.0)
        base = one_hot.encode_operator(spec, source_rate=5e4)
        lifted = semantic.encode_operator(spec, source_rate=5e4)
        assert np.allclose(lifted[PROPERTY_DIMENSION:], base[len(OperatorType):])

    def test_encode_dataflow_matches_topological_order(self, linear_flow):
        encoder = SemanticFeatureEncoder()
        matrix, order = encoder.encode_dataflow(linear_flow, {"src": 1000.0})
        assert order == linear_flow.topological_order()
        assert matrix.shape == (len(order), feature_dimension(encoder))

    def test_behaviourally_close_kinds_encode_close(self):
        encoder = SemanticFeatureEncoder()
        map_vec = encoder.encode_operator(
            OperatorSpec(name="a", op_type=OperatorType.MAP)
        )
        flat_vec = encoder.encode_operator(
            OperatorSpec(name="b", op_type=OperatorType.FLAT_MAP)
        )
        wjoin_vec = encoder.encode_operator(
            OperatorSpec(
                name="c",
                op_type=OperatorType.JOIN,
            )
        )
        assert np.linalg.norm(map_vec - flat_vec) < np.linalg.norm(map_vec - wjoin_vec)

    def test_pluggable_into_pretraining(self, tiny_history):
        """The encoder drops into pretrain() without code changes."""
        from repro.core import pretrain

        model = pretrain(
            tiny_history[:60],
            max_parallelism=100,
            n_clusters=1,
            epochs=2,
            seed=3,
            feature_encoder=SemanticFeatureEncoder(),
        )
        assert feature_dimension(model.feature_encoder) == feature_dimension(
            SemanticFeatureEncoder()
        )


class TestGeneralisationGap:
    def test_gap_positive_when_semantic_scores_are_better(self):
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        semantic = np.array([0.9, 0.1, 0.8, 0.2])
        one_hot = np.array([0.5, 0.5, 0.5, 0.5])
        report = embedding_generalisation_gap(one_hot, semantic, labels)
        assert report["gap"] > 0
        assert report["n_heldout"] == 4

    def test_identical_scores_give_zero_gap(self):
        labels = np.array([1.0, 0.0])
        scores = np.array([0.7, 0.3])
        report = embedding_generalisation_gap(scores, scores, labels)
        assert report["gap"] == pytest.approx(0.0)

    def test_rejects_mismatched_lengths_and_empty(self):
        with pytest.raises(ValueError):
            embedding_generalisation_gap(np.ones(2), np.ones(3), np.ones(2))
        with pytest.raises(ValueError):
            embedding_generalisation_gap(np.ones(0), np.ones(0), np.ones(0))

    def test_extreme_scores_do_not_overflow(self):
        labels = np.array([1.0, 0.0])
        report = embedding_generalisation_gap(
            np.array([0.0, 1.0]), np.array([1.0, 0.0]), labels
        )
        assert np.isfinite(report["one_hot_bce"])
        assert np.isfinite(report["semantic_bce"])


@settings(max_examples=30, deadline=None)
@given(
    weights=st.dictionaries(
        st.sampled_from(sorted(BUILTIN_PROPERTIES)),
        st.floats(min_value=0.01, max_value=10.0),
        min_size=1,
        max_size=4,
    )
)
def test_property_interpolation_always_valid(weights):
    """Any convex blend of registered kinds is itself a valid property set."""
    taxonomy = OperatorTaxonomy()
    blended = interpolate_properties(taxonomy, weights)
    vector = blended.vector()
    assert np.all(vector >= 0.0)
    assert np.all(vector <= 1.0)
