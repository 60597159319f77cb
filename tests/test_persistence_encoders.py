"""Round-trip tests for feature-encoder persistence.

A pre-trained artifact's behaviour depends on the exact feature encoder
it was trained with; loading a semantic-encoder artifact with one-hot
features would silently mis-shape every embedding.  These tests pin the
encoder round-trip introduced for the §VII extension.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import pretrain
from repro.core.persistence import (
    encoder_from_dict,
    encoder_to_dict,
    load_pretrained,
    save_pretrained,
)
from repro.dataflow.embeddings import (
    OperatorTaxonomy,
    SemanticFeatureEncoder,
    interpolate_properties,
)
from repro.dataflow.features import FeatureEncoder
from repro.dataflow.operators import OperatorSpec, OperatorType
from tests.conftest import feature_dimension


class TestEncoderDictRoundTrip:
    def test_one_hot_round_trip(self):
        original = FeatureEncoder(max_source_rate=5e6)
        restored = encoder_from_dict(encoder_to_dict(original))
        assert type(restored) is FeatureEncoder
        assert restored.max_source_rate == original.max_source_rate
        assert feature_dimension(restored) == feature_dimension(original)

    def test_semantic_round_trip(self):
        original = SemanticFeatureEncoder(max_tuple_width=2048.0)
        restored = encoder_from_dict(encoder_to_dict(original))
        assert isinstance(restored, SemanticFeatureEncoder)
        assert restored.max_tuple_width == original.max_tuple_width
        assert feature_dimension(restored) == feature_dimension(original)

    def test_semantic_custom_kinds_survive(self):
        taxonomy = OperatorTaxonomy()
        dedupe = interpolate_properties(taxonomy, {"filter": 0.5, "aggregate": 0.5})
        taxonomy.register("dedupe", dedupe)
        original = SemanticFeatureEncoder(taxonomy=taxonomy)
        restored = encoder_from_dict(encoder_to_dict(original))
        assert "dedupe" in restored.taxonomy
        assert np.allclose(
            restored.taxonomy.vector_for("dedupe"),
            original.taxonomy.vector_for("dedupe"),
        )

    def test_encodings_identical_after_round_trip(self):
        original = SemanticFeatureEncoder()
        restored = encoder_from_dict(encoder_to_dict(original))
        spec = OperatorSpec(name="w", op_type=OperatorType.FILTER)
        assert np.allclose(
            original.encode_operator(spec, 1234.0),
            restored.encode_operator(spec, 1234.0),
        )

    def test_unknown_kind_rejected(self):
        meta = encoder_to_dict(FeatureEncoder())
        meta["kind"] = "quantum"
        with pytest.raises(ValueError, match="unknown feature-encoder kind"):
            encoder_from_dict(meta)


class TestArtifactRoundTrip:
    def test_semantic_artifact_round_trips(self, tiny_history, tmp_path):
        artifact = pretrain(
            tiny_history[:60],
            max_parallelism=100,
            n_clusters=1,
            epochs=2,
            seed=3,
            feature_encoder=SemanticFeatureEncoder(),
        )
        save_pretrained(artifact, tmp_path / "model")
        restored = load_pretrained(tmp_path / "model")
        assert isinstance(restored.feature_encoder, SemanticFeatureEncoder)
        assert (
            feature_dimension(restored.feature_encoder)
            == feature_dimension(artifact.feature_encoder)
        )
        # The restored encoder must produce embeddings the restored GNN
        # accepts (input dimension agreement).
        record = tiny_history[0]
        sample = restored.sample_for(record)
        probabilities = restored.encoders[0].predict_probabilities(sample)
        assert probabilities.shape == (sample.n_nodes,)

    def test_legacy_artifact_defaults_to_one_hot(self, tiny_history, tmp_path):
        import json

        artifact = pretrain(
            tiny_history[:60], max_parallelism=100, n_clusters=1, epochs=2, seed=3
        )
        save_pretrained(artifact, tmp_path / "model")
        meta_path = tmp_path / "model" / "meta.json"
        meta = json.loads(meta_path.read_text())
        del meta["feature_encoder"]          # simulate a pre-extension artifact
        meta_path.write_text(json.dumps(meta))
        restored = load_pretrained(tmp_path / "model")
        assert type(restored.feature_encoder) is FeatureEncoder
