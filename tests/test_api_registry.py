"""Tests for the repro.api component registries."""

from __future__ import annotations

import pytest

from repro.api import (
    ENGINES,
    MODELS,
    TUNERS,
    ParamSpec,
    Registry,
    RegistryError,
    TunerResources,
    UnknownComponentError,
    build_engine,
    build_tuner,
    resolve_query,
)
from repro.baselines import ContTuneTuner, DS2Tuner, OracleTuner
from repro.engines import FlinkCluster, TimelyCluster
from repro.engines.faults import FaultInjectingFlink
from repro.engines.paced import PacedFlink
from repro.models import MonotonicGBDT, MonotonicSVM, make_prediction_model


class TestRegistryMechanics:
    def _fresh(self) -> Registry:
        registry = Registry("widget")

        @registry.register(
            "gear",
            params=(
                ParamSpec("teeth", int, 8, help="tooth count"),
                ParamSpec("finish", str, "matte"),
            ),
        )
        def _build(teeth=8, finish="matte"):
            """A gear."""
            return ("gear", teeth, finish)

        registry.register("sprocket")(lambda: "sprocket")
        return registry

    def test_create_with_defaults_under_one_name(self):
        registry = self._fresh()
        assert registry.create("gear") == ("gear", 8, "matte")
        assert registry.create("Gear", teeth=12) == ("gear", 12, "matte")
        assert "GEAR" in registry and "cog" not in registry
        assert registry.names() == ("gear", "sprocket")

    def test_unknown_name_lists_alternatives_and_suggests(self):
        registry = self._fresh()
        with pytest.raises(UnknownComponentError) as exc_info:
            registry.create("gearr")
        message = str(exc_info.value)
        assert "did you mean 'gear'" in message
        assert "sprocket" in message and "gear" in message

    def test_unknown_error_is_both_keyerror_and_valueerror(self):
        registry = self._fresh()
        with pytest.raises(KeyError):
            registry.entry("nope")
        with pytest.raises(ValueError):
            registry.entry("nope")

    def test_unknown_parameter_rejected_with_accepted_list(self):
        registry = self._fresh()
        with pytest.raises(RegistryError, match="teeth"):
            registry.create("gear", diameter=3)

    def test_parameter_type_checked(self):
        registry = self._fresh()
        with pytest.raises(RegistryError, match="expects int"):
            registry.create("gear", teeth="many")

    def test_duplicate_registration_rejected(self):
        registry = self._fresh()
        with pytest.raises(RegistryError, match="already registered"):
            registry.register("gear")(lambda: None)

    def test_required_parameter_enforced(self):
        registry = Registry("thing")

        from repro.api import REQUIRED

        @registry.register("x", params=(ParamSpec("value", int, REQUIRED),))
        def _build(value):
            return value

        with pytest.raises(RegistryError, match="requires parameter 'value'"):
            registry.create("x")
        assert registry.create("x", value=3) == 3


class TestEngineRegistry:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("flink", FlinkCluster),
            ("timely", TimelyCluster),
            ("flink-faulty", FaultInjectingFlink),
            ("flink-paced", PacedFlink),
        ],
    )
    def test_known_engines(self, name, cls):
        engine = build_engine(name, seed=3)
        assert isinstance(engine, cls)

    def test_every_engine_declares_exactly_seed(self):
        # A plan names an engine and seeds it; nothing carries anything else.
        for name in ENGINES.names():
            assert tuple(spec.name for spec in ENGINES.entry(name).params) == ("seed",)
        with pytest.raises(RegistryError, match="accepted: seed"):
            build_engine("flink", seed=3, task_managers=4)

    @pytest.mark.parametrize(
        "registry,retired,canonical",
        [(ENGINES, "paced-flink", "flink-paced"), (MODELS, "gbdt", "xgboost")],
    )
    def test_retired_alias_is_unknown_and_the_message_names_the_canonical(
        self, registry, retired, canonical
    ):
        with pytest.raises(UnknownComponentError) as exc_info:
            registry.entry(retired)
        assert canonical in str(exc_info.value)

    def test_unknown_engine_lists_alternatives(self):
        with pytest.raises(UnknownComponentError, match="flink"):
            ENGINES.create("spark")

    def test_seeded_engines_are_deterministic(self):
        a, b = build_engine("flink", seed=9), build_engine("flink", seed=9)
        assert a.max_parallelism == b.max_parallelism


class TestTunerRegistry:
    def test_baselines_need_no_resources(self, flink):
        assert isinstance(build_tuner("ds2", flink), DS2Tuner)
        assert isinstance(build_tuner("ContTune", flink), ContTuneTuner)
        assert isinstance(build_tuner("Oracle", flink), OracleTuner)

    def test_streamtune_via_resources(self, flink, tiny_pretrained):
        resources = TunerResources(pretrained=lambda: tiny_pretrained)
        tuner = build_tuner("streamtune", flink, resources, seed=5)
        assert tuner.name == "StreamTune"
        assert tuner.seed == 5
        assert tuner.model_kind == "svm"

    def test_streamtune_ablation_spelling_sets_model_kind(self, flink, tiny_pretrained):
        resources = TunerResources(pretrained=lambda: tiny_pretrained)
        tuner = build_tuner("StreamTune-xgboost", flink, resources, seed=5)
        assert tuner.model_kind == "xgboost"

    def test_streamtune_without_pretrained_is_actionable(self, flink):
        with pytest.raises(ValueError, match="pre-trained"):
            build_tuner("streamtune", flink, TunerResources(), seed=5)

    def test_streamtune_rejects_unknown_layer_early(self, flink, tiny_pretrained):
        resources = TunerResources(pretrained=lambda: tiny_pretrained)
        with pytest.raises(UnknownComponentError, match="svm"):
            build_tuner("streamtune", flink, resources, model_kind="forest")

    def test_unknown_tuner_lists_alternatives(self, flink):
        with pytest.raises(UnknownComponentError) as exc_info:
            TUNERS.create("ds3", flink)
        assert "ds2" in str(exc_info.value)


class TestWorkloadRegistry:
    def test_resolve_nexmark(self):
        assert resolve_query("q5", "flink").name == "nexmark_q5_flink"
        assert resolve_query("Q5", "timely").name == "nexmark_q5_timely"

    def test_resolve_pqp(self):
        assert resolve_query("2-way-join/3", "flink").name.startswith("pqp_2way")

    def test_unknown_template_is_keyerror_with_alternatives(self):
        with pytest.raises(KeyError, match="2-way-join"):
            resolve_query("4-way/0", "flink")

    def test_malformed_pqp_index(self):
        with pytest.raises(ValueError, match="integer index"):
            resolve_query("2-way-join/x", "flink")

    def test_pqp_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            resolve_query("linear/10000", "flink")

    def test_unknown_nexmark_name_lists_queries(self):
        with pytest.raises(UnknownComponentError, match="q5"):
            resolve_query("q7", "flink")

    def test_engine_variants_resolve_their_family_workloads(self):
        from repro.api import engine_family

        assert engine_family("flink-faulty") == "flink"
        assert engine_family("flink-paced") == "flink"
        # Variant engines bind the base family's rate units.
        assert resolve_query("q5", "flink-faulty").name == "nexmark_q5_flink"
        assert resolve_query("q5", "flink-paced").name == "nexmark_q5_flink"


class TestModelRegistry:
    @pytest.mark.parametrize(
        "kind,cls", [("svm", MonotonicSVM), ("xgboost", MonotonicGBDT)]
    )
    def test_build_by_name(self, kind, cls):
        assert isinstance(MODELS.create(kind, seed=3), cls)

    def test_legacy_factory_routes_through_registry(self):
        model = make_prediction_model("xgboost", seed=4)
        assert isinstance(model, MonotonicGBDT)
        with pytest.raises(ValueError):
            make_prediction_model("forest")

    def test_unknown_model_suggests(self):
        with pytest.raises(UnknownComponentError, match="did you mean 'svm'"):
            MODELS.create("svmm")
