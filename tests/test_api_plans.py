"""Tests for the declarative plan layer (dict/JSON/TOML round-trips)."""

from __future__ import annotations

import json

import pytest

try:
    import tomllib  # noqa: F401  (Python 3.11+)

    HAS_TOML = True
except ModuleNotFoundError:
    try:
        import tomli  # noqa: F401

        HAS_TOML = True
    except ModuleNotFoundError:
        HAS_TOML = False

requires_toml = pytest.mark.skipif(
    not HAS_TOML, reason="no TOML parser on this interpreter (Python < 3.11)"
)

from repro.api import (
    CampaignPlan,
    PlanError,
    SweepPlan,
    TuningPlan,
    load_plan,
    plan_from_dict,
    replace,
)
from tests.conftest import save_plan


class TestTuningPlanValidation:
    def test_defaults_validate(self):
        plan = TuningPlan(query="q5")
        assert plan.rates == (3.0, 10.0, 5.0)
        assert plan.engine == "flink"

    def test_rates_normalised_to_float_tuple(self):
        plan = TuningPlan(query="q1", rates=[3, 7])
        assert plan.rates == (3.0, 7.0)
        assert isinstance(plan.rates, tuple)

    def test_unknown_query_token(self):
        with pytest.raises(PlanError, match="q7"):
            TuningPlan(query="q7")

    def test_unknown_engine_names_alternatives(self):
        with pytest.raises(PlanError, match="flink"):
            TuningPlan(query="q1", engine="spark")

    def test_unknown_layer(self):
        with pytest.raises(PlanError, match="svm"):
            TuningPlan(query="q1", layer="forest")

    def test_unknown_tuner(self):
        with pytest.raises(PlanError, match="streamtune"):
            TuningPlan(query="q1", tuner="autoscale")

    def test_retired_alias_spellings_fail_naming_the_canonical(self):
        # One spelling per component: "paced-flink" used to run the same
        # campaign under a different cell_key, so --resume missed it.
        with pytest.raises(PlanError, match="flink-paced"):
            TuningPlan(query="q1", engine="paced-flink")
        with pytest.raises(PlanError, match="xgboost"):
            TuningPlan(query="q1", layer="gbdt")
        with pytest.raises(PlanError, match='tuner = "streamtune"'):
            TuningPlan(query="q1", tuner="streamtune-gbdt")

    def test_ablation_tuner_spelling_names_the_layer_field(self):
        # The prediction layer is the layer field only, so a campaign has
        # one cell key.
        hint = 'write tuner = "streamtune", layer = "xgboost"'
        for tuner in ("streamtune-xgboost", "StreamTune-XGBoost"):
            with pytest.raises(PlanError, match=hint):
                TuningPlan(query="q1", tuner=tuner)
        with pytest.raises(PlanError, match=hint):
            CampaignPlan(queries=("q1",), tuner="streamtune-xgboost", layer="nn")
        with pytest.raises(PlanError, match=r"tuners\[1\].*layer = \"svm\""):
            SweepPlan(queries=("q1",), tuners=("streamtune", "streamtune-svm"))

    def test_history_needing_tuner_rejected(self):
        # A tuning plan runs on the service too, which builds tuners from
        # the spec alone and carries no execution history.
        with pytest.raises(PlanError, match="zerotune.*execution history"):
            TuningPlan(query="q5", tuner="zerotune")

    def test_ablation_tuner_bad_model_suffix_fails_at_plan_time(self):
        with pytest.raises(PlanError, match="layer"):
            TuningPlan(query="q1", tuner="streamtune-forest")

    def test_dashed_garbage_tuner_fails_at_plan_time(self):
        with pytest.raises(PlanError, match="ds2-foo"):
            TuningPlan(query="q1", tuner="ds2-foo")

    def test_every_spelling_keys_the_one_cell_of_the_registry_name(self):
        # A resume, a daemon resubmission or a pre-trained model cache
        # keyed on another spelling would re-execute the same campaign.
        mixed = TuningPlan(query="q1", tuner="StreamTune", engine="Flink", layer="SVM")
        assert (mixed.tuner, mixed.engine, mixed.layer) == ("streamtune", "flink", "svm")
        assert mixed.cell_keys() == TuningPlan(query="q1").cell_keys()
        assert TuningPlan(query="q1", tuner="ContTune").tuner == "conttune"
        ablation = CampaignPlan(queries=("q1",), tuner="StreamTune", layer="XGBoost")
        assert (ablation.tuner, ablation.layer) == ("streamtune", "xgboost")
        with pytest.raises(PlanError, match="same campaign"):
            SweepPlan(queries=("q1",), tuners=("streamtune", "StreamTune"))
        with pytest.raises(PlanError, match="same campaign"):
            SweepPlan(queries=("q1",), engines=("flink", "FLINK"))

    def test_pqp_index_out_of_range_fails_at_plan_time(self):
        with pytest.raises(PlanError, match="0..7"):
            TuningPlan(query="linear/99")
        with pytest.raises(PlanError, match="0..7"):
            CampaignPlan(queries=("q1", "linear/-1"))

    def test_cache_path_with_baseline_tuner_rejected(self):
        with pytest.raises(PlanError, match="streamtune"):
            TuningPlan(query="q1", tuner="ds2", cache_path="caches.pkl")

    def test_unknown_scale(self):
        with pytest.raises(PlanError, match="smoke"):
            TuningPlan(query="q1", scale="tiny")

    def test_empty_rates(self):
        with pytest.raises(PlanError, match="at least one"):
            TuningPlan(query="q1", rates=())

    def test_nonpositive_rate(self):
        with pytest.raises(PlanError, match="> 0"):
            TuningPlan(query="q1", rates=(3, 0))

    def test_rates_string_rejected_with_hint(self):
        with pytest.raises(PlanError, match="split"):
            TuningPlan(query="q1", rates="3,7")


class TestCampaignPlanValidation:
    def test_defaults_validate(self):
        plan = CampaignPlan(queries=("q1", "q5"))
        assert plan.backend == "thread"
        # Every query of the fleet runs the one trace.
        assert [spec.multipliers for spec in plan.specs()] == [(3.0, 7.0, 4.0, 2.0)] * 2

    def test_queries_string_rejected_with_hint(self):
        with pytest.raises(PlanError, match="split"):
            CampaignPlan(queries="q1,q5")

    def test_empty_queries(self):
        with pytest.raises(PlanError, match="at least one"):
            CampaignPlan(queries=())

    def test_unknown_backend(self):
        with pytest.raises(PlanError, match="sequential"):
            CampaignPlan(queries=("q1",), backend="fibers")
        # The spool fleet is the one multi-process executor; the message
        # names it.
        with pytest.raises(PlanError, match="distributed, got 'process'"):
            plan_from_dict({"queries": ["q1"], "backend": "process"})

    def test_bad_workers(self):
        with pytest.raises(PlanError, match="workers"):
            CampaignPlan(queries=("q1",), workers=0)


@pytest.mark.parametrize(
    "data, field",
    [
        ({"query": "q5", "engine": 5}, "engine"),
        ({"query": "q5", "tuner": None}, "tuner"),
        ({"query": "q5", "layer": 5}, "layer"),
        ({"query": "q5", "scale": 5}, "scale"),
        ({"query": "q5", "model": 5}, "model"),
        ({"query": "q5", "cache_path": ["a"]}, "cache_path"),
        ({"query": "q5", "trace": {"family": None}}, "trace"),
        ({"queries": ["q5"], "engine": None}, "engine"),
        ({"queries": 5}, "queries"),
        ({"queries": ["q5"], "tuners": [5]}, r"tuners\[0\]"),
        ({"queries": ["q5"], "engines": [None]}, r"engines\[0\]"),
        ({"queries": ["q5"], "rate_traces": [{"family": 5}]}, r"rate_traces\[0\]"),
    ],
    ids=[
        "engine", "tuner", "layer", "scale", "model", "cache_path", "trace-family",
        "campaign-engine", "campaign-queries", "sweep-tuners", "sweep-engines", "sweep-trace-family",
    ],
)
def test_wrong_typed_names_raise_plan_error(data, field):
    # A number or null where a config file wants a name or a path is a
    # PlanError naming the field, never an AttributeError from deep inside.
    with pytest.raises(PlanError, match=field):
        plan_from_dict(data)


@pytest.mark.parametrize(
    "data, field",
    [
        ({"queries": ["q1"], "tuner": "ds2", "workers": True}, "workers"),
        ({"query": "q1", "tuner": "ds2", "rates": [1, True]}, "rates"),
        (
            {"query": "q1", "tuner": "ds2",
             "trace": {"family": "periodic", "params": {"n_steps": True}}},
            "n_steps",
        ),
        ({"query": "q1", "tuner": "ds2", "seed": False}, "seed"),
    ],
    ids=["workers", "rates", "trace-n_steps", "seed"],
)
def test_a_bool_is_no_number(data, field):
    # JSON's `true` is a Python int; where a plan wants a count or a rate
    # it is a PlanError, not a one-worker pool or a one-step trace.
    with pytest.raises(PlanError, match=field):
        plan_from_dict(data)


@pytest.mark.parametrize("kind, field", [("tuning", "query"), ("campaign", "queries")])
def test_a_missing_required_field_is_a_plan_error(kind, field):
    with pytest.raises(PlanError, match=f"needs the field\\(s\\) '{field}'"):
        plan_from_dict({"kind": kind})


class TestRoundTrips:
    def _campaign(self) -> CampaignPlan:
        return CampaignPlan(
            queries=("q1", "2-way-join/3"),
            rates=(3, 7, 4, 2),
            backend="sequential",
            workers=2,
            scale="smoke",
            seed=23,
            cache_path="caches.pkl",
        )

    def test_dict_round_trip_equality(self):
        plan = self._campaign()
        assert CampaignPlan.from_dict(plan.to_dict()) == plan
        tuning = TuningPlan(query="q5", rates=(2, 9), scale="smoke")
        assert TuningPlan.from_dict(tuning.to_dict()) == tuning

    def test_json_round_trip_equality(self):
        plan = self._campaign()
        assert CampaignPlan.from_dict(json.loads(json.dumps(plan.to_dict()))) == plan

    def test_kind_inference(self):
        assert isinstance(plan_from_dict({"query": "q1"}), TuningPlan)
        assert isinstance(plan_from_dict({"queries": ["q1"]}), CampaignPlan)
        with pytest.raises(PlanError, match="kind"):
            plan_from_dict({"rates": [1, 2]})
        with pytest.raises(PlanError, match="campaign"):
            plan_from_dict({"kind": "fleet"})

    def test_kind_mismatch_rejected(self):
        with pytest.raises(PlanError, match="declares kind"):
            TuningPlan.from_dict({"kind": "campaign", "query": "q1"})

    def test_unknown_field_lists_valid_fields(self):
        with pytest.raises(PlanError, match="'ratez'"):
            CampaignPlan.from_dict({"queries": ["q1"], "ratez": [1]})

    def test_json_file_round_trip(self, tmp_path):
        plan = self._campaign()
        path = tmp_path / "plan.json"
        save_plan(plan, path)
        assert load_plan(path) == plan

    @requires_toml
    def test_toml_file_round_trip(self, tmp_path):
        plan = self._campaign()
        path = tmp_path / "plan.toml"
        save_plan(plan, path)
        assert load_plan(path) == plan

    @requires_toml
    def test_toml_written_by_hand(self, tmp_path):
        path = tmp_path / "plan.toml"
        path.write_text(
            'kind = "campaign"\n'
            'queries = ["q1", "q5"]\n'
            "rates = [3, 7]\n"
            'backend = "sequential"\n'
            'scale = "smoke"\n'
        )
        plan = load_plan(path)
        assert isinstance(plan, CampaignPlan)
        assert plan.rates == (3.0, 7.0)
        assert plan.scale == "smoke"

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(PlanError, match="does not exist"):
            load_plan(tmp_path / "nope.json")

    def test_load_bad_suffix(self, tmp_path):
        path = tmp_path / "plan.yaml"
        path.write_text("queries: [q1]\n")
        with pytest.raises(PlanError, match="suffix"):
            load_plan(path)

    def test_load_invalid_json_names_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{queries: [q1]}")
        with pytest.raises(PlanError, match="plan.json"):
            load_plan(path)

    def test_load_validation_error_names_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"queries": ["q1"], "backend": "fibers"}))
        with pytest.raises(PlanError, match="plan.json"):
            load_plan(path)

    @requires_toml
    @pytest.mark.parametrize("plan", [
        TuningPlan(query="q5", scale="smoke"),
        TuningPlan(query="q5", trace={"family": "periodic", "params": {"n_steps": 3}},
                   tuner="ds2", chaos={"trace_dropout": [{"step": 1}]}),
        CampaignPlan(queries=("q1",), layer="xgboost", scale="smoke"),
        CampaignPlan(queries=("q1",), trace={"family": "bursty", "seed": 3}),
        SweepPlan(queries=("q1",), tuners=("streamtune", "ds2"),
                  rate_traces=((3, 7), {"family": "bursty", "seed": 11}),
                  chaos=({}, {"trace_dropout": [{"step": 1}]})),
    ], ids=["tuning", "tuning-trace", "campaign", "campaign-trace", "sweep"])
    def test_every_plan_kind_round_trips(self, plan, tmp_path):
        assert plan_from_dict(json.loads(json.dumps(plan.to_dict()))) == plan
        path = tmp_path / "plan.toml"
        save_plan(plan, path)
        assert load_plan(path) == plan
        assert load_plan(path).cell_keys() == plan.cell_keys()

    def test_replace_revalidates(self):
        plan = self._campaign()
        assert replace(plan, backend="thread").backend == "thread"
        with pytest.raises(PlanError):
            replace(plan, backend="fibers")


class TestSweepPlan:
    def _sweep(self, **overrides):
        defaults = dict(
            queries=("q1", "q5"),
            tuners=("streamtune", "ds2"),
            engines=("flink",),
            rate_traces=((3, 7), (4, 2)),
            backend="sequential",
            scale="smoke",
            seed=23,
        )
        defaults.update(overrides)
        return SweepPlan(**defaults)

    def test_defaults_validate(self):
        plan = SweepPlan(queries=("q1",))
        assert plan.tuners == ("streamtune",)
        assert plan.rate_traces == ((3.0, 7.0, 4.0, 2.0),)
        assert plan.kind == "sweep"

    def test_expansion_grid_order_and_size(self):
        plan = self._sweep(engines=("flink", "timely"))
        cells = plan.expand()
        assert plan.n_scenarios == len(cells) == 2 * 2 * 2
        # engines slowest, rate traces fastest
        assert [c.engine for c in cells[:4]] == ["flink"] * 4
        assert [c.tuner for c in cells[:4]] == [
            "streamtune", "streamtune", "ds2", "ds2"
        ]
        assert cells[0].rates == (3.0, 7.0) and cells[1].rates == (4.0, 2.0)
        for cell in cells:
            assert isinstance(cell, CampaignPlan)
            assert cell.queries == ("q1", "q5")
            assert cell.seed == 23 and cell.scale == "smoke"

    def test_scenario_labels_unique(self):
        plan = self._sweep()
        labels = [plan.scenario_label(cell) for cell in plan.expand()]
        assert len(set(labels)) == len(labels)
        assert "ds2@flink/x3-7" in labels
        # Traces %g prints alike keep apart: the rate that does not read
        # back from %g prints as its repr.
        plan = self._sweep(rate_traces=[[3, 7], [3.0000001, 7]])
        labels = [plan.scenario_label(cell) for cell in plan.expand()]
        assert len(set(labels)) == len(labels)
        assert "ds2@flink/x3-7" in labels and "ds2@flink/x3.0000001-7" in labels

    def test_unknown_tuner_named(self):
        with pytest.raises(PlanError, match="tuner"):
            self._sweep(tuners=("streamtune", "dsz"))

    def test_zerotune_rejected_with_guidance(self):
        with pytest.raises(PlanError, match="zerotune.*make_tuner"):
            self._sweep(tuners=("zerotune",))

    def test_unknown_engine_named(self):
        with pytest.raises(PlanError, match="engine"):
            self._sweep(engines=("spark",))

    def test_empty_axis_rejected(self):
        with pytest.raises(PlanError, match="tuners"):
            self._sweep(tuners=())
        with pytest.raises(PlanError, match="rate_traces"):
            self._sweep(rate_traces=())

    def test_duplicate_axis_entries_rejected(self):
        # Cases of the one identity check over the expanded cells.
        same = "'{0}' and '{0}' are the same campaign".format
        with pytest.raises(PlanError, match=same("streamtune@flink/x3-7")):
            self._sweep(tuners=("streamtune", "streamtune"))
        with pytest.raises(PlanError, match=same("streamtune@flink/x3-7")):
            self._sweep(engines=("flink", "flink"))
        with pytest.raises(PlanError, match=same("streamtune@flink/x3-7")):
            self._sweep(rate_traces=((3, 7), (3.0, 7.0)))
        with pytest.raises(PlanError, match=same(r"streamtune@flink/x3-7\+none")):
            self._sweep(chaos=({}, {}))
        with pytest.raises(PlanError, match="same campaign"):
            self._sweep(chaos=({}, {"trace_dropout": []}))

    def test_spec_that_materializes_to_a_listed_trace_is_rejected(self):
        from repro.api import TraceSpec

        spec = {"family": "bursty", "seed": 12, "params": {"n_steps": 2}}
        assert TraceSpec.from_dict(spec).materialize() == (2.0, 9.0)
        label = TraceSpec.from_dict(spec).label()
        with pytest.raises(
            PlanError,
            match=f"'ds2@flink/x2-9' and 'ds2@flink/{label}' are the same campaign",
        ):
            self._sweep(tuners=("ds2",), rate_traces=((2, 9), spec))

    def test_inline_family_fails_naming_the_raw_list(self):
        with pytest.raises(PlanError, match=r"rate_traces\[1\].*raw multiplier list"):
            self._sweep(rate_traces=(
                (3, 7, 4), {"family": "inline", "params": {"rates": [3, 7, 4]}},
            ))

    def test_string_axis_rejected_with_hint(self):
        with pytest.raises(PlanError, match="split"):
            self._sweep(tuners="streamtune,ds2")

    def test_bad_trace_names_its_index(self):
        with pytest.raises(PlanError, match=r"rate_traces\[1\]"):
            self._sweep(rate_traces=((3, 7), (0,)))

    def test_dict_round_trip_equality(self):
        plan = self._sweep()
        assert SweepPlan.from_dict(plan.to_dict()) == plan
        data = plan.to_dict()
        assert data["rate_traces"] == [[3.0, 7.0], [4.0, 2.0]]

    def test_kind_inference(self):
        assert isinstance(
            plan_from_dict({"queries": ["q1"], "tuners": ["ds2"]}), SweepPlan
        )
        assert isinstance(plan_from_dict({"kind": "sweep", "queries": ["q1"]}), SweepPlan)

    @requires_toml
    def test_toml_file_round_trip(self, tmp_path):
        plan = self._sweep()
        path = tmp_path / "sweep.toml"
        save_plan(plan, path)
        assert load_plan(path) == plan

    @requires_toml
    def test_example_sweep_smoke_loads(self):
        from pathlib import Path

        plan = load_plan(Path(__file__).parent.parent / "examples" / "sweep_smoke.toml")
        assert isinstance(plan, SweepPlan)
        assert len(plan.queries) >= 2 and len(plan.tuners) >= 2
        assert plan.n_scenarios == len(plan.expand())


class TestCampaignPlanTunerAndShards:
    def test_defaults(self):
        plan = CampaignPlan(queries=("q1",), scale="smoke")
        assert plan.tuner == "streamtune" and plan.backend == "thread"
        assert plan.cache_path is None

    def test_baseline_tuner_accepted(self):
        plan = CampaignPlan(queries=("q1",), tuner="ds2", scale="smoke")
        assert plan.tuner == "ds2"

    def test_zerotune_rejected(self):
        with pytest.raises(PlanError, match="zerotune"):
            CampaignPlan(queries=("q1",), tuner="zerotune", scale="smoke")

    def test_cache_path_with_baseline_tuner_rejected(self):
        with pytest.raises(PlanError, match="cache_path"):
            CampaignPlan(
                queries=("q1",), tuner="ds2", backend="sequential",
                cache_path="x.pkl", scale="smoke",
            )

    def test_cache_path_on_the_distributed_backend_rejected(self):
        # The coordinator neither loads nor saves a snapshot: accepting
        # the field would silently ignore it.
        with pytest.raises(PlanError, match="cache_path.*distributed"):
            CampaignPlan(
                queries=("q1",), backend="distributed", cache_path="x.pkl",
                scale="smoke",
            )

    def test_spool_dir_on_an_in_process_backend_rejected(self):
        # Only the distributed coordinator seeds a spool: accepting the
        # field would silently ignore it.
        with pytest.raises(PlanError, match="spool_dir.*distributed"):
            CampaignPlan(queries=("q1",), backend="thread", spool_dir="x")
        with pytest.raises(PlanError, match="spool_dir.*distributed"):
            SweepPlan(queries=("q1",), backend="sequential", spool_dir="x")
        assert SweepPlan(
            queries=("q1",), backend="distributed", spool_dir="x"
        ).expand()[0].spool_dir == "x"
