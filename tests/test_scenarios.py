"""Tests for the scenario plane: trace families, specs, chaos schedules.

The contract under test: a :class:`TraceSpec` *is* its trace (equal specs
materialize bit-identically, across dict/JSON/TOML round-trips), raw rate
lists keep their pre-scenario ``cell_key`` byte-identically, and chaos
schedules validate eagerly against the engine registry's traits.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ENGINES,
    CampaignPlan,
    ChaosSpec,
    OperatorLoss,
    PlanError,
    ScenarioError,
    SweepPlan,
    TRACES,
    TraceSpec,
    TuningPlan,
    engine_family,
    plan_from_dict,
    load_plan,
)
from repro.scenarios import ChaosInjector, TraceDropout
from repro.scenarios.library import periodic_multipliers
from tests.conftest import save_plan

#: Every family with params that exercise its seeded path.
FAMILY_CASES = [
    ("periodic", {"n_permutations": 2}, 3),
    ("periodic", {"n_permutations": 3, "cycle": [2, 9, 4], "n_steps": 10}, None),
    ("bursty", {"n_steps": 10}, 11),
    ("bursty", {"n_steps": 9, "base": 1.5, "spike": 8.0, "burst_length": 3}, 13),
]


# ----------------------------------------------------------------------
# the trace library
# ----------------------------------------------------------------------

class TestTraceFamilies:
    def test_registry_lists_every_family(self):
        # A literal trace is a raw list, not an "inline" family.
        assert set(TRACES.names()) == {"periodic", "bursty"}

    def test_periodic_family_matches_legacy_generator(self):
        spec = TraceSpec(family="periodic", seed=3)
        legacy = periodic_multipliers(seed=3)
        assert spec.materialize() == tuple(float(x) for x in legacy)

    @pytest.mark.parametrize("family,params,seed", FAMILY_CASES)
    def test_equal_specs_materialize_bit_identically(self, family, params, seed):
        first = TraceSpec(family=family, params=params, seed=seed)
        second = TraceSpec(family=family, params=dict(reversed(list(params.items()))), seed=seed)
        assert first == second
        assert hash(first) == hash(second)
        assert first.materialize() == second.materialize()

    @pytest.mark.parametrize("family,params,seed", FAMILY_CASES)
    def test_rates_are_positive_finite_floats(self, family, params, seed):
        rates = TraceSpec(family=family, params=params, seed=seed).materialize()
        assert rates
        assert all(isinstance(rate, float) and rate > 0 for rate in rates)

    @pytest.mark.parametrize(
        "family,params",
        [
            ("bursty", {"n_steps": 16}),
            ("bursty", {"n_steps": 12, "p_burst": 0.5, "burst_length": 1}),
            ("periodic", {"n_permutations": 3}),
        ],
    )
    def test_seed_drives_the_stochastic_families(self, family, params):
        traces = {
            TraceSpec(family=family, params=params, seed=seed).materialize()
            for seed in range(6)
        }
        assert len(traces) > 1

    def test_bursty_always_contains_a_burst(self):
        # Even a seed whose draws never start a burst gets one forced
        # mid-trace: a flash-crowd trace with no crowd tests nothing.
        for seed in range(20):
            spec = TraceSpec(
                family="bursty",
                params={"n_steps": 8, "p_burst": 0.01, "spike": 9.0},
                seed=seed,
            )
            assert 9.0 in spec.materialize()

    def test_trace_length_honours_n_steps(self):
        for family, params, seed in FAMILY_CASES:
            if "n_steps" not in params:
                continue
            rates = TraceSpec(family=family, params=params, seed=seed).materialize()
            assert len(rates) == params["n_steps"]

    def test_unknown_family_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="unknown trace family"):
            TraceSpec(family="tsunami")

    def test_unknown_param_is_a_scenario_error(self):
        with pytest.raises(ScenarioError, match="wavelength"):
            TraceSpec(family="bursty", params={"wavelength": 3})

    @pytest.mark.parametrize(
        "family,params,match",
        [
            ("periodic", {"n_steps": 0}, "n_steps"),
            ("periodic", {"n_permutations": 0}, "n_permutations"),
            ("bursty", {"n_steps": 0}, "n_steps"),
            ("bursty", {"base": -1.0}, "base"),
            ("bursty", {"base": 5.0, "spike": 2.0}, "spike"),
            ("bursty", {"p_burst": 1.5}, "p_burst"),
        ],
    )
    def test_bad_params_fail_at_materialize_with_context(self, family, params, match):
        spec = TraceSpec(family=family, params=params)
        with pytest.raises(ScenarioError, match=match):
            spec.materialize()

    def test_trace_length_is_bounded_before_any_step_is_generated(self):
        import time

        from repro.scenarios.library import MAX_TRACE_STEPS

        assert len(TraceSpec("bursty", {"n_steps": MAX_TRACE_STEPS}).materialize()) == (
            MAX_TRACE_STEPS
        )
        assert len(TraceSpec(
            "periodic", {"n_permutations": MAX_TRACE_STEPS // 20}
        ).materialize()) == MAX_TRACE_STEPS
        for family, params, match in (
            ("bursty", {"n_steps": 10**9}, r"n_steps must be in 1\.\.10000"),
            ("bursty", {"n_steps": MAX_TRACE_STEPS + 1}, "n_steps"),
            ("periodic", {"n_steps": 10**9}, "n_steps"),
            ("periodic", {"n_permutations": 10**9}, r"n_permutations \* 2 \* len"),
            ("periodic", {"n_permutations": 10**9, "cycle": []}, "cycle must not be empty"),
        ):
            started = time.perf_counter()
            with pytest.raises(PlanError, match=match):
                plan_from_dict({"query": "q1", "tuner": "ds2",
                                "trace": {"family": family, "params": params}})
            assert time.perf_counter() - started < 1.0


class TestTraceSpecRoundTrip:
    @pytest.mark.parametrize("family,params,seed", FAMILY_CASES)
    def test_dict_round_trip(self, family, params, seed):
        spec = TraceSpec(family=family, params=params, seed=seed)
        clone = TraceSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.materialize() == spec.materialize()

    @pytest.mark.parametrize("family,params,seed", FAMILY_CASES)
    def test_json_round_trip(self, family, params, seed):
        spec = TraceSpec(family=family, params=params, seed=seed)
        clone = TraceSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert clone.materialize() == spec.materialize()

    def test_unknown_spec_field_rejected(self):
        with pytest.raises(ScenarioError, match="'flavor'"):
            TraceSpec.from_dict({"family": "bursty", "flavor": "mild"})

    @pytest.mark.parametrize("params", [[], "", 0])
    def test_present_but_falsy_params_are_validated(self, params):
        # Only a *missing* params key means "no params"; an empty list
        # or string is a malformed file, not a default.
        with pytest.raises(ScenarioError, match="params must be a mapping"):
            TraceSpec.from_dict({"family": "bursty", "params": params})

    def test_labels_are_unique_and_stable(self):
        specs = [TraceSpec(family=f, params=p, seed=s) for f, p, s in FAMILY_CASES]
        labels = [spec.label() for spec in specs]
        assert len(set(labels)) == len(labels)
        assert labels == [spec.label() for spec in specs]
        assert TraceSpec(family="bursty", seed=11).label().startswith("bursty#s11.")

    @given(
        n_steps=st.integers(min_value=1, max_value=40),
        base=st.floats(min_value=0.1, max_value=50, allow_nan=False),
        lift=st.floats(min_value=0.1, max_value=50, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_bursty_property_round_trip_and_bounds(self, n_steps, base, lift):
        spike = base + lift
        spec = TraceSpec(
            family="bursty", params={"n_steps": n_steps, "base": base, "spike": spike}
        )
        rates = spec.materialize()
        assert len(rates) == n_steps
        assert set(rates) <= {base, spike}
        clone = TraceSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.materialize() == rates

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_every_seed_yields_a_valid_bursty_trace(self, seed):
        spec = TraceSpec(family="bursty", params={"n_steps": 6}, seed=seed)
        rates = spec.materialize()
        assert rates == spec.materialize()
        assert len(rates) == 6
        assert all(rate > 0 for rate in rates)


# ----------------------------------------------------------------------
# plans: raw lists stay raw, specs materialize, chaos validates
# ----------------------------------------------------------------------

class TestPlansWithTraces:
    def test_raw_rate_list_cell_key_is_byte_identical_to_pre_scenario_runs(self):
        # The resume contract: ledgers recorded before the scenario plane
        # existed must keep matching.  Golden string, do not update.
        plan = CampaignPlan(
            queries=("q1",), rates=(3.0, 7.0, 4.0), engine="flink",
            tuner="streamtune", scale="smoke", seed=17,
        )
        assert plan.cell_keys() == [
            "flink:streamtune:nexmark_q1_flink:x3.0-7.0-4.0:lsvm:s17:e17"
        ]

    def test_trace_spec_in_rates_materializes(self):
        plan = TuningPlan(
            query="q1", trace={"family": "periodic", "params": {"n_steps": 4}},
            tuner="ds2", scale="smoke",
        )
        assert plan.rates == TraceSpec(
            family="periodic", params={"n_steps": 4}
        ).materialize()
        assert plan.trace == TraceSpec(family="periodic", params={"n_steps": 4})

    def test_spec_in_rates_fails_naming_the_trace_field(self):
        with pytest.raises(PlanError, match=r"write a trace spec as trace = \{"):
            TuningPlan(
                query="q1", rates={"family": "periodic", "params": {"n_steps": 4}},
                tuner="ds2",
            )

    def test_inline_family_fails_naming_the_raw_list(self):
        with pytest.raises(PlanError, match="trace: .*raw multiplier list"):
            CampaignPlan(
                queries=("q1",), tuner="ds2",
                trace={"family": "inline", "params": {"rates": [3, 7, 4]}},
            )

    def test_explicit_rates_must_agree_with_the_spec(self):
        spec = {"family": "periodic", "params": {"n_steps": 3}}
        # The spec's own rates pass (a round-tripped plan writes both) ...
        assert TuningPlan(query="q1", rates=(3, 7, 4), trace=spec).rates == (3.0, 7.0, 4.0)
        # ... and no list is taken for "omitted", the kind's default included.
        with pytest.raises(PlanError, match="disagrees"):
            TuningPlan(query="q1", rates=TuningPlan.default_rates, trace=spec)
        assert TuningPlan(query="q1").rates == TuningPlan.default_rates

    def test_non_finite_rates_rejected(self):
        for bad in (float("inf"), float("nan"), -1.0, 0.0):
            with pytest.raises(PlanError, match="finite and > 0"):
                TuningPlan(query="q1", rates=(3.0, bad), tuner="ds2")

    def test_trace_plan_round_trips_through_toml(self, tmp_path):
        plan = SweepPlan(
            queries=("q1",),
            tuners=("ds2",),
            engines=("flink-faulty",),
            rate_traces=(
                (3.0, 7.0),
                {"family": "bursty", "params": {"n_steps": 3}, "seed": 11},
            ),
            chaos=({}, {"operator_loss": [{"step": 1}]}),
            scale="smoke",
        )
        path = tmp_path / "matrix.toml"
        save_plan(plan, path)
        assert load_plan(path) == plan

    def test_chaos_axis_multiplies_scenarios_and_keys(self):
        plan = SweepPlan(
            queries=("q1",), tuners=("ds2",), engines=("flink-faulty",),
            rate_traces=((3.0, 7.0),),
            chaos=({}, {"operator_loss": [{"step": 1}]}),
            scale="smoke",
        )
        assert plan.n_scenarios == 2
        cells = list(plan.expand())
        labels = [plan.scenario_label(cell) for cell in cells]
        assert labels == [
            "ds2@flink-faulty/x3-7+none",
            "ds2@flink-faulty/x3-7+loss@1x1",
        ]
        assert cells[0].cell_keys()[0] + ":closs@1x1" == cells[1].cell_keys()[0]

    def test_chaos_free_sweep_labels_carry_no_suffix(self):
        plan = SweepPlan(
            queries=("q1",), tuners=("ds2",), engines=("flink",),
            rate_traces=((3.0, 7.0),), scale="smoke",
        )
        cell = next(iter(plan.expand()))
        assert plan.scenario_label(cell) == "ds2@flink/x3-7"

    def test_chaos_needs_a_capable_engine(self):
        with pytest.raises(PlanError, match="faults.*flink-faulty"):
            CampaignPlan(
                queries=("q1",), rates=(3.0, 7.0), engine="flink", tuner="ds2",
                chaos={"operator_loss": [{"step": 0}]}, scale="smoke",
            )

    def test_chaos_step_must_exist_in_the_trace(self):
        with pytest.raises(PlanError, match="step 5"):
            CampaignPlan(
                queries=("q1",), rates=(3.0, 7.0), engine="flink-faulty",
                tuner="ds2", chaos={"operator_loss": [{"step": 5}]},
                scale="smoke",
            )

    def test_noop_chaos_normalizes_to_none(self):
        plan = CampaignPlan(
            queries=("q1",), rates=(3.0, 7.0), engine="flink", tuner="ds2",
            chaos={}, scale="smoke",
        )
        assert plan.chaos is None
        assert ":c" not in plan.cell_keys()[0]

    def test_sweep_chaos_must_be_a_list(self):
        with pytest.raises(PlanError, match="list"):
            SweepPlan(
                queries=("q1",), tuners=("ds2",), engines=("flink-faulty",),
                rate_traces=((3.0, 7.0),),
                chaos={"operator_loss": [{"step": 0}]},
                scale="smoke",
            )

    def test_plan_from_dict_dispatches_sweeps_on_chaos(self):
        plan = plan_from_dict({
            "queries": ["q1"], "tuners": ["ds2"], "engines": ["flink-faulty"],
            "rate_traces": [[3.0, 7.0]],
            "chaos": [{}, {"operator_loss": [{"step": 1}]}],
            "scale": "smoke",
        })
        assert isinstance(plan, SweepPlan)


# ----------------------------------------------------------------------
# chaos specs and the injector
# ----------------------------------------------------------------------

class TestChaosSpec:
    def test_labels(self):
        assert ChaosSpec().label() == "none"
        spec = ChaosSpec(
            operator_loss=({"step": 1, "count": 2},),
            trace_dropout=({"step": 0, "factor": 0.5},),
        )
        assert spec.label() == "loss@1x2+drop@0x0.5"
        assert spec.max_step == 1
        assert spec.required_traits() == {"faults"}
        assert ChaosSpec(trace_dropout=({"step": 3},)).required_traits() == set()

    def test_dict_round_trip(self):
        spec = ChaosSpec(
            operator_loss=(OperatorLoss(step=2, count=1, operator="sink"),),
            trace_dropout=(TraceDropout(step=0, factor=0.1),),
        )
        assert ChaosSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"operator_loss": [{"step": -1}]}, "step"),
            ({"operator_loss": [{"step": 0, "count": 0}]}, "count"),
            ({"operator_loss": [{"count": 1}]}, "'step'"),
            ({"operator_loss": [{"step": 0, "node": "x"}]}, "'node'"),
            ({"trace_dropout": [{"step": 0, "factor": 1.0}]}, "factor"),
            ({"trace_dropout": "at step 3"}, "list"),
            # Present-but-falsy values are malformed, not "no entries".
            ({"operator_loss": ""}, "list"),
            ({"trace_dropout": {}}, "list"),
            # Chaos that cannot move a decision has no field.
            ({"latency_spikes": [{"step": 0, "seconds": 0.05}]},
             r"does not understand field\(s\) 'latency_spikes'"),
            ({"worker_churn": [{"after_cells": 30, "slot": 1}]},
             r"does not understand field\(s\) 'worker_churn'"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ScenarioError, match=match):
            ChaosSpec.from_dict(kwargs)


class TestChaosInjector:
    def _deployed(self, parallelism=3):
        from repro.api import build_engine, resolve_query

        engine = build_engine("flink-faulty", seed=7)
        query = resolve_query("q1", "flink-faulty")
        flow = query.flow
        deployment = engine.deploy(
            flow,
            dict.fromkeys(flow.operator_names, parallelism),
            query.rates_at(3.0),
        )
        return engine, query, deployment

    def test_loss_clamps_so_one_instance_survives(self):
        engine, _, deployment = self._deployed(parallelism=3)
        injector = ChaosInjector(ChaosSpec(operator_loss=({"step": 0, "count": 99},)))
        events = injector.begin_step(engine, deployment, 0)
        assert len(events) == 1
        assert events[0].count == 2      # 3 configured, >= 1 survives
        lost = engine.lost_instances(deployment)
        assert lost[events[0].operator] == 2

    def test_off_step_injects_nothing(self):
        engine, _, deployment = self._deployed()
        injector = ChaosInjector(ChaosSpec(operator_loss=({"step": 1},)))
        assert injector.begin_step(engine, deployment, 0) == []


# ----------------------------------------------------------------------
# registry satellites: engine families and traits come from the registry
# ----------------------------------------------------------------------

class TestEngineFamilies:
    def test_families_derive_from_registry_attribute(self):
        for name in ENGINES.names():
            entry = ENGINES.entry(name)
            assert engine_family(name) == (entry.family or entry.name)

    def test_variant_engines_keep_their_base_family(self):
        assert engine_family("flink-faulty") == "flink"
        assert engine_family("flink-paced") == "flink"
        assert engine_family("timely") == "timely"

    def test_traits_mark_chaos_capability(self):
        assert "faults" in ENGINES.entry("flink-faulty").traits
        assert ENGINES.entry("flink-paced").traits == ()
        assert ENGINES.entry("flink").traits == ()
