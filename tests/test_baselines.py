"""Tests for the DS2, ContTune, ZeroTune and Oracle tuners."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.baselines import ContTuneTuner, DS2Tuner, OracleTuner, ZeroTuneTuner
from repro.baselines._demand import propagate_target_demand
from repro.baselines.api import ParallelismTuner, TuningResult, TuningStep
from repro.engines.flink import FlinkCluster
from repro.engines.timely import TimelyCluster
from repro.workloads.nexmark import nexmark_query


@pytest.fixture
def q2():
    return nexmark_query("q2", "flink")


def cold_deployment(engine, query, multiplier=3):
    return engine.deploy(
        query.flow,
        dict.fromkeys(query.flow.operator_names, 1),
        query.rates_at(multiplier),
    )


class TestOracle:
    def test_one_shot_and_backpressure_free(self, q2):
        engine = FlinkCluster(seed=11)
        tuner = OracleTuner(engine)
        deployment = cold_deployment(engine, q2)
        result = tuner.tune(deployment, q2.rates_at(10))
        assert result.n_reconfigurations == 1
        assert result.converged
        assert not engine.ground_truth(deployment).has_backpressure

    def test_oracle_is_minimal(self, q2, noiseless):
        """Dropping any operator by one degree must re-saturate the job."""
        engine = FlinkCluster(seed=11)
        tuner = OracleTuner(engine)
        deployment = cold_deployment(engine, q2)
        tuner.tune(deployment, q2.rates_at(10))
        optimal = dict(deployment.parallelisms)
        for name in optimal:
            if optimal[name] == 1:
                continue
            reduced = dict(optimal)
            reduced[name] -= 1
            engine.reconfigure(deployment, reduced)
            assert engine.ground_truth(deployment).has_backpressure, name
            engine.reconfigure(deployment, optimal)


class TestDS2:
    def test_clears_backpressure(self, q2):
        engine = FlinkCluster(seed=12)
        tuner = DS2Tuner(engine)
        deployment = cold_deployment(engine, q2)
        result = tuner.tune(deployment, q2.rates_at(10))
        assert not engine.ground_truth(deployment).has_backpressure
        assert result.n_reconfigurations >= 1

    def test_near_oracle_total(self, q2):
        engine = FlinkCluster(seed=12)
        oracle_total = sum(
            OracleTuner(engine).optimal_parallelisms(
                cold_deployment(engine, q2), q2.rates_at(10)
            ).values()
        )
        tuner = DS2Tuner(engine)
        deployment = cold_deployment(engine, q2)
        result = tuner.tune(deployment, q2.rates_at(10))
        assert result.final_total_parallelism <= 2 * oracle_total

    def test_scales_down_after_rate_drop(self, q2):
        engine = FlinkCluster(seed=12)
        tuner = DS2Tuner(engine)
        deployment = cold_deployment(engine, q2)
        high = tuner.tune(deployment, q2.rates_at(10)).final_total_parallelism
        low = tuner.tune(deployment, q2.rates_at(2)).final_total_parallelism
        assert low < high

    def test_demand_propagation_uses_observed_selectivity(self, q2, noiseless):
        engine = FlinkCluster(seed=12)
        deployment = engine.deploy(
            q2.flow, {"src_bids": 2, "filter_auction": 30, "sink": 4},
            q2.rates_at(3),
        )
        telemetry = engine.measure(deployment)
        demand = propagate_target_demand(deployment, telemetry, q2.rates_at(10))
        assert demand["src_bids"] == pytest.approx(9e6)
        assert demand["filter_auction"] == pytest.approx(9e6, rel=1e-6)
        assert demand["sink"] == pytest.approx(0.2 * 9e6, rel=1e-3)


class TestContTune:
    def test_clears_backpressure(self, q2):
        engine = FlinkCluster(seed=13)
        tuner = ContTuneTuner(engine)
        deployment = cold_deployment(engine, q2)
        tuner.tune(deployment, q2.rates_at(10))
        assert not engine.ground_truth(deployment).has_backpressure

    def test_history_accumulates_across_processes(self, q2):
        engine = FlinkCluster(seed=13)
        tuner = ContTuneTuner(engine)
        deployment = cold_deployment(engine, q2)
        tuner.tune(deployment, q2.rates_at(3))
        count_after_first = len(tuner._history["filter_auction"])
        tuner.tune(deployment, q2.rates_at(7))
        assert len(tuner._history["filter_auction"]) > count_after_first

    def test_prepare_resets_job_history(self, q2):
        engine = FlinkCluster(seed=13)
        tuner = ContTuneTuner(engine)
        deployment = cold_deployment(engine, q2)
        tuner.tune(deployment, q2.rates_at(3))
        assert "filter_auction" in tuner._history
        tuner.prepare(q2)
        assert "filter_auction" not in tuner._history

    def test_later_processes_lean_on_history(self, q2):
        """Revisiting a rate with a populated GP needs few reconfigs."""
        engine = FlinkCluster(seed=13)
        tuner = ContTuneTuner(engine)
        deployment = cold_deployment(engine, q2)
        tuner.tune(deployment, q2.rates_at(10))
        tuner.tune(deployment, q2.rates_at(3))
        again = tuner.tune(deployment, q2.rates_at(10)).n_reconfigurations
        assert again <= 2

    @pytest.mark.parametrize("seed", [3, 29])
    def test_never_redeploys_at_or_below_a_known_bad_degree(self, seed, monkeypatch):
        """ContTune's conservative-exploration guarantee (arXiv 2309.12239),
        which the paper's ContTune comparisons rest on: within one tuning
        process, once a step left operator *v* backpressured (Algorithm 1
        label 1) at degree *p*, no later step deploys *v* at <= *p* —
        the floor goes on before ``stabilize``, which must not undo it.
        Only the engine's parallelism cap excuses a repeat of *p*.
        """
        from repro.baselines import conttune
        from repro.experiments import context
        from repro.experiments.scale import SMOKE
        from repro.scenarios.library import periodic_multipliers

        blamed: list[dict[str, int]] = []
        label_operators = conttune.label_operators

        def spy(flow, telemetry, engine_name):
            labels = label_operators(flow, telemetry, engine_name)
            blamed.append({
                name: telemetry[name].parallelism
                for name, label in labels.items() if label == 1
            })
            return labels

        monkeypatch.setattr(conttune, "label_operators", spy)
        n_checked = 0
        for group, queries in context.evaluation_queries("flink", SMOKE).items():
            query = queries[0]
            engine = FlinkCluster(seed=seed)
            tuner = ContTuneTuner(engine)
            tuner.prepare(query)
            deployment = cold_deployment(engine, query)
            for multiplier in periodic_multipliers(n_permutations=1, seed=seed):
                blamed.clear()
                steps = tuner.tune(deployment, query.rates_at(multiplier)).steps
                backpressured = [i for i, step in enumerate(steps) if step.backpressure_after]
                assert len(backpressured) == len(blamed)
                for index, bad in zip(backpressured, blamed):
                    for name, degree in bad.items():
                        if degree >= engine.max_parallelism:
                            continue
                        for later in steps[index + 1:]:
                            n_checked += 1
                            assert later.parallelisms[name] > degree, (
                                group, multiplier, name, degree, later.parallelisms
                            )
        assert n_checked >= 10, "the campaigns barely exercised the guarantee"


class TestZeroTune:
    @pytest.fixture
    def zerotune(self, tiny_history):
        engine = FlinkCluster(seed=14)
        return engine, ZeroTuneTuner(engine, tiny_history[:150], epochs=3, seed=15)

    def test_requires_history(self):
        with pytest.raises(ValueError):
            ZeroTuneTuner(FlinkCluster(seed=1), [])

    def test_fit_is_pinned(self, zerotune):
        """The cost model trains one graph per step through the layers'
        2-D path; its parameters, hashed, must not move by a bit."""
        _, tuner = zerotune
        tuner.fit()
        digest = hashlib.sha256()
        for parameter in tuner._model.parameters():
            digest.update(np.ascontiguousarray(parameter.value).tobytes())
        assert digest.hexdigest() == (
            "1aca07b45c176ed6e736ea9cb6841eaf0c5f0064e90e8e32c5e31d395164fa97"
        )

    def test_fit_idempotent(self, zerotune):
        _, tuner = zerotune
        tuner.fit()
        model = tuner._model
        tuner.fit()
        assert tuner._model is model

    def test_single_reconfiguration(self, zerotune, q2):
        engine, tuner = zerotune
        deployment = cold_deployment(engine, q2)
        result = tuner.tune(deployment, q2.rates_at(5))
        assert result.n_reconfigurations <= 1
        assert len(result.steps) == 1

    def test_recommends_more_than_oracle(self, zerotune, q2):
        """No resource term in the objective -> over-provisioning."""
        engine, tuner = zerotune
        oracle_total = sum(
            OracleTuner(engine).optimal_parallelisms(
                cold_deployment(engine, q2), q2.rates_at(5)
            ).values()
        )
        deployment = cold_deployment(engine, q2)
        result = tuner.tune(deployment, q2.rates_at(5))
        assert result.final_total_parallelism > oracle_total


class TestTimelyOverprovisioningMechanism:
    def test_ds2_overprovisions_on_timely(self):
        """Spin inflation makes DS2 scale the bottleneck well above need."""
        query = nexmark_query("q8", "timely")
        engine = TimelyCluster(seed=16)
        oracle = OracleTuner(engine)
        deployment = cold_deployment(engine, query, multiplier=3)
        optimal = oracle.optimal_parallelisms(deployment, query.rates_at(10))
        ds2 = DS2Tuner(engine)
        result = ds2.tune(deployment, query.rates_at(10))
        # The windowed join is the binding operator: DS2's useful-time
        # deflation should roughly multiply its degree by the spin factor.
        assert result.final_parallelisms["win_join"] >= 1.5 * optimal["win_join"]
        assert result.final_total_parallelism >= sum(optimal.values())


class TestResultInvariants:
    def test_backpressure_events_subset_of_reconfigs(self, q2, tiny_history):
        engine = FlinkCluster(seed=17)
        for tuner in (DS2Tuner(engine), ContTuneTuner(engine), OracleTuner(engine)):
            deployment = cold_deployment(engine, q2)
            result = tuner.tune(deployment, q2.rates_at(8))
            assert result.n_backpressure_events <= result.n_reconfigurations
            engine.stop(deployment)

    def test_empty_result_raises_on_final(self):
        result = TuningResult(query_name="q", tuner_name="t")
        with pytest.raises(ValueError):
            _ = result.final_parallelisms

    def test_stabilize_deadband(self, q2):
        engine = FlinkCluster(seed=18)
        tuner = DS2Tuner(engine)
        current = {"a": 10, "b": 2}
        proposal = {"a": 11, "b": 2}
        assert tuner.stabilize(proposal, current, has_backpressure=False) == current
        jump = {"a": 15, "b": 2}
        assert tuner.stabilize(jump, current, has_backpressure=False) == jump
        assert tuner.stabilize(proposal, current, has_backpressure=True) == proposal


class _StubPolicy(ParallelismTuner):
    """A policy whose decisions the test scripts: ``decide`` calls
    ``plan(process)``, ``escalate`` measures the job once (as StreamTune's
    does) and is counted."""

    name = "stub"

    def __init__(self, engine, plan, *, max_rounds=4, measure_first=False):
        super().__init__(engine)
        self.plan = plan
        self.max_rounds = max_rounds
        self.measure_first = measure_first
        self.escalations = 0

    def decide(self, process):
        return self.plan(process)

    def escalate(self, process, recommendation):
        self.escalations += 1
        self.engine.measure(process.deployment)
        return recommendation


class TestTuningProcessLoop:
    """The contract of :meth:`ParallelismTuner.tune`, the one loop every
    method runs, checked with a stub policy on a real engine."""

    @staticmethod
    def _counted(engine, monkeypatch, sleep=0.0):
        import time

        calls: list = []
        measure = engine.measure

        def counting(deployment):
            calls.append(dict(deployment.parallelisms))
            time.sleep(sleep)
            return measure(deployment)

        monkeypatch.setattr(engine, "measure", counting)
        return calls

    def test_a_process_stops_at_the_round_budget(self, q2):
        engine = FlinkCluster(seed=21)
        # Every round jumps past the deadband, so no round settles.
        tuner = _StubPolicy(engine, lambda process: {
            name: p + 5 for name, p in process.deployment.parallelisms.items()
        })
        result = tuner.tune(cold_deployment(engine, q2), q2.rates_at(10))
        assert len(result.steps) == tuner.max_rounds
        assert all(step.reconfigured for step in result.steps)
        assert not result.converged

    def test_an_unchanged_round_without_backpressure_converges(self, q2, noiseless):
        engine = FlinkCluster(seed=21)
        deployment = cold_deployment(engine, q2)
        generous = {
            name: 2 * p for name, p in OracleTuner(engine).optimal_parallelisms(
                deployment, q2.rates_at(5)
            ).items()
        }
        engine.reconfigure(deployment, generous)
        tuner = _StubPolicy(engine, lambda process: dict(generous))
        result = tuner.tune(deployment, q2.rates_at(5))
        assert len(result.steps) == 1
        assert not result.steps[0].reconfigured
        assert result.converged

    def test_a_repeat_under_backpressure_escalates_and_never_converges(self, q2):
        engine = FlinkCluster(seed=21)
        deployment = cold_deployment(engine, q2)
        stuck = dict(deployment.parallelisms)
        tuner = _StubPolicy(engine, lambda process: dict(stuck))
        result = tuner.tune(deployment, q2.rates_at(10))
        assert all(step.backpressure_after for step in result.steps)
        assert len(result.steps) == tuner.max_rounds
        assert not any(step.reconfigured for step in result.steps)
        assert not result.converged
        # Every round after the first repeats its predecessor.
        assert tuner.escalations == tuner.max_rounds - 1

    @pytest.mark.parametrize("multiplier, converged", [(5, True), (10, False)])
    def test_a_one_round_method_converges_on_its_only_round(
        self, q2, noiseless, multiplier, converged
    ):
        """A one-round method converges when its one redeployment leaves no
        backpressure, although that round changed the map."""
        engine = FlinkCluster(seed=21)
        deployment = cold_deployment(engine, q2)
        feasible_at_5 = OracleTuner(engine).optimal_parallelisms(
            deployment, q2.rates_at(5)
        )
        tuner = _StubPolicy(engine, lambda process: dict(feasible_at_5), max_rounds=1)
        result = tuner.tune(deployment, q2.rates_at(multiplier))
        assert len(result.steps) == 1
        assert result.steps[0].reconfigured
        assert result.converged is converged

    @pytest.mark.parametrize("measure_first", [False, True])
    def test_one_measurement_per_round_plus_one_for_measure_first(
        self, q2, monkeypatch, measure_first
    ):
        engine = FlinkCluster(seed=21)
        calls = self._counted(engine, monkeypatch)
        tuner = _StubPolicy(engine, lambda process: {
            name: p + 5 for name, p in process.deployment.parallelisms.items()
        }, measure_first=measure_first)
        result = tuner.tune(cold_deployment(engine, q2), q2.rates_at(10))
        assert len(calls) == len(result.steps) + measure_first
        # Each round measures the map it just deployed.
        assert calls[measure_first:] == [step.parallelisms for step in result.steps]

    def test_recommendation_seconds_leaves_measurements_out(self, q2, monkeypatch):
        sleep = 0.05
        engine = FlinkCluster(seed=21)
        calls = self._counted(engine, monkeypatch, sleep=sleep)
        deployment = cold_deployment(engine, q2)
        stuck = dict(deployment.parallelisms)
        # Measure-first, one measurement per round and one per escalation:
        # every one of them sleeps, and no step's clock may see it.
        tuner = _StubPolicy(engine, lambda process: dict(stuck), measure_first=True)
        result = tuner.tune(deployment, q2.rates_at(10))
        assert tuner.escalations == len(result.steps) - 1 > 0
        assert len(calls) == 1 + len(result.steps) + tuner.escalations
        assert all(step.recommendation_seconds < sleep for step in result.steps)
