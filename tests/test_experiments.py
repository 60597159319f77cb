"""Tests for the experiment harness (scales, context, campaigns, figures)."""

from __future__ import annotations

import pytest

import json
from pathlib import Path
from types import SimpleNamespace

from repro.experiments import context, fig4_processing_ability as fig4
from repro.experiments import fig11_ablation as fig11
from repro.experiments.__main__ import EXPERIMENTS, main as run_experiments
from repro.experiments.campaigns import CampaignResult, run_campaign
from repro.experiments.claims import PAPER_SCHEMA, Claim, Deviation, judge
from repro.experiments.fig5_history_distribution import PAPER_DISTRIBUTION
from repro.experiments.scale import DEFAULT, PAPER, SMOKE, ExperimentScale, resolve_scale
from repro.baselines.api import TuningResult, TuningStep


class TestScale:
    def test_presets_resolvable(self):
        assert resolve_scale("smoke") is SMOKE
        assert resolve_scale("default") is DEFAULT
        assert resolve_scale("paper") is PAPER

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert resolve_scale() is SMOKE

    def test_unknown_scale(self):
        with pytest.raises(KeyError):
            resolve_scale("galactic")

    def test_paper_scale_matches_protocol(self):
        assert PAPER.n_rate_changes == 120
        assert PAPER.n_permutations == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentScale(
                name="bad", n_history_records=5, gnn_epochs=1, n_clusters=1,
                n_permutations=1, n_rate_changes=1, queries_per_template=1,
                n_latency_epochs=1, zerotune_epochs=1, zerotune_history=1,
            )
        with pytest.raises(ValueError):
            ExperimentScale(
                name="bad", n_history_records=100, gnn_epochs=1, n_clusters=1,
                n_permutations=1, n_rate_changes=40, queries_per_template=1,
                n_latency_epochs=1, zerotune_epochs=1, zerotune_history=1,
            )


class TestContext:
    def test_engines(self):
        assert context.make_engine("flink", SMOKE).name == "flink"
        assert context.make_engine("timely", SMOKE).name == "timely"
        with pytest.raises(KeyError):
            context.make_engine("storm", SMOKE)

    def test_corpus_sizes(self):
        assert len(context.corpus("flink")) == 61
        assert len(context.corpus("timely")) == 5

    def test_evaluation_groups(self):
        flink_groups = context.evaluation_queries("flink", SMOKE)
        assert tuple(flink_groups) == context.FLINK_GROUPS == (
            "q1", "q2", "q3", "q5", "q8", "linear", "2-way-join", "3-way-join"
        )
        assert context.FLINK_GROUPS[5:] == context.PQP_GROUPS
        timely_groups = context.evaluation_queries("timely", SMOKE)
        assert set(timely_groups) == {"q3", "q5", "q8"}

    def test_tuner_factory(self, tiny_history):
        engine = context.make_engine("flink", SMOKE)
        for method in ("DS2", "ContTune", "Oracle"):
            assert context.make_tuner(method, engine, SMOKE).name == method
        with pytest.raises(KeyError):
            context.make_tuner("magic", engine, SMOKE)

    def test_cache_is_keyed_and_clearable(self):
        context._CACHE["probe"] = 1
        assert context._cached("probe", lambda: 2) == 1
        del context._CACHE["probe"]
        assert context._cached("probe", lambda: 2) == 2


class TestCampaignResult:
    def _result(self, reconfigs: int, bp: int, total: int) -> TuningResult:
        result = TuningResult(query_name="q", tuner_name="t")
        for i in range(max(reconfigs, 1)):
            result.steps.append(
                TuningStep(
                    parallelisms={"op": total},
                    reconfigured=i < reconfigs,
                    backpressure_after=i < bp,
                    recommendation_seconds=0.01,
                    mean_cpu_utilisation=0.5,
                )
            )
        return result

    def test_aggregations(self):
        campaign = CampaignResult(query_name="q", method="t")
        campaign.multipliers = [3, 10, 3]
        campaign.processes = [
            self._result(2, 1, 5),
            self._result(1, 0, 9),
            self._result(1, 0, 5),
        ]
        assert campaign.average_reconfigurations == pytest.approx(4 / 3)
        assert campaign.total_backpressure_events == 1
        assert campaign.final_parallelism_at(10) == 9.0
        assert campaign.final_parallelism_at(3) == 5.0
        assert campaign.final_parallelisms_at(10) == {"op": 9}
        with pytest.raises(ValueError):
            campaign.final_parallelism_at(7)

    def test_cpu_trace_and_boundaries(self):
        campaign = CampaignResult(query_name="q", method="t")
        campaign.multipliers = [3, 10]
        campaign.processes = [self._result(2, 0, 5), self._result(1, 0, 5)]
        assert len(campaign.cpu_trace()) == 3
        assert campaign.process_boundaries() == [0, 2]


class TestRunCampaign:
    def test_oracle_micro_campaign(self):
        engine = context.make_engine("flink", SMOKE)
        tuner = context.make_tuner("Oracle", engine, SMOKE)
        query = context.evaluation_queries("flink", SMOKE)["q1"][0]
        result = run_campaign(engine, tuner, query, [3, 10, 5])
        assert result.n_processes == 3
        assert result.multipliers == [3, 10, 5]
        assert result.total_backpressure_events == 0
        assert result.final_parallelism_at(10) >= result.final_parallelism_at(5)


class TestFigureModules:
    def test_fig4_reproduces_paper_thresholds(self):
        report = judge(fig4.claims(fig4.run(), SMOKE), {}, "smoke")
        assert {row["id"]: row["status"] for row in report["claims"]} == {
            "fig4/filter-threshold==14": "pass",
            "fig4/window-threshold==10": "pass",
            "fig4/pa-strictly-increasing/filter": "pass",
            "fig4/pa-strictly-increasing/window": "pass",
        }
        assert report["failures"] == []

    def test_fig5_paper_distribution_sums_to_100(self):
        assert sum(PAPER_DISTRIBUTION.values()) == pytest.approx(100.0, abs=0.1)

    def test_fig11b_repeats_only_the_short_shots(self, monkeypatch):
        calls = []

        def center(graphs, tau, use_lsa):
            calls.append(use_lsa)
            return 0

        monkeypatch.setattr(fig11, "similarity_center", center)
        seconds = fig11._fastest([])
        assert calls == [False, True] * fig11.SHOTS
        assert all(0.0 <= value < fig11.REPEAT_BELOW_SECONDS for value in seconds)
        # A method whose fastest run reaches the bound runs once.
        calls.clear()
        monkeypatch.setattr(fig11, "REPEAT_BELOW_SECONDS", 0.0)
        fig11._fastest([])
        assert calls == [False, True]

    def test_fig11b_methods_must_agree_on_the_center(self, monkeypatch):
        monkeypatch.setattr(fig11, "similarity_center", lambda graphs, tau, use_lsa: int(use_lsa))
        with pytest.raises(AssertionError, match="agree"):
            fig11._fastest([])


REPO_ROOT = Path(__file__).resolve().parent.parent

HOLDS = Claim("figX/two<=three", 2, "<=", 3)
FAILS = Claim("figX/five<=three", 5, "<=", 3)
STRICT = Deviation("5 > 3", since="abc1234", strict=True)
WALL_CLOCK = Deviation("5 > 3 on a busy host", since="abc1234", strict=False)


class TestJudge:
    """``repro experiments`` on hand-built claim rows: the harness, not the
    run, owns the verdict."""

    def run(self, monkeypatch, claims, deviations=None, scale=SMOKE, output=None):
        stub = SimpleNamespace(
            main=lambda scale: None,
            claims=lambda result, scale: list(claims),
            DEVIATIONS=deviations or {},
        )
        monkeypatch.setattr("repro.experiments.__main__.EXPERIMENTS", (("Fig. X", stub),))
        return run_experiments(scale, output)

    def test_all_claims_hold(self, monkeypatch, capsys):
        assert self.run(monkeypatch, [HOLDS]) == 0
        captured = capsys.readouterr()
        assert "figX/two<=three" in captured.out and "pass" in captured.out
        assert captured.err == ""

    def test_unexpected_failure_names_the_claim(self, monkeypatch, capsys):
        assert self.run(monkeypatch, [HOLDS, FAILS]) == 1
        assert "FAIL figX/five<=three: 5 <= 3" in capsys.readouterr().err

    def test_strict_deviation_must_keep_failing(self, monkeypatch, capsys):
        assert self.run(monkeypatch, [FAILS], {FAILS.id: STRICT}) == 0
        assert "deviation" in capsys.readouterr().out
        assert self.run(monkeypatch, [HOLDS], {HOLDS.id: STRICT}) == 1
        assert "strict deviation" in capsys.readouterr().err

    def test_wall_clock_deviation_may_go_either_way(self, monkeypatch):
        assert self.run(monkeypatch, [FAILS], {FAILS.id: WALL_CLOCK}) == 0
        assert self.run(monkeypatch, [HOLDS], {HOLDS.id: WALL_CLOCK}) == 0

    def test_deviation_without_a_claim_fails(self, monkeypatch, capsys):
        assert self.run(monkeypatch, [HOLDS], {"figX/renamed": STRICT}) == 1
        assert "figX/renamed: listed as a deviation" in capsys.readouterr().err
        # A claim outside its scales is not evaluated, so it cannot carry one.
        elsewhere = Claim(FAILS.id, 5, "<=", 3, scales=("paper",))
        assert self.run(monkeypatch, [elsewhere], {FAILS.id: STRICT}) == 1

    def test_claim_outside_its_scales_is_skipped_not_passed(self, monkeypatch, tmp_path):
        elsewhere = Claim(FAILS.id, 5, "<=", 3, scales=("default", "paper"))
        path = tmp_path / "paper.json"
        assert self.run(monkeypatch, [HOLDS, elsewhere], output=str(path)) == 0
        report = json.loads(path.read_text())
        assert [row["status"] for row in report["claims"]] == ["pass", "skipped"]
        assert report["claims"][0]["figure"] == "Fig. X"
        assert self.run(monkeypatch, [HOLDS, elsewhere], scale=DEFAULT) == 1

    def test_deviations_are_readings_of_one_scale(self, monkeypatch):
        """The listed readings are smoke-scale ones; elsewhere the claim
        gates like any other."""
        assert self.run(monkeypatch, [FAILS], {FAILS.id: STRICT}, scale=DEFAULT) == 1
        assert self.run(monkeypatch, [HOLDS], {HOLDS.id: STRICT}, scale=DEFAULT) == 0

    @pytest.mark.parametrize("op, lhs, holds", [
        ("<=", 3, True), ("<", 3, False), (">=", 3, True), (">", 3, False),
        ("==", 3, True), ("==", 4, False), (">", 4, True), ("<", 2, True),
        (">=", float("nan"), False),
    ])
    def test_margin_and_verdict_agree(self, op, lhs, holds):
        claim = Claim("figX/op", lhs, op, 3)
        assert claim.holds is holds
        assert not (claim.margin < 0 if holds else claim.margin > 0)


class TestCommittedReport:
    """``BENCH_PAPER.json`` is the record of what this tree reproduces."""

    @pytest.fixture(scope="class")
    def report(self):
        return json.loads((REPO_ROOT / "BENCH_PAPER.json").read_text())

    @pytest.fixture(scope="class")
    def paper_check(self):
        from tests.test_utils import _load_script

        return _load_script("paper_check")

    def test_validates_against_the_schema(self, report, paper_check):
        assert report["schema"] == PAPER_SCHEMA
        assert paper_check.validate_paper_report(report) is report
        assert report["scale"] == "smoke" and report["failures"] == []
        with pytest.raises(ValueError, match="missing status"):
            paper_check.validate_paper_report(
                {**report, "claims": [{"id": "x", "figure": "", "lhs": 1, "op": "<",
                                       "rhs": 2, "seeded": True, "scales": [], "margin": 1}]}
            )

    def test_compare_is_exact_on_seeded_claims_only(self, report, paper_check, tmp_path, capsys):
        committed = str(REPO_ROOT / "BENCH_PAPER.json")

        def rerun(claim_id, **changes):
            edited = json.loads(json.dumps(report))
            row = next(row for row in edited["claims"] if row["id"] == claim_id)
            row.update(changes)
            path = tmp_path / "paper.json"
            path.write_text(json.dumps(edited))
            return paper_check.main(["compare", str(path), committed])

        assert paper_check.main(["compare", committed, committed]) == 0
        # a wall-clock reading may move, and a non-strict deviation may hold
        assert rerun("fig9b/largest-history-trains-longest", lhs=99.0, margin=90.0) == 0
        assert "margin moved - fig9b/largest-history-trains-longest" in capsys.readouterr().out
        assert rerun("fig11b/lsa-reduction>50%/20-dags", lhs=61.0, status="pass") == 0
        assert rerun("fig9b/largest-history-trains-longest", status="fail") == 1
        # a seeded one may not
        assert rerun("fig6/streamtune<=1.35*ds2/q5", lhs=1.0) == 1
        assert "fig6/streamtune<=1.35*ds2/q5: 1 <= " in capsys.readouterr().err

    def test_failing_claims_are_exactly_the_deviation_table(self, report):
        failing = {
            row["id"] for row in report["claims"]
            if row["status"] not in ("pass", "skipped")
        }
        assert failing == {row["id"] for row in report["deviations"]}
        assert all(row["status"] == "deviation" for row in report["claims"]
                   if row["id"] in failing)

    def test_deviation_table_is_the_modules_tables(self, report):
        listed = {}
        for _, module in EXPERIMENTS:
            listed.update(getattr(module, "DEVIATIONS", {}))
        assert [row["id"] for row in report["deviations"]] == list(listed)
        assert len(listed) == 3
