"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import _resolve_query, build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_history_args(self):
        args = build_parser().parse_args(
            ["history", "--output", "h.jsonl", "--records", "50"]
        )
        assert args.records == 50
        assert args.engine == "flink"

    def test_tune_args(self):
        args = build_parser().parse_args(
            ["tune", "--model", "m", "--query", "q5", "--rates", "2,9"]
        )
        assert args.rates == "2,9"
        assert args.layer == "svm"

    def test_tune_accepts_isotonic_layer(self):
        args = build_parser().parse_args(
            ["tune", "--model", "m", "--query", "q2", "--layer", "isotonic"]
        )
        assert args.layer == "isotonic"

    def test_tune_rejects_unknown_layer(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["tune", "--model", "m", "--query", "q2", "--layer", "forest"]
            )

    def test_ablations_subcommand(self):
        args = build_parser().parse_args(["ablations", "--scale", "smoke"])
        assert args.scale == "smoke"
        assert args.func.__name__ == "_cmd_ablations"


class TestQueryResolution:
    def test_nexmark(self):
        assert _resolve_query("q5", "flink").name == "nexmark_q5_flink"

    def test_pqp(self):
        assert _resolve_query("2-way-join/3", "flink").name.startswith("pqp_2way")

    def test_unknown(self):
        with pytest.raises(KeyError):
            _resolve_query("4-way/0", "flink")


class TestEndToEnd:
    def test_history_pretrain_tune_pipeline(self, tmp_path, capsys):
        history_path = tmp_path / "history.jsonl"
        model_dir = tmp_path / "model"

        assert main([
            "history", "--output", str(history_path),
            "--records", "400", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "wrote 400 records" in out

        assert main([
            "pretrain", "--history", str(history_path),
            "--output", str(model_dir), "--clusters", "2",
            "--epochs", "6", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "pre-trained 2 cluster encoder(s)" in out

        assert main([
            "tune", "--model", str(model_dir),
            "--query", "q1", "--rates", "3,8",
        ]) == 0
        out = capsys.readouterr().out
        assert "StreamTune tuning" in out
        assert "converged" in out


class TestValidationExitCodes:
    """Plan-validation failures exit 2 with a one-line message, never a
    traceback (asserted via capsys: stderr is exactly one line)."""

    def _assert_one_line_error(self, capsys, code):
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err
        return err

    def test_run_plan_missing_file(self, capsys):
        code = main(["run-plan", "no_such_plan.toml"])
        err = self._assert_one_line_error(capsys, code)
        assert "does not exist" in err

    def test_run_plan_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["run-plan", str(path)])
        err = self._assert_one_line_error(capsys, code)
        assert "not valid JSON" in err

    def test_run_plan_unknown_field(self, tmp_path, capsys):
        import json as json_module

        path = tmp_path / "plan.json"
        path.write_text(json_module.dumps({"queries": ["q1"], "ratez": [3]}))
        code = main(["run-plan", str(path)])
        err = self._assert_one_line_error(capsys, code)
        assert "ratez" in err

    def test_run_plan_unknown_query(self, tmp_path, capsys):
        import json as json_module

        path = tmp_path / "plan.json"
        path.write_text(json_module.dumps({"queries": ["q99"], "scale": "smoke"}))
        code = main(["run-plan", str(path)])
        err = self._assert_one_line_error(capsys, code)
        assert "q99" in err

    def test_sweep_rejects_non_sweep_plan(self, tmp_path, capsys):
        import json as json_module

        path = tmp_path / "plan.json"
        path.write_text(
            json_module.dumps({"queries": ["q1"], "scale": "smoke"})
        )
        code = main(["sweep", str(path)])
        err = self._assert_one_line_error(capsys, code)
        assert "CampaignPlan" in err and "sweep" in err

    def test_stale_cache_snapshot_is_one_line(self, tmp_path, capsys, monkeypatch):
        import json as json_module
        import pickle

        import repro.experiments.context as context

        # The snapshot is rejected before any model is trained.
        built = []
        monkeypatch.setattr(
            context, "pretrained_model", lambda *args: built.append(args)
        )
        snapshot = tmp_path / "stale.pkl"
        snapshot.write_bytes(
            pickle.dumps(
                {
                    "format": "repro.service.TuningCacheSet",
                    "version": 999,
                    "sections": {},
                }
            )
        )
        path = tmp_path / "plan.json"
        path.write_text(
            json_module.dumps(
                {
                    "queries": ["q1"],
                    "rates": [3],
                    "backend": "sequential",
                    "scale": "smoke",
                    "cache_path": str(snapshot),
                }
            )
        )
        code = main(["run-plan", str(path)])
        err = self._assert_one_line_error(capsys, code)
        assert "999" in err and "version" in err
        assert built == []

    def test_tune_bad_rates_exit_code(self, capsys):
        code = main(["tune", "--model", "m", "--query", "q1", "--rates", "3,,7"])
        self._assert_one_line_error(capsys, code)


class TestSweepCommand:
    def _sweep_file(self, tmp_path):
        import json as json_module

        path = tmp_path / "sweep.json"
        path.write_text(
            json_module.dumps(
                {
                    "kind": "sweep",
                    "queries": ["q1", "q5"],
                    "tuners": ["streamtune", "ds2"],
                    "rate_traces": [[3, 7]],
                    "backend": "sequential",
                    "scale": "smoke",
                    "seed": 41,
                }
            )
        )
        return path

    def test_sweep_end_to_end_with_events(
        self, tiny_pretrained, tmp_path, capsys, monkeypatch
    ):
        import json as json_module

        from repro.experiments import context

        monkeypatch.setattr(
            context, "pretrained_model", lambda engine, scale: tiny_pretrained
        )
        record = tmp_path / "events.jsonl"
        code = main([
            "sweep", str(self._sweep_file(tmp_path)),
            "--follow", "--record", str(record),
        ])
        assert code == 0
        captured = capsys.readouterr()
        # summary table: one row per (scenario, query)
        assert "streamtune@flink/x3-7" in captured.out
        assert "ds2@flink/x3-7" in captured.out
        assert "recorded" in captured.out
        # --follow progress lines went to stderr
        assert "nexmark_q1_flink" in captured.err
        # the JSONL log replays the run: one Started/Finished pair per
        # campaign per scenario, steps monotonic per campaign
        events = [json_module.loads(line) for line in record.read_text().splitlines()]
        starts = [e for e in events if e["event"] == "CampaignStarted"]
        finishes = [e for e in events if e["event"] == "CampaignFinished"]
        assert len(starts) == len(finishes) == 4       # 2 scenarios x 2 queries
        assert {e["scenario"] for e in starts} == {
            "streamtune@flink/x3-7", "ds2@flink/x3-7"
        }
        assert events[-1]["event"] == "SweepFinished"
        for start in starts:
            steps = [
                e["step_index"] for e in events
                if e["event"] == "StepCompleted"
                and e["campaign"] == start["campaign"]
                and e["scenario"] == start["scenario"]
            ]
            assert steps == [0, 1]

    def test_run_plan_accepts_sweep_files(
        self, tiny_pretrained, tmp_path, capsys, monkeypatch
    ):
        from repro.experiments import context

        monkeypatch.setattr(
            context, "pretrained_model", lambda engine, scale: tiny_pretrained
        )
        assert main(["run-plan", str(self._sweep_file(tmp_path))]) == 0
        assert "sweep: 2 scenario(s)" in capsys.readouterr().out


class TestRunPlanStreaming:
    def test_follow_and_record_campaign(
        self, tiny_pretrained, tmp_path, capsys, monkeypatch
    ):
        import json as json_module

        from repro.experiments import context

        monkeypatch.setattr(
            context, "pretrained_model", lambda engine, scale: tiny_pretrained
        )
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            json_module.dumps(
                {
                    "queries": ["q1"],
                    "rates": [3, 7],
                    "backend": "sequential",
                    "scale": "smoke",
                    "seed": 41,
                }
            )
        )
        record = tmp_path / "events.jsonl"
        assert main([
            "run-plan", str(plan_path), "--follow", "--record", str(record),
        ]) == 0
        captured = capsys.readouterr()
        assert "step 1/2" in captured.err and "step 2/2" in captured.err
        events = [json_module.loads(line) for line in record.read_text().splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "CampaignStarted"
        assert kinds[-1] == "CacheStats"
        assert kinds.count("CampaignFinished") == 1
