"""Tests for the command-line interface.

Every tuning run is ``run-plan`` on a plan file; the cases named
``tune`` cover the single-query lifecycle, i.e. a ``kind = "tuning"``
plan written to ``tmp_path``.
"""

from __future__ import annotations

import json

import pytest

from repro.api import TuningPlan, load_plan, resolve_query
from repro.cli import build_parser, main
from tests.conftest import save_plan


def _tuning_plan_file(tmp_path, **fields):
    """Write a JSON TuningPlan file (a fresh one per call), unvalidated,
    and return its path."""
    path = tmp_path / f"tuning-{len(list(tmp_path.iterdir()))}.json"
    path.write_text(json.dumps({"kind": "tuning", "scale": "smoke", **fields}))
    return path


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

    def test_tune_args(self, tmp_path):
        """What `tune` took as flags is a tuning plan file's fields."""
        path = _tuning_plan_file(tmp_path, model="m", query="q5", rates=[2, 9])
        args = build_parser().parse_args(["run-plan", str(path)])
        assert args.func.__name__ == "_cmd_run_plan"
        plan = load_plan(args.plan)
        assert isinstance(plan, TuningPlan)
        assert plan.rates == (2.0, 9.0)
        assert plan.model == "m"
        assert plan.layer == "svm"

    def test_tune_accepts_isotonic_layer(self, tmp_path):
        path = _tuning_plan_file(tmp_path, query="q2", layer="isotonic")
        assert load_plan(path).layer == "isotonic"

    def test_tune_rejects_unknown_layer(self, tmp_path, capsys):
        path = _tuning_plan_file(tmp_path, query="q2", layer="forest")
        assert main(["run-plan", str(path)]) == 2
        err = capsys.readouterr().err
        assert "forest" in err
        # the message lists what would have been accepted
        assert "svm" in err and "isotonic" in err

    def test_plan_flags_parse_identically(self):
        """run-plan is the one plan-running command on every backend; its
        overrides and spool flags default to "the plan's"."""
        args = build_parser().parse_args([
            "run-plan", "plan.toml", "--backend", "thread", "--workers", "3",
            "--scale", "smoke", "--spool-dir", "s", "--ttl", "2", "--no-fsync",
            "--report", "m.json",
        ])
        assert (args.backend, args.workers, args.scale) == ("thread", 3, "smoke")
        assert (args.spool_dir, args.ttl, args.no_fsync, args.report) == (
            "s", 2.0, True, "m.json"
        )
        args = build_parser().parse_args(["run-plan", "plan.toml"])
        assert (args.backend, args.workers, args.scale) == (None, None, None)
        assert (args.spool_dir, args.ttl, args.no_fsync, args.report) == (
            None, None, False, None
        )
        for backend in ("gpu", "process"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["run-plan", "plan.toml", "--backend", backend])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-plan", "plan.toml", "--local-workers", "0"])

    def test_legacy_subcommands_are_gone(self):
        for command in ("tune", "serve-campaigns", "sweep", "dispatch", "matrix"):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args([command, "plan.toml"])
            assert exit_info.value.code == 2

    def test_experiments_output_option(self, capsys):
        """``experiments`` takes the report path; the ablations run inside
        it, so the ``ablations`` subcommand is gone (argparse exit 2)."""
        args = build_parser().parse_args(["experiments", "--output", "paper.json"])
        assert (args.scale, args.output) == (None, "paper.json")
        assert args.func.__name__ == "_cmd_experiments"
        assert build_parser().parse_args(["experiments"]).output is None
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["ablations", "--scale", "smoke"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'ablations'" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "flag", ["--max-restarts", "--min-gap-cells", "--max-gap-cells",
                 "--warmup-cells"],
    )
    def test_soak_schedule_knobs_are_constants(self, capsys, flag):
        """The churn gaps, warm-up and restart budget are module
        constants of the supervisor, not flags (argparse exit 2)."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["soak", "plan.toml", flag, "3"])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err
        args = build_parser().parse_args(
            ["soak", "plan.toml", "--kills-per-worker", "1", "--seed", "7"]
        )
        assert (args.kills_per_worker, args.seed) == (1, 7)


class TestQueryResolution:
    def test_nexmark(self):
        assert resolve_query("q5", "flink").name == "nexmark_q5_flink"

    def test_pqp(self):
        assert resolve_query("2-way-join/3", "flink").name.startswith("pqp_2way")

    def test_unknown(self):
        with pytest.raises(KeyError):
            resolve_query("4-way/0", "flink")


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

        plan_path = tmp_path / "tune.toml"
        save_plan(
            TuningPlan(query="q1", rates=(3, 8), model=str(model_dir)), plan_path
        )
        assert main(["run-plan", str(plan_path)]) == 0
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

    def test_run_plan_trace_shards_is_an_unknown_field(self, tmp_path, capsys):
        # Trace sharding is gone: a plan file that still sets it fails at
        # load time, naming the field and listing the valid ones.
        path = tmp_path / "plan.toml"
        path.write_text('kind = "campaign"\nqueries = ["q1"]\ntrace_shards = 2\n')
        code = main(["run-plan", str(path)])
        err = self._assert_one_line_error(capsys, code)
        assert "trace_shards" in err and "valid fields" in err
        assert "cache_path" in err

    @pytest.mark.parametrize("kind,axis", [("campaign", ""), ("sweep", 'tuners = ["ds2"]\n')])
    @pytest.mark.parametrize(
        "retired", ["prioritize_backpressure = true", "rates_per_query = false"]
    )
    def test_run_plan_retired_option_is_an_unknown_field(
        self, retired, kind, axis, tmp_path, capsys
    ):
        # Each had one production value; a file that still spells it (even
        # at that value) is told which fields exist instead.
        path = tmp_path / "plan.toml"
        path.write_text(f'kind = "{kind}"\nqueries = ["q1"]\n{axis}{retired}\n')
        code = main(["run-plan", str(path)])
        err = self._assert_one_line_error(capsys, code)
        assert retired.split()[0] in err and "valid fields" in err
        assert "spool_dir" in err

    def test_cache_path_rejected_on_the_distributed_backend(self, tmp_path, capsys):
        # The override re-validates the plan, so the flag cannot smuggle
        # in a combination the plan file itself could not state.
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "queries": ["q1"], "rates": [3], "backend": "sequential",
            "scale": "smoke", "cache_path": str(tmp_path / "caches.pkl"),
        }))
        code = main(["run-plan", str(path), "--backend", "distributed"])
        err = self._assert_one_line_error(capsys, code)
        assert "cache_path" in err and "distributed" in err

    def test_run_plan_unknown_query(self, tmp_path, capsys):
        import json as json_module

        path = tmp_path / "plan.json"
        path.write_text(json_module.dumps({"queries": ["q99"], "scale": "smoke"}))
        code = main(["run-plan", str(path)])
        err = self._assert_one_line_error(capsys, code)
        assert "q99" in err

    def test_report_rejects_non_sweep_plan(self, tmp_path, capsys):
        import json as json_module

        path = tmp_path / "plan.json"
        path.write_text(
            json_module.dumps({"queries": ["q1"], "scale": "smoke"})
        )
        code = main(["run-plan", str(path), "--report", str(tmp_path / "m.json")])
        err = self._assert_one_line_error(capsys, code)
        assert "CampaignPlan" in err and "sweep" in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("flag,named", [
        (["--ttl", "2"], "--ttl"),
        (["--no-fsync"], "--no-fsync"),
        (["--spool-dir", "s"], "spool_dir"),
    ])
    def test_spool_flags_rejected_off_the_distributed_backend(
        self, flag, named, tmp_path, capsys, monkeypatch
    ):
        # Each would be a silent no-op on an in-process backend.
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "queries": ["q1"], "rates": [3], "tuner": "ds2",
            "backend": "thread", "scale": "smoke",
        }))
        code = main(["run-plan", str(path), *flag])
        err = self._assert_one_line_error(capsys, code)
        assert named in err and "distributed" in err and "thread" in err
        assert not (tmp_path / "s").exists()

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

    def test_tune_bad_rates_exit_code(self, tmp_path, capsys):
        # `3,,7`: an empty entry is a TOML syntax error ...
        path = tmp_path / "tune.toml"
        path.write_text('kind = "tuning"\nquery = "q1"\nrates = [3,,7]\n')
        err = self._assert_one_line_error(capsys, main(["run-plan", str(path)]))
        assert "not valid TOML" in err
        # ... and the string a shell would have passed is not a trace.
        path = _tuning_plan_file(tmp_path, query="q1", rates="3,,7")
        err = self._assert_one_line_error(capsys, main(["run-plan", str(path)]))
        assert "rates" in err and "3,,7" in err

    @pytest.mark.parametrize("error_class", [
        "missing-plan-file", "unknown-component", "missing-model-dir",
        "missing-history-file", "stale-cache-snapshot", "missing-resume-log",
        "bad-perf-tolerance", "unreachable-daemon", "missing-fault-plan",
        "malformed-fault-plan",
    ])
    def test_operator_errors_exit_2_with_one_line(
        self, error_class, tmp_path, capsys
    ):
        """One case per error class `main()` turns into exit code 2."""
        import pickle

        ds2 = tmp_path / "ds2.json"
        ds2.write_text(json.dumps({
            "queries": ["q1"], "rates": [3], "tuner": "ds2",
            "backend": "sequential", "scale": "smoke",
        }))
        stale = tmp_path / "stale.pkl"
        stale.write_bytes(pickle.dumps({
            "format": "repro.service.TuningCacheSet", "version": 999,
            "sections": {},
        }))
        missing = str(tmp_path / "no" / "such")
        bad_toml = tmp_path / "faults.toml"
        bad_toml.write_text("seed = = 7\n")
        argv, expected = {
            "missing-plan-file": (["run-plan", missing + ".toml"], missing),
            "unknown-component": (
                ["run-plan", str(_tuning_plan_file(tmp_path, query="q1", engine="storm"))],
                "storm",
            ),
            "missing-model-dir": (
                ["run-plan", str(_tuning_plan_file(tmp_path, query="q1", model=missing))],
                missing,
            ),
            "missing-history-file": (
                ["pretrain", "--history", missing, "--output", str(tmp_path / "m")],
                missing,
            ),
            "stale-cache-snapshot": (
                ["run-plan", str(_tuning_plan_file(
                    tmp_path, query="q1", cache_path=str(stale)
                ))],
                "999",
            ),
            "missing-resume-log": (["run-plan", str(ds2), "--resume", missing], missing),
            "bad-perf-tolerance": (["perf", "--tolerance", "2"], "tolerance"),
            "unreachable-daemon": (["jobs", "--url", "http://127.0.0.1:1"], "127.0.0.1:1"),
            "missing-fault-plan": (
                ["worker", str(tmp_path / "spool"), "--fault-plan", missing], missing
            ),
            "malformed-fault-plan": (
                ["worker", str(tmp_path / "spool"), "--fault-plan", str(bad_toml)],
                "faults.toml is not valid TOML",
            ),
        }[error_class]
        err = self._assert_one_line_error(capsys, main(argv))
        assert expected in err


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
            "run-plan", str(self._sweep_file(tmp_path)),
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


class TestExperimentsScale:
    """``repro experiments`` resolves its scale like
    ``python -m repro.experiments``: ``--scale``, else ``$REPRO_SCALE``."""

    @pytest.fixture()
    def ran_at(self, monkeypatch):
        import repro.experiments.__main__ as experiments_main

        from types import SimpleNamespace

        scales = []
        stub = SimpleNamespace(main=scales.append, claims=lambda result, scale: [])
        monkeypatch.setattr(experiments_main, "EXPERIMENTS", (("stub", stub),))
        return scales

    def test_environment_variable_is_honoured(self, ran_at, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        assert main(["experiments"]) == 0
        assert [scale.name for scale in ran_at] == ["smoke"]
        assert "scale: smoke" in capsys.readouterr().out

    def test_flag_wins_and_leaves_the_environment_alone(
        self, ran_at, monkeypatch, capsys
    ):
        import os

        monkeypatch.setenv("REPRO_SCALE", "default")
        assert main(["experiments", "--scale", "smoke"]) == 0
        assert [scale.name for scale in ran_at] == ["smoke"]
        assert "scale: smoke" in capsys.readouterr().out
        assert os.environ["REPRO_SCALE"] == "default"


def test_importing_the_cli_and_the_daemon_loads_no_scipy():
    """repro runs on numpy alone: with scipy unimportable, every module
    under ``src/repro`` imports, and ContTune's GP fits and predicts."""
    import os
    import subprocess
    import sys
    import textwrap
    from pathlib import Path

    script = textwrap.dedent("""
        import importlib, pkgutil, sys

        class RefuseScipy:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] == "scipy":
                    raise ImportError(f"{name} is refused")
                return None

        sys.meta_path.insert(0, RefuseScipy())
        import numpy as np
        import repro
        from repro.models.gp import GaussianProcess1D

        names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
        for name in names:
            importlib.import_module(name)
        gp = GaussianProcess1D().fit(np.array([1.0, 2.0, 4.0]), np.array([3.0, 5.0, 6.0]))
        mean, std = gp.predict(np.array([1.0, 3.0]))
        assert np.all(np.isfinite(mean)) and np.all(std > 0)
        print(len(names), sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    out = subprocess.run(
        [sys.executable, "-c", script],
        check=True, capture_output=True, text=True, env=env,
    ).stdout
    n_modules, scipy_modules = out.strip().split(" ", 1)
    assert int(n_modules) > 100  # the walk reached the whole package
    assert scipy_modules == "[]"
