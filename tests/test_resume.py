"""Checkpoint/resume tests: ResumeLog, service/session replay, CLI --resume.

The acceptance contract: a sweep interrupted after k of n campaigns and
re-run with ``--resume`` executes exactly n-k campaigns and produces
results bit-identical to the uninterrupted run, on both the thread and
process backends.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import (
    CampaignPlan,
    EventBus,
    JsonlRecorder,
    ResumeError,
    ResumeLog,
    SweepPlan,
    TuningPlan,
    TuningSession,
    load_plan,
)
from repro.api.events import read_event_log
from repro.service import CampaignSpec, TuningService
from repro.workloads import nexmark_query


def _truncate_after_first_finished(source, target):
    """Keep the log prefix up to (and including) the first finished
    campaign — what a killed fleet leaves behind."""
    kept = []
    for line in source.read_text().splitlines():
        kept.append(line)
        if json.loads(line)["event"] == "CampaignFinished":
            break
    target.write_text("\n".join(kept) + "\n")
    return target


def _step_maps(outcome):
    return [
        [step.parallelisms for step in process.steps]
        for process in outcome.result.processes
    ]


def _ds2_specs(names=("q1", "q5")):
    return [
        CampaignSpec(
            query=nexmark_query(name, "flink"),
            multipliers=(3.0, 7.0),
            engine_seed=31,
            seed=41,
            tuner="ds2",
        )
        for name in names
    ]


# ----------------------------------------------------------------------
# ResumeLog parsing
# ----------------------------------------------------------------------

class TestResumeLog:
    def _record(self, path, specs):
        service = TuningService(None, backend="sequential")
        with JsonlRecorder(path) as recorder:
            for event in service.stream(specs):
                recorder(event)

    def test_missing_file_is_a_clear_error(self, tmp_path):
        with pytest.raises(ResumeError, match="does not exist"):
            ResumeLog.load(tmp_path / "nope.jsonl")

    def test_garbage_file_is_a_clear_error(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("definitely not json\nalso not json\n")
        with pytest.raises(ResumeError, match="no parseable events"):
            ResumeLog.load(path)

    def test_indexes_completed_campaigns_by_cell_key(self, tmp_path):
        specs = _ds2_specs()
        path = tmp_path / "events.jsonl"
        self._record(path, specs)
        log = ResumeLog.load(path)
        assert log.n_completed == 2
        assert log.n_malformed_lines == 0
        for spec in specs:
            outcome = log.outcome_for(spec.cell_key)
            assert outcome is not None
            assert outcome.spec_name == spec.name
        assert log.outcome_for("flink:ds2:other:x3:s41") is None
        recorded, missing = log.covers(
            [specs[0].cell_key, "unknown", specs[1].cell_key]
        )
        assert recorded == [specs[0].cell_key, specs[1].cell_key]
        assert missing == ["unknown"]

    def test_crash_truncated_tail_is_tolerated(self, tmp_path):
        specs = _ds2_specs()
        path = tmp_path / "events.jsonl"
        self._record(path, specs)
        torn = tmp_path / "torn.jsonl"
        text = path.read_text()
        lines = text.splitlines()
        # Two lines of known kinds whose result payloads do not rebuild:
        # one lacks the method, one has a step with an unknown field.
        process = {"query_name": "q1", "tuner_name": "DS2", "converged": True,
                   "steps": [{"bogus": 1}]}
        damaged = [
            {"event": "CampaignFinished", "cell_key": "k",
             "result": {"query_name": "q1"}},
            {"event": "CampaignFinished", "cell_key": "k2",
             "result": {"query_name": "q1", "method": "ds2",
                        "multipliers": [3.0], "processes": [process]}},
        ]
        # cut the final line mid-write, as a crash would
        torn.write_text(
            "\n".join([*lines[:-1], *map(json.dumps, damaged)]) + "\n"
            + lines[-1][: len(lines[-1]) // 2]
        )
        log = ResumeLog.load(torn)
        assert log.n_malformed_lines == 3
        assert log.n_completed == 2          # finished lines were intact
        assert read_event_log(torn)[1] == 3

    def test_failed_campaigns_are_retried_not_resumed(self, tmp_path):
        from repro.api.events import CampaignFailed

        specs = _ds2_specs(names=("q1",))
        path = tmp_path / "events.jsonl"
        with JsonlRecorder(path) as recorder:
            recorder(CampaignFailed(
                campaign=specs[0].name, index=0, error_type="RuntimeError",
                error_message="boom", seq=0, cell_key=specs[0].cell_key,
            ))
        log = ResumeLog.load(path)
        assert log.n_completed == 0
        assert specs[0].cell_key in log.failed_cell_keys
        assert log.outcome_for(specs[0].cell_key) is None

    def test_finished_without_payload_is_not_a_checkpoint(self, tmp_path):
        # Logs predating result payloads must re-execute, not crash.
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps({
            "event": "CampaignFinished", "campaign": "c", "index": 0,
            "backend": "thread", "n_steps": 1, "converged_steps": 1,
            "wall_seconds": 0.1, "seq": 0, "scenario": None, "cell_key": "k",
        }) + "\n")
        log = ResumeLog.load(path)
        assert log.n_completed == 0


# ----------------------------------------------------------------------
# service-level resume
# ----------------------------------------------------------------------

class TestServiceResume:
    def test_resumed_run_skips_everything_and_matches(self, tmp_path):
        from repro.api.events import CampaignSkipped, CampaignStarted

        specs = _ds2_specs()
        path = tmp_path / "events.jsonl"
        service = TuningService(None, backend="sequential")
        with JsonlRecorder(path) as recorder:
            outcomes = {}
            for event in service.stream(specs):
                recorder(event)
                if event.kind == "CampaignFinished":
                    outcomes[event.index] = event.outcome
        log = ResumeLog.load(path)
        resumed_service = TuningService(None, backend="thread", max_workers=2)
        events = list(resumed_service.stream(specs, resume=log))
        assert not [e for e in events if isinstance(e, CampaignStarted)]
        skipped = [e for e in events if isinstance(e, CampaignSkipped)]
        assert [e.campaign for e in skipped] == [spec.name for spec in specs]
        assert all(e.resumed_from == str(path) for e in skipped)
        replayed = {
            e.index: e.outcome for e in events if e.kind == "CampaignFinished"
        }
        for index, original in outcomes.items():
            # replay is exact — including the recorded wall-clock fields
            assert replayed[index].result == original.result
            assert replayed[index].wall_seconds == original.wall_seconds

    def test_log_recorded_before_shards_was_dropped_still_resumes(self, tmp_path):
        # Logs written while CampaignStarted still carried ``shards``
        # stay loadable: unknown keys are dropped on the way in.
        from repro.api import event_from_dict
        from repro.api.events import CampaignStarted

        specs = _ds2_specs()
        path = tmp_path / "events.jsonl"
        with JsonlRecorder(path) as recorder:
            outcomes = {}
            for event in TuningService(None, backend="sequential").stream(specs):
                recorder(event)
                if event.kind == "CampaignFinished":
                    outcomes[event.index] = event.outcome
        lines = []
        for line in path.read_text().splitlines():
            data = json.loads(line)
            if data["event"] == "CampaignStarted":
                data["shards"] = 1
                assert isinstance(event_from_dict(data), CampaignStarted)
            lines.append(json.dumps(data))
        path.write_text("\n".join(lines) + "\n")
        resumed = TuningService(None, backend="sequential").run(
            specs, resume=ResumeLog.load(path)
        )
        assert [o.result for o in resumed] == [
            outcomes[index].result for index in range(len(specs))
        ]

    def test_partial_resume_executes_only_the_missing_campaign(self, tmp_path):
        from repro.api.events import CampaignSkipped, CampaignStarted

        specs = _ds2_specs()
        reference = TuningService(None, backend="sequential").run(specs)
        resume = {specs[0].cell_key: reference[0]}
        service = TuningService(None, backend="sequential")
        events = list(service.stream(specs, resume=resume))
        started = [e for e in events if isinstance(e, CampaignStarted)]
        skipped = [e for e in events if isinstance(e, CampaignSkipped)]
        assert [e.campaign for e in skipped] == [specs[0].name]
        assert [e.campaign for e in started] == [specs[1].name]
        outcomes = {e.index: e.outcome for e in events if e.kind == "CampaignFinished"}
        assert _step_maps(outcomes[1]) == _step_maps(reference[1])

    def test_run_accepts_resume(self, tmp_path):
        specs = _ds2_specs()
        reference = TuningService(None, backend="sequential").run(specs)
        resume = {spec.cell_key: outcome
                  for spec, outcome in zip(specs, reference)}
        outcomes = TuningService(None, backend="sequential").run(specs, resume=resume)
        assert [o.result for o in outcomes] == [o.result for o in reference]

    def test_bad_resume_type_rejected(self):
        service = TuningService(None, backend="sequential")
        with pytest.raises(TypeError, match="resume"):
            list(service.stream(_ds2_specs(), resume=42))

    def test_fully_resumed_streamtune_fleet_needs_no_pretrained(self, tmp_path,
                                                                tiny_pretrained):
        specs = [
            CampaignSpec(
                query=nexmark_query("q1", "flink"),
                multipliers=(3.0, 7.0),
                engine_seed=31,
                seed=41,
            )
        ]
        path = tmp_path / "events.jsonl"
        service = TuningService(tiny_pretrained, backend="sequential")
        with JsonlRecorder(path) as recorder:
            for event in service.stream(specs):
                recorder(event)
        # Every campaign is recorded: the artifact-free service replays
        # without tripping its streamtune-needs-pretrained validation.
        blind = TuningService(None, backend="sequential")
        outcomes = blind.run(specs, resume=ResumeLog.load(path))
        assert outcomes[0].result.method == "StreamTune"


# ----------------------------------------------------------------------
# the acceptance contract: interrupted sweep, bit-identical resume
# ----------------------------------------------------------------------

class TestSweepResume:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_interrupted_sweep_resumes_bit_identical(self, tiny_pretrained,
                                                     tmp_path, backend):
        plan = SweepPlan(
            queries=("q1", "q5"),
            tuners=("streamtune", "ds2"),
            rate_traces=((3.0, 7.0),),
            backend=backend,
            workers=2,
            scale="smoke",
            seed=17,
        )
        n_total = len(plan.cell_keys())
        full_log = tmp_path / "full.jsonl"
        with JsonlRecorder(full_log) as recorder:
            full = TuningSession(pretrained=tiny_pretrained).run(
                plan, bus=EventBus(recorder)
            )
        truncated = _truncate_after_first_finished(
            full_log, tmp_path / "truncated.jsonl"
        )
        resumed_log = tmp_path / "resumed.jsonl"
        with JsonlRecorder(resumed_log) as recorder:
            resumed = TuningSession(pretrained=tiny_pretrained).run(
                plan, bus=EventBus(recorder), resume=truncated
            )
        events = [
            json.loads(line) for line in resumed_log.read_text().splitlines()
        ]
        # interrupted after k=1 of n campaigns -> exactly n-1 executed
        started = [e for e in events if e["event"] == "CampaignStarted"]
        skipped = [e for e in events if e["event"] == "CampaignSkipped"]
        assert len(skipped) == 1
        assert len(started) == n_total - 1
        # ... and the merged results are bit-identical to the full run
        assert [label for label, _ in resumed.scenarios] == [
            label for label, _ in full.scenarios
        ]
        for (_, full_cell), (_, resumed_cell) in zip(
            full.scenarios, resumed.scenarios
        ):
            for ours, theirs in zip(full_cell.outcomes, resumed_cell.outcomes):
                assert ours.spec_name == theirs.spec_name
                assert ours.result.multipliers == theirs.result.multipliers
                assert _step_maps(ours) == _step_maps(theirs)
                assert [p.converged for p in ours.result.processes] == [
                    p.converged for p in theirs.result.processes
                ]

    def test_fully_recorded_sweep_replays_without_execution(self, tiny_pretrained,
                                                            tmp_path):
        plan = SweepPlan(
            queries=("q1",),
            tuners=("ds2",),
            rate_traces=((3.0, 7.0),),
            backend="sequential",
            scale="smoke",
            seed=17,
        )
        log = tmp_path / "full.jsonl"
        with JsonlRecorder(log) as recorder:
            full = TuningSession().run(plan, bus=EventBus(recorder))
        events = []
        stream = TuningSession().stream(plan, resume=log)
        while True:
            try:
                events.append(next(stream))
            except StopIteration as stop:
                resumed = stop.value
                break
        assert [e.kind for e in events if e.kind.startswith("Campaign")] == [
            "CampaignSkipped", "CampaignFinished"
        ]
        assert (
            resumed.results[0].outcomes[0].result
            == full.results[0].outcomes[0].result
        )


# ----------------------------------------------------------------------
# plan-level resume
# ----------------------------------------------------------------------

class TestPlanResume:
    def test_cell_key_bytes_are_pinned(self):
        # Literal keys captured at 272569b, before the plans expanded
        # through CampaignSpec: a ledger recorded then must still resume.
        tuning = TuningPlan(
            query="q5", rates=(3, 10, 5), layer="xgboost", scale="smoke", seed=23
        )
        assert tuning.cell_keys() == [
            "flink:streamtune:nexmark_q5_flink:x3.0-10.0-5.0:lxgboost:s23:e20250711"
        ]
        campaign = CampaignPlan(
            queries=("q1", "q5"), rates=(3, 7, 4, 2),
            tuner="streamtune-xgboost", scale="smoke",
        )
        assert campaign.cell_keys() == [
            "flink:streamtune-xgboost:nexmark_q1_flink:x3.0-7.0-4.0-2.0:lxgboost:s17:e17",
            "flink:streamtune-xgboost:nexmark_q5_flink:x3.0-7.0-4.0-2.0:lxgboost:s17:e17",
        ]
        matrix = load_plan(
            Path(__file__).resolve().parent.parent / "examples" / "matrix_smoke.toml"
        )
        assert matrix.cell_keys()[3] == (
            "flink-faulty:streamtune:nexmark_q1_flink:x9.0-9.0-2.0:lsvm:s17:e17"
            ":closs@1x1"
        )
        assert matrix.cell_keys()[4] == (
            "flink-faulty:ds2:nexmark_q1_flink:x3.0-7.0-4.0:s17:e17"
        )

    def test_cell_keys_match_the_stamped_events(self, tmp_path):
        plan = CampaignPlan(
            queries=("q1", "q5"), rates=(3.0, 7.0), tuner="ds2",
            backend="sequential", scale="smoke", seed=17,
        )
        log = tmp_path / "events.jsonl"
        with JsonlRecorder(log) as recorder:
            TuningSession().run(plan, bus=EventBus(recorder))
        recorded = {
            json.loads(line).get("cell_key")
            for line in log.read_text().splitlines()
            if json.loads(line)["event"] == "CampaignFinished"
        }
        assert recorded == set(plan.cell_keys())

    def test_tuning_plan_resume_replays_exactly(self, tmp_path):
        plan = TuningPlan(
            query="q1", rates=(3.0, 7.0), tuner="ds2", scale="smoke", seed=17
        )
        assert len(plan.cell_keys()) == 1
        log = tmp_path / "events.jsonl"
        with JsonlRecorder(log) as recorder:
            first = TuningSession().run(plan, bus=EventBus(recorder))
        events = []
        stream = TuningSession().stream(plan, resume=log)
        while True:
            try:
                events.append(next(stream))
            except StopIteration as stop:
                resumed = stop.value
                break
        assert [e.kind for e in events] == [
            "CampaignSkipped", "CampaignFinished", "CacheStats"
        ]
        # exact replay, recorded wall-clock fields included
        assert resumed.result == first.result
        assert resumed.outcomes[0].wall_seconds == first.outcomes[0].wall_seconds

    def test_cross_plan_resume_is_conservative(self, tmp_path):
        # A tuning plan seeds its engine from the scale while a
        # campaign fleet seeds it from the plan, so the same
        # (query, tuner, trace, seed) can still measure differently.
        # The cell keys encode that engine seed: a log recorded by one
        # plan kind must NOT resume the other — it re-executes instead
        # of replaying a result from a differently-seeded engine.
        tuning = TuningPlan(
            query="q1", rates=(3.0, 7.0), tuner="ds2", scale="smoke", seed=17
        )
        campaign = CampaignPlan(
            queries=("q1",), rates=(3.0, 7.0), tuner="ds2",
            backend="sequential", scale="smoke", seed=17,
        )
        assert tuning.cell_keys() != campaign.cell_keys()
        log = tmp_path / "tuning.jsonl"
        with JsonlRecorder(log) as recorder:
            TuningSession().run(tuning, bus=EventBus(recorder))
        events = []
        stream = TuningSession().stream(campaign, resume=log)
        while True:
            try:
                events.append(next(stream))
            except StopIteration:
                break
        kinds = [e.kind for e in events]
        assert "CampaignSkipped" not in kinds
        assert "CampaignStarted" in kinds


# ----------------------------------------------------------------------
# CLI --resume
# ----------------------------------------------------------------------

class TestCliResume:
    def _plan_file(self, tmp_path):
        plan = tmp_path / "campaign.json"
        plan.write_text(json.dumps({
            "kind": "campaign", "queries": ["q1"], "rates": [3, 7],
            "tuner": "ds2", "backend": "sequential", "scale": "smoke",
            "seed": 17,
        }))
        return plan

    def test_missing_resume_log_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        plan = self._plan_file(tmp_path)
        code = main(["run-plan", str(plan), "--resume", str(tmp_path / "no.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert "does not exist" in err and "Traceback" not in err

    def test_record_then_resume_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        plan = self._plan_file(tmp_path)
        log = tmp_path / "events.jsonl"
        assert main(["run-plan", str(plan), "--record", str(log)]) == 0
        capsys.readouterr()
        assert main(["run-plan", str(plan), "--resume", str(log)]) == 0
        captured = capsys.readouterr()
        assert "resume: 1 of 1 campaign(s) already recorded" in captured.err
        assert "executing 0" in captured.err

    def test_resume_auto_discovers_latest_record(self, tmp_path, capsys):
        # `--resume auto` picks the newest *.jsonl next to --record,
        # never the current run's own record target.
        import os

        from repro.cli import main

        plan = self._plan_file(tmp_path)
        log = tmp_path / "events.jsonl"
        assert main(["run-plan", str(plan), "--record", str(log)]) == 0
        stale = tmp_path / "older.jsonl"
        stale.write_text("not an event log\n")
        os.utime(stale, (1, 1))            # decisively older than the record
        capsys.readouterr()
        code = main([
            "run-plan", str(plan),
            "--record", str(tmp_path / "resumed.jsonl"),
            "--resume", "auto",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert f"resume: auto-discovered {log}" in err
        assert "executing 0" in err

    def test_resume_auto_without_logs_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        plan = self._plan_file(tmp_path)
        code = main([
            "run-plan", str(plan),
            "--record", str(tmp_path / "resumed.jsonl"),
            "--resume", "auto",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "no *.jsonl record" in err and "Traceback" not in err


class TestDiscoverLatestLog:
    def test_latest_mtime_wins(self, tmp_path):
        import os

        from repro.api.resume import discover_latest_log

        old = tmp_path / "a.jsonl"
        new = tmp_path / "b.jsonl"
        old.write_text("{}\n")
        new.write_text("{}\n")
        os.utime(old, (100, 100))
        os.utime(new, (200, 200))
        assert discover_latest_log(tmp_path) == new

    def test_mtime_ties_break_by_name(self, tmp_path):
        import os

        from repro.api.resume import discover_latest_log

        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        first.write_text("{}\n")
        second.write_text("{}\n")
        os.utime(first, (100, 100))
        os.utime(second, (100, 100))
        assert discover_latest_log(tmp_path) == second

    def test_equal_nanosecond_mtimes_pick_is_order_independent(self, tmp_path):
        # Coarse-timestamp filesystems routinely stamp two logs with the
        # exact same mtime.  Create the lexicographically-last log FIRST
        # so directory iteration order disagrees with the tie-break: the
        # winner must come from the path, not from creation order, and
        # must be identical at nanosecond resolution.
        import os

        from repro.api.resume import discover_latest_log

        last = tmp_path / "z.jsonl"
        first = tmp_path / "a.jsonl"
        last.write_text("{}\n")
        first.write_text("{}\n")
        stamp_ns = 1_700_000_000_123_456_789
        os.utime(first, ns=(stamp_ns, stamp_ns))
        os.utime(last, ns=(stamp_ns, stamp_ns))
        assert first.stat().st_mtime_ns == last.stat().st_mtime_ns
        for _ in range(3):                     # stable on every call
            assert discover_latest_log(tmp_path) == last

    def test_sub_second_mtime_difference_is_respected(self, tmp_path):
        # One nanosecond apart must not read as a tie: float st_mtime
        # would collapse these, st_mtime_ns keeps them ordered.
        import os

        from repro.api.resume import discover_latest_log

        older = tmp_path / "z.jsonl"          # name would win a tie
        newer = tmp_path / "a.jsonl"
        older.write_text("{}\n")
        newer.write_text("{}\n")
        stamp_ns = 1_700_000_000_123_456_789
        os.utime(older, ns=(stamp_ns, stamp_ns))
        os.utime(newer, ns=(stamp_ns + 1, stamp_ns + 1))
        if newer.stat().st_mtime_ns == older.stat().st_mtime_ns:
            pytest.skip("filesystem does not store nanosecond mtimes")
        assert discover_latest_log(tmp_path) == newer

    def test_exclude_removes_the_current_record_target(self, tmp_path):
        import os

        from repro.api.resume import discover_latest_log

        older = tmp_path / "a.jsonl"
        newest = tmp_path / "current.jsonl"
        older.write_text("{}\n")
        newest.write_text("{}\n")
        os.utime(older, (100, 100))
        os.utime(newest, (200, 200))
        assert discover_latest_log(tmp_path, exclude={newest}) == older

    def test_empty_directory_raises(self, tmp_path):
        from repro.api.resume import ResumeError, discover_latest_log

        with pytest.raises(ResumeError, match="no \\*.jsonl record"):
            discover_latest_log(tmp_path)

    def test_non_directory_raises(self, tmp_path):
        from repro.api.resume import ResumeError, discover_latest_log

        with pytest.raises(ResumeError, match="not a directory"):
            discover_latest_log(tmp_path / "missing")
