"""Tests for the benchmark matrix: report schema, backend determinism,
chaos execution through the stream, and chaos-enabled resume.

The acceptance contract: ``repro matrix`` expands a sweep grid (traces x
tuners x engines x chaos) into a ``repro.matrix/v1`` report whose
deterministic view is bit-identical on every backend, and a chaos-enabled
campaign resumes from a recorded log exactly like a clean one.
"""

from __future__ import annotations

import json

import pytest

from repro.api import (
    ChaosInjected,
    EventBus,
    JsonlRecorder,
    ResumeLog,
    SweepPlan,
    TuningSession,
    event_from_dict,
)
from repro.scenarios import (
    MATRIX_SCHEMA,
    matrix_determinism_view,
    matrix_report,
    validate_matrix_report,
)


def _grid_plan(backend="sequential"):
    """A tiny ds2-only matrix: 2 traces x 2 chaos schedules = 4 cells."""
    return SweepPlan(
        queries=("q1",),
        tuners=("ds2",),
        engines=("flink-faulty",),
        rate_traces=(
            (3.0, 7.0, 4.0),
            {"family": "bursty", "params": {"n_steps": 3}, "seed": 11},
        ),
        chaos=({}, {"operator_loss": [{"step": 1}]}),
        backend=backend,
        scale="smoke",
        seed=17,
    )


def _step_maps(outcome):
    return [
        [step.parallelisms for step in process.steps]
        for process in outcome.result.processes
    ]


@pytest.fixture(scope="module")
def sequential_run():
    return TuningSession().run(_grid_plan())


class TestMatrixReport:
    def test_schema_and_shape(self, sequential_run):
        report = matrix_report(sequential_run, backend="sequential")
        validate_matrix_report(report)
        assert report["schema"] == MATRIX_SCHEMA
        assert report["n_scenarios"] == 4
        assert report["n_campaigns"] == len(report["cells"]) == 4
        assert report["grid"]["tuners"] == ["ds2"]
        assert report["grid"]["chaos"] == ["none", "loss@1x1"]

    def test_rows_carry_the_cell_identity(self, sequential_run):
        report = matrix_report(sequential_run)
        keys = [cell["cell_key"] for cell in report["cells"]]
        assert keys == [
            key for cell in _grid_plan().expand() for key in cell.cell_keys()
        ]
        chaotic = [cell for cell in report["cells"] if cell["chaos"] != "none"]
        assert len(chaotic) == 2
        assert all(cell["cell_key"].endswith(":closs@1x1") for cell in chaotic)
        by_family = {cell["trace"]["family"] for cell in report["cells"]}
        assert by_family == {"inline", "bursty"}

    def test_validation_rejects_a_tampered_report(self, sequential_run):
        report = matrix_report(sequential_run)
        del report["cells"][0]["final_parallelism"]
        with pytest.raises(ValueError, match="final_parallelism"):
            validate_matrix_report(report)

    def test_thread_backend_matches_sequential_bit_identically(self, sequential_run):
        thread_run = TuningSession().run(_grid_plan(backend="thread"))
        seq_view = matrix_determinism_view(
            matrix_report(sequential_run, backend="sequential")
        )
        thread_view = matrix_determinism_view(
            matrix_report(thread_run, backend="thread")
        )
        assert seq_view == thread_view
        # The full report intentionally differs: it says who ran it.
        assert matrix_report(thread_run, backend="thread")["backend"] == "thread"


class TestChaosThroughTheStream:
    def test_chaos_cells_emit_typed_events_and_change_results(self):
        events = []
        result = TuningSession().run(_grid_plan(), bus=EventBus(events.append))
        injected = [e for e in events if isinstance(e, ChaosInjected)]
        assert len(injected) == 2            # one loss per chaotic cell
        assert {e.effect for e in injected} == {"operator-loss"}
        assert all(e.step_index == 1 and e.count >= 1 for e in injected)
        scenarios = dict(result.scenarios)
        clean = scenarios["ds2@flink-faulty/x3-7-4+none"]
        chaotic = scenarios["ds2@flink-faulty/x3-7-4+loss@1x1"]
        assert _step_maps(clean.outcomes[0]) != _step_maps(chaotic.outcomes[0])

    @pytest.mark.parametrize("backend", ["inline", "sequential", "thread"])
    def test_chaos_events_carry_the_cell_key_on_every_path(self, backend):
        # One translation of a campaign into events: the same chaos
        # campaign stamps its cell_key as a tuning plan ("inline") and
        # as a campaign plan on each service backend.
        from repro.api import CampaignPlan, TuningPlan

        shared = dict(
            engine="flink-faulty", tuner="ds2", rates=(3.0, 7.0, 4.0),
            chaos={"operator_loss": [{"step": 1}]}, scale="smoke", seed=17,
        )
        if backend == "inline":
            plan = TuningPlan(query="q1", **shared)
        else:
            plan = CampaignPlan(queries=("q1",), backend=backend, **shared)
        events = list(TuningSession().stream(plan))
        injected = [e for e in events if isinstance(e, ChaosInjected)]
        assert [(e.step_index, e.cell_key) for e in injected] == [
            (1, plan.cell_keys()[0])
        ]

    def test_chaos_events_round_trip_through_a_record_log(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlRecorder(path) as recorder:
            TuningSession().run(_grid_plan(), bus=EventBus(recorder))
        replayed = [
            event_from_dict(json.loads(line))
            for line in path.read_text().splitlines()
        ]
        injected = [e for e in replayed if isinstance(e, ChaosInjected)]
        assert len(injected) == 2
        assert all(e.effect == "operator-loss" for e in injected)


class TestChaosResume:
    def test_interrupted_chaos_sweep_resumes_bit_identical(self, tmp_path):
        plan = _grid_plan()
        full_path = tmp_path / "full.jsonl"
        with JsonlRecorder(full_path) as recorder:
            full = TuningSession().run(plan, bus=EventBus(recorder))

        # What a fleet killed after its first completed campaign leaves.
        kept = []
        for line in full_path.read_text().splitlines():
            kept.append(line)
            if json.loads(line)["event"] == "CampaignFinished":
                break
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text("\n".join(kept) + "\n")

        resumed = TuningSession().run(plan, resume=ResumeLog.load(truncated))
        for (label_a, cell_a), (label_b, cell_b) in zip(
            full.scenarios, resumed.scenarios
        ):
            assert label_a == label_b
            for outcome_a, outcome_b in zip(cell_a.outcomes, cell_b.outcomes):
                assert _step_maps(outcome_a) == _step_maps(outcome_b)

    def test_fully_recorded_chaos_sweep_replays_without_execution(self, tmp_path):
        plan = _grid_plan()
        path = tmp_path / "full.jsonl"
        with JsonlRecorder(path) as recorder:
            full = TuningSession().run(plan, bus=EventBus(recorder))
        log = ResumeLog.load(path)
        recorded, missing = log.covers(plan.cell_keys())
        assert not missing                  # chaos keys match themselves...
        replayed = TuningSession().run(plan, resume=log)
        assert matrix_determinism_view(
            matrix_report(replayed)
        ) == matrix_determinism_view(matrix_report(full))

    def test_clean_log_never_satisfies_a_chaos_cell(self, tmp_path):
        # ...and a clean run's ledger can never be mistaken for a chaotic
        # one: the chaos label is part of the cell key.
        clean = SweepPlan(
            queries=("q1",), tuners=("ds2",), engines=("flink-faulty",),
            rate_traces=((3.0, 7.0, 4.0),), backend="sequential",
            scale="smoke", seed=17,
        )
        path = tmp_path / "clean.jsonl"
        with JsonlRecorder(path) as recorder:
            TuningSession().run(clean, bus=EventBus(recorder))
        log = ResumeLog.load(path)
        recorded, missing = log.covers(_grid_plan().cell_keys())
        assert len(recorded) == 1           # only the raw-trace clean cell
        assert len(missing) == 3
