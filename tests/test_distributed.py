"""Tests for the multi-host distributed executor (``repro.distributed``).

Covers the spool protocol's atomicity guarantees (exactly-one claim,
reclaim-after-expiry, exclusive completion), worker-agent execution and
abandonment, the coordinator's bit-identity with single-host backends,
fleet-death failure (never a hang), the paced engine, the retry helper
and the ``--json`` CLI output.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.api.events import CampaignFailed, CampaignFinished, CampaignSkipped
from repro.api.plans import CampaignPlan, PlanError, SweepPlan, TuningPlan
from repro.api.resume import ResumeError, ResumeLog, discover_latest_log
from repro.api.session import TuningSession
from repro.distributed import coordinator, worker
from repro.distributed import (
    DistributedSession,
    LeaseLost,
    Spool,
    SpoolCell,
    SpoolError,
    WorkerAgent,
    plan_cells,
)
from repro.service import CampaignExecutionError
from repro.utils import retry
from repro.utils.retry import backoff_delays, with_retries


def tiny_plan(**overrides) -> CampaignPlan:
    settings = dict(
        queries=("q1", "q2"),
        rates=(3.0, 5.0),
        engine="flink",
        tuner="ds2",
        backend="sequential",
        scale="smoke",
    )
    settings.update(overrides)
    return CampaignPlan(**settings)


# ----------------------------------------------------------------------
# the spool protocol
# ----------------------------------------------------------------------

def make_cells(n: int, plan: CampaignPlan | None = None) -> list[SpoolCell]:
    plan = plan or CampaignPlan(
        queries=("q1",), rates=(3.0,), tuner="ds2", backend="sequential",
        scale="smoke",
    )
    return [
        SpoolCell(
            index=i,
            cell_key=f"cell-key-{i}",
            campaign=f"campaign_{i}",
            plan=plan.to_dict(),
        )
        for i in range(n)
    ]


class TestSpool:
    def test_seed_is_idempotent(self, tmp_path):
        spool = Spool.create(tmp_path / "spool")
        cells = make_cells(3)
        assert spool.seed(cells) == 3
        assert spool.seed(cells) == 0
        assert len(spool.cell_ids()) == 3
        assert spool.pending_ids() == spool.cell_ids()
        loaded = spool.cell(cells[1].id)
        assert loaded == cells[1]

    def test_claim_is_exclusive(self, tmp_path):
        spool = Spool.create(tmp_path / "spool")
        (cell,) = make_cells(1)
        spool.seed([cell])
        assert spool.claim(cell.id, "alpha")
        assert not spool.claim(cell.id, "beta")
        assert not spool.claim(cell.id, "alpha")   # even by the same owner
        assert spool.lease_owner(cell.id) == "alpha"
        spool.release(cell.id, "beta")             # not beta's to release
        assert spool.lease_owner(cell.id) == "alpha"
        spool.release(cell.id, "alpha")
        assert spool.lease_owner(cell.id) is None
        assert spool.claim(cell.id, "beta")

    def test_concurrent_claims_have_one_winner(self, tmp_path):
        """K threads race for one cell; exactly one claim succeeds."""
        spool = Spool.create(tmp_path / "spool")
        (cell,) = make_cells(1)
        spool.seed([cell])
        barrier = threading.Barrier(8)
        wins: list[str] = []
        lock = threading.Lock()

        def racer(owner: str) -> None:
            barrier.wait()
            if spool.claim(cell.id, owner):
                with lock:
                    wins.append(owner)

        threads = [
            threading.Thread(target=racer, args=(f"worker-{i}",))
            for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(wins) == 1
        assert spool.lease_owner(cell.id) == wins[0]

    def test_expired_lease_is_reclaimed(self, tmp_path):
        spool = Spool.create(tmp_path / "spool", ttl_seconds=0.2)
        (cell,) = make_cells(1)
        spool.seed([cell])
        assert spool.claim(cell.id, "crashed-host")
        assert not spool.claim(cell.id, "survivor")
        time.sleep(0.3)
        assert spool.stale_leases() == [cell.id]
        assert spool.claim(cell.id, "survivor")
        assert spool.lease_owner(cell.id) == "survivor"

    def test_heartbeat_keeps_lease_fresh_and_detects_loss(self, tmp_path):
        spool = Spool.create(tmp_path / "spool", ttl_seconds=0.4)
        (cell,) = make_cells(1)
        spool.seed([cell])
        spool.claim(cell.id, "alpha")
        for _ in range(3):
            time.sleep(0.2)
            spool.heartbeat(cell.id, "alpha")
        # Heartbeats kept the lease fresh across > TTL of wall time.
        assert spool.stale_leases() == []
        # A stolen lease raises LeaseLost for the previous owner.
        time.sleep(0.5)
        assert spool.claim(cell.id, "thief")
        with pytest.raises(LeaseLost):
            spool.heartbeat(cell.id, "alpha")
        spool.release(cell.id, "thief")
        with pytest.raises(LeaseLost):
            spool.heartbeat(cell.id, "alpha")

    def test_mark_done_has_one_winner(self, tmp_path):
        spool = Spool.create(tmp_path / "spool")
        (cell,) = make_cells(1)
        spool.seed([cell])
        assert spool.mark_done(cell.id, {"owner": "alpha"})
        assert not spool.mark_done(cell.id, {"owner": "beta"})
        assert spool.done_payload(cell.id) == {"owner": "alpha"}
        assert spool.pending_ids() == []
        assert spool.all_done()

    def test_worker_liveness(self, tmp_path):
        spool = Spool.create(tmp_path / "spool", ttl_seconds=0.3)
        assert not spool.has_live_activity()
        spool.worker_heartbeat("agent-1")
        assert spool.live_workers() == ["agent-1"]
        assert spool.has_live_activity()
        time.sleep(0.4)
        assert spool.live_workers() == []
        assert not spool.has_live_activity()

    def test_ledger_path_is_per_attempt_and_safe(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        first = spool.ledger_path("0001-abc", "host-1")
        second = spool.ledger_path("0001-abc", "host/2:evil")
        assert first != second
        assert "/" not in second.name.replace(second.suffix, "")
        assert second.parent == spool.ledgers_dir


# ----------------------------------------------------------------------
# lease contention: racing workers execute every cell exactly once
# ----------------------------------------------------------------------

class TestLeaseContention:
    def test_racing_workers_execute_each_cell_exactly_once(self, tmp_path):
        """Three agents race one spool; every cell completes exactly once."""
        plan = tiny_plan(queries=("q1", "q2", "q3", "q5"), rates=(3.0,))
        cells = plan_cells(plan)
        spool = Spool.create(tmp_path / "spool", fsync=False)
        spool.seed(cells)
        agents = [
            WorkerAgent(
                Spool(tmp_path / "spool"),
                worker_id=f"racer-{i}",
                poll_seconds=0.01,
                exit_when_done=True,
            )
            for i in range(3)
        ]
        threads = [threading.Thread(target=agent.run) for agent in agents]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert spool.all_done()
        completions = sum(agent.n_completed for agent in agents)
        assert completions == len(cells)       # exactly once, fleet-wide
        for cell in cells:
            payload = spool.done_payload(cell.id)
            assert payload["status"] == "ok"
            ledger = spool.ledgers_dir / payload["ledger"]
            assert ledger.is_file() and ledger.stat().st_size > 0

    def test_killed_worker_subprocess_cells_are_reclaimed(self, tmp_path):
        """A SIGKILLed worker's lease expires; a second agent finishes.

        The paced engine stretches each cell past the kill window, so
        the victim dies holding a lease mid-campaign — the crashed-host
        scenario the reclaim path exists for.
        """
        spool_root = tmp_path / "spool"
        plan = tiny_plan(
            queries=("q1", "q2", "q3"), rates=(3.0, 5.0),
            engine="flink-paced",
        )
        spool = Spool.create(spool_root, ttl_seconds=1.0, fsync=False)
        spool.seed(plan_cells(plan))
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        victim = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "worker", str(spool_root),
                "--exit-when-done",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.time() + 60
        while time.time() < deadline and not spool.leases():
            time.sleep(0.05)               # wait for a claim to exist
        assert spool.leases(), "worker subprocess never claimed a cell"
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait()
        survivor = WorkerAgent(
            Spool(spool_root),
            worker_id="survivor",
            poll_seconds=0.05,
            exit_when_done=True,
        )
        survivor.run()
        assert spool.all_done()
        for cell_id in spool.cell_ids():
            assert spool.done_payload(cell_id)["status"] == "ok"


# ----------------------------------------------------------------------
# spool settings: one lease TTL and one ledger fsync for every party
# ----------------------------------------------------------------------

def paced_cell_plan(**overrides) -> CampaignPlan:
    """One 60-step flink-paced cell: several seconds of telemetry pauses,
    so many lease heartbeats fall inside it."""
    return tiny_plan(
        queries=("q1",), rates=(3.0, 5.0) * 30, engine="flink-paced",
        **overrides,
    )


def wait_for_lease(spool: Spool, timeout: float = 60.0) -> None:
    deadline = time.time() + timeout
    while time.time() < deadline and not spool.leases():
        time.sleep(0.02)
    assert spool.leases(), "no worker ever claimed a cell"


class TestSpoolSettings:
    def test_create_publishes_settings_once(self, tmp_path):
        root = tmp_path / "spool"
        Spool.create(root, ttl_seconds=0.3, fsync=False)
        recorded = json.loads((root / "spool.json").read_text())
        assert recorded == {
            "format": "repro.spool/v1", "ttl_seconds": 0.3, "fsync": False,
        }
        fresh = Spool.create(tmp_path / "fresh")
        assert (fresh.ttl_seconds, fresh.fsync) == (15.0, True)
        # A reader only reads; it cannot tell the spool anything.
        assert (Spool(root).ttl_seconds, Spool(root).fsync) == (0.3, False)
        with pytest.raises(SpoolError, match="no coordinator has created"):
            Spool(tmp_path / "nowhere").ttl_seconds

    def test_a_conflicting_coordinator_fails_and_a_silent_one_adopts(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "spool"
        Spool.create(root, ttl_seconds=0.3, fsync=False)
        plan = tiny_plan(backend="distributed", spool_dir=str(root))
        for session, named in (
            (DistributedSession(ttl_seconds=1.0), r"0\.3.*1\.0"),
            (DistributedSession(fsync=True), "False.*True"),
        ):
            with pytest.raises(SpoolError, match=named):
                session.run(plan)
        assert Spool(root).cell_ids() == []        # failed before seeding
        assert json.loads((root / "spool.json").read_text())["ttl_seconds"] == 0.3
        # Naming nothing adopts the record: with no worker attached the
        # stall check fires after 4 x the recorded 0.3 s TTL.
        monkeypatch.setattr(coordinator, "POLL_SECONDS", 0.02)
        with pytest.raises(CampaignExecutionError) as excinfo:
            DistributedSession().run(plan)
        (failure, _) = excinfo.value.failures
        assert failure.error_type == "WorkerLost"
        assert "for 1.2s" in failure.error_message

    def test_a_worker_waits_for_the_spools_creator(self, tmp_path):
        root = tmp_path / "spool"
        agent = WorkerAgent(
            Spool(root), worker_id="early", poll_seconds=0.02,
            exit_when_done=True,
        )
        thread = threading.Thread(target=agent.run, daemon=True)
        thread.start()
        time.sleep(0.2)
        assert not root.exists()        # it creates nothing, spool.json least
        spool = Spool.create(root, fsync=False)
        spool.seed(plan_cells(tiny_plan(queries=("q1",))))
        thread.join(timeout=60)
        assert agent.n_completed == 1 and spool.all_done()

    def test_a_standing_worker_takes_the_spools_ttl(self, tmp_path):
        """A coordinator at TTL 0.3 s and a worker that names none: the
        worker heartbeats at the spool's pace, so the coordinator's stall
        check never mistakes a long healthy cell for a dead fleet."""
        root = tmp_path / "spool"
        standing = WorkerAgent(
            Spool(root), worker_id="standing", poll_seconds=0.05,
            exit_when_done=True,
        )
        thread = threading.Thread(target=standing.run, daemon=True)
        thread.start()
        plan = paced_cell_plan(backend="distributed", spool_dir=str(root))
        started = time.perf_counter()
        result = DistributedSession(ttl_seconds=0.3, fsync=False).run(plan)
        assert time.perf_counter() - started > 4 * 0.3   # outlived a stall window
        thread.join(timeout=60)
        assert len(result.outcomes) == 1
        assert (standing.n_completed, standing.n_abandoned) == (1, 0)

    def test_a_late_joiner_cannot_steal_a_live_lease(self, tmp_path):
        """Two standing workers on one spool, the second joining a second
        after the first claimed: both read the same TTL, so the live
        lease is never reclaimed and nothing is abandoned."""
        root = tmp_path / "spool"
        spool = Spool.create(root, ttl_seconds=0.3, fsync=False)
        spool.seed(plan_cells(paced_cell_plan()))
        agents = [
            WorkerAgent(
                Spool(root), worker_id=name, poll_seconds=0.05,
                exit_when_done=True,
            )
            for name in ("first", "late")
        ]
        threads = [
            threading.Thread(target=agent.run, daemon=True) for agent in agents
        ]
        threads[0].start()
        wait_for_lease(spool)
        time.sleep(1.0)
        threads[1].start()
        for thread in threads:
            thread.join(timeout=120)
        assert spool.all_done()
        assert [agent.n_abandoned for agent in agents] == [0, 0]
        assert [agent.n_completed for agent in agents] == [1, 0]


# ----------------------------------------------------------------------
# the worker agent
# ----------------------------------------------------------------------

class TestWorkerAgent:
    def test_executes_cells_and_writes_ledgers(self, tmp_path):
        plan = tiny_plan()
        cells = plan_cells(plan)
        spool = Spool.create(tmp_path / "spool", fsync=False)
        spool.seed(cells)
        agent = WorkerAgent(spool, worker_id="solo", exit_when_done=True)
        assert agent.run() == len(cells)
        for cell in cells:
            payload = spool.done_payload(cell.id)
            assert payload["owner"] == "solo"
            lines = (
                (spool.ledgers_dir / payload["ledger"])
                .read_text().strip().splitlines()
            )
            events = [json.loads(line) for line in lines]
            kinds = [event["event"] for event in events]
            assert kinds[0] == "CampaignStarted"
            assert "CampaignFinished" in kinds
            finished = events[kinds.index("CampaignFinished")]
            assert finished["cell_key"] == cell.cell_key
            assert "result" in finished
        # Leases were released on completion; nothing stale remains.
        assert spool.leases() == []

    def test_deterministic_failure_publishes_failed_cell(self, tmp_path):
        plan = tiny_plan(
            queries=("q1",), tuner="streamtune",
            model=str(tmp_path / "no-such-model"),
        )
        cells = plan_cells(plan)
        spool = Spool.create(tmp_path / "spool", fsync=False)
        spool.seed(cells)
        agent = WorkerAgent(spool, worker_id="solo", exit_when_done=True)
        agent.run()
        payload = spool.done_payload(cells[0].id)
        assert payload["status"] == "failed"
        lines = (
            (spool.ledgers_dir / payload["ledger"]).read_text().splitlines()
        )
        kinds = [json.loads(line)["event"] for line in lines if line.strip()]
        assert "CampaignFailed" in kinds

    def test_lost_lease_abandons_the_attempt(self, tmp_path, monkeypatch):
        plan = tiny_plan(
            queries=("q1",), rates=(3.0, 5.0, 4.0), engine="flink-paced"
        )
        (cell,) = plan_cells(plan)
        spool = Spool.create(tmp_path / "spool", ttl_seconds=0.4, fsync=False)
        spool.seed([cell])
        monkeypatch.setattr(worker, "HEARTBEATS_PER_TTL", 8.0)   # every 0.05 s
        agent = WorkerAgent(spool, worker_id="slowpoke")
        assert spool.claim(cell.id, "slowpoke")
        # Steal the lease out from under the in-flight attempt, as a
        # reclaimer would after presumed death.
        stolen = threading.Timer(0.15, lambda: (
            spool.release(cell.id, "slowpoke"),
            spool.claim(cell.id, "reclaimer"),
        ))
        stolen.start()
        published = agent.execute(cell)
        stolen.join()
        assert not published
        assert agent.n_abandoned == 1
        assert spool.done_payload(cell.id) is None      # reclaimer's to publish
        assert spool.lease_owner(cell.id) == "reclaimer"


# ----------------------------------------------------------------------
# plan flattening
# ----------------------------------------------------------------------

class TestPlanCells:
    def test_campaign_cells_match_parent_keys(self):
        plan = tiny_plan()
        cells = plan_cells(plan)
        assert [cell.cell_key for cell in cells] == plan.cell_keys()
        for cell in cells:
            derived = CampaignPlan.from_dict(cell.plan)
            assert derived.backend == "sequential"
            assert derived.cell_keys() == [cell.cell_key]

    def test_sweep_cells_follow_the_grid_order(self):
        plan = SweepPlan(
            queries=("q1", "q2"),
            tuners=("ds2", "streamtune"),
            rate_traces=((3.0, 5.0),),
            backend="distributed",
            scale="smoke",
        )
        cells = plan_cells(plan)
        assert [cell.cell_key for cell in cells] == plan.cell_keys()
        assert [cell.index for cell in cells] == [0, 1, 2, 3]
        # Fleet k's cells are cells[k * n:(k + 1) * n], n = len(queries).
        for position, fleet in enumerate(plan.expand()):
            fleet_cells = cells[2 * position:2 * (position + 1)]
            assert [cell.cell_key for cell in fleet_cells] == fleet.cell_keys()
            assert [
                CampaignPlan.from_dict(cell.plan).tuner for cell in fleet_cells
            ] == [fleet.tuner] * 2

    def test_cell_files_with_retired_keys_still_load(self):
        (cell,) = make_cells(1)
        data = dict(cell.to_dict(), scenario="ds2@flink/x3", n_steps=1, fleet_index=0)
        assert SpoolCell.from_dict(data) == cell

    def test_rejects_tuning_plans(self):
        with pytest.raises(PlanError, match="campaign and sweep"):
            plan_cells(TuningPlan(query="q1"))

    def test_distributed_backend_validates_in_plans(self):
        plan = tiny_plan(backend="distributed", spool_dir="/tmp/spool")
        assert plan.backend == "distributed"
        round_tripped = CampaignPlan.from_dict(plan.to_dict())
        assert round_tripped.spool_dir == "/tmp/spool"
        with pytest.raises(PlanError, match="spool_dir"):
            tiny_plan(spool_dir=7)
        # No local workers: a standing fleet drains the named spool.
        assert tiny_plan(
            backend="distributed", workers=0, spool_dir="/tmp/spool"
        ).workers == 0
        with pytest.raises(PlanError, match="workers"):
            tiny_plan(workers=0)

    @pytest.mark.parametrize("kind", ["campaign", "sweep"])
    def test_no_workers_and_no_spool_dir_is_rejected(self, kind):
        # No agent can find an ephemeral spool, so the plan would only
        # stall into WorkerLost and leave its temp directory behind.
        from repro.api.plans import plan_from_dict

        with pytest.raises(PlanError, match="spool_dir"):
            plan_from_dict({
                "kind": kind, "queries": ["q1"], "backend": "distributed",
                "workers": 0,
            })

    def test_cells_pin_the_coordinators_scale(self, monkeypatch):
        # A worker on another host must not resolve REPRO_SCALE itself.
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        cells = plan_cells(tiny_plan(scale=None))
        assert [cell.plan["scale"] for cell in cells] == ["smoke", "smoke"]


# ----------------------------------------------------------------------
# the coordinator
# ----------------------------------------------------------------------

class TestDistributedSession:
    def test_campaign_bit_identical_to_sequential(self, tmp_path):
        plan = tiny_plan(backend="distributed")
        distributed = TuningSession().run(plan)
        sequential = TuningSession().run(
            dataclasses.replace(plan, backend="sequential")
        )
        assert distributed.plan.backend == "distributed"
        assert distributed.outcomes == sequential.outcomes

    def test_sweep_bit_identical_and_events_in_plan_order(self, tmp_path):
        from repro.api.events import EventBus, JsonlRecorder

        plan = SweepPlan(
            queries=("q1", "q5"),
            tuners=("ds2",),
            rate_traces=((3.0, 5.0),),
            backend="distributed",
            scale="smoke",
        )
        record = tmp_path / "events.jsonl"
        recorder = JsonlRecorder(record)
        distributed = TuningSession().run(plan, bus=EventBus(recorder))
        recorder.close()
        sequential = TuningSession().run(
            dataclasses.replace(plan, backend="sequential")
        )
        for (label_a, cell_a), (label_b, cell_b) in zip(
            distributed.scenarios, sequential.scenarios
        ):
            assert label_a == label_b
            assert cell_a.outcomes == cell_b.outcomes
        events = [
            json.loads(line) for line in record.read_text().splitlines()
        ]
        seqs = [event["seq"] for event in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        campaign_events = [
            event for event in events
            if event["event"].startswith("Campaign")
        ]
        assert all(event["scenario"] for event in campaign_events)
        assert all(
            event["backend"] == "distributed" for event in campaign_events
        )
        assert events[-1]["event"] == "SweepFinished"

    def test_resume_replays_recorded_cells_verbatim(self, tmp_path):
        from repro.api.events import EventBus, JsonlRecorder

        plan = tiny_plan(backend="distributed")
        record = tmp_path / "record.jsonl"
        recorder = JsonlRecorder(record)
        first = TuningSession().run(plan, bus=EventBus(recorder))
        recorder.close()
        log = ResumeLog.load(record)
        assert log.n_completed == 2
        started = time.perf_counter()
        events = []
        stream = TuningSession().stream(plan, resume=log)
        while True:
            try:
                events.append(next(stream))
            except StopIteration as stop:
                replayed = stop.value
                break
        # A full replay spawns no workers: it must be near-instant.
        assert time.perf_counter() - started < 1.0
        assert [type(e).__name__ for e in events if isinstance(
            e, (CampaignSkipped, CampaignFinished)
        )] == ["CampaignSkipped", "CampaignFinished"] * 2
        assert replayed.outcomes == first.outcomes

    def test_dead_fleet_fails_instead_of_hanging(self, tmp_path, monkeypatch):
        plan = tiny_plan(
            backend="distributed", spool_dir=str(tmp_path / "spool")
        )
        monkeypatch.setattr(coordinator, "POLL_SECONDS", 0.02)
        session = DistributedSession(ttl_seconds=0.2)
        started = time.perf_counter()
        with pytest.raises(CampaignExecutionError) as excinfo:
            session.run(plan)
        assert time.perf_counter() - started < 30
        failures = excinfo.value.failures
        assert len(failures) == 2
        assert all(f.error_type == "WorkerLost" for f in failures)
        assert all(f.backend == "distributed" for f in failures)

    def test_traces_that_printed_alike_stay_separate_fleets(self):
        plan = SweepPlan(
            queries=("q1",),
            tuners=("ds2",),
            rate_traces=((3.0, 7.0), (3.0000001, 7.0)),
            backend="distributed",
            workers=1,
            scale="smoke",
        )
        sweep = TuningSession().run(plan)
        assert [(label, len(cell.outcomes)) for label, cell in sweep.scenarios] == [
            ("ds2@flink/x3-7", 1), ("ds2@flink/x3.0000001-7", 1),
        ]
        assert [cell.outcomes[0].query_name for cell in sweep.results] == [
            "nexmark_q1_flink"
        ] * 2

    def test_dead_fleet_sweep_fails_every_cell_then_finishes(
        self, tmp_path, monkeypatch
    ):
        plan = SweepPlan(
            queries=("q1", "q2"),
            tuners=("ds2",),
            rate_traces=((3.0, 5.0), (5.0, 3.0)),
            backend="distributed",
            workers=0,
            spool_dir=str(tmp_path / "spool"),
            scale="smoke",
        )
        monkeypatch.setattr(coordinator, "POLL_SECONDS", 0.02)
        events = []
        stream = DistributedSession(ttl_seconds=0.2).stream(plan)
        with pytest.raises(CampaignExecutionError) as excinfo:
            for event in stream:
                events.append(event)
        assert [type(event).__name__ for event in events] == (
            ["CampaignFailed"] * 4 + ["SweepFinished"]
        )
        labels = [plan.scenario_label(fleet) for fleet in plan.expand()]
        assert [(e.scenario, e.index) for e in events[:4]] == [
            (labels[0], 0), (labels[0], 1), (labels[1], 0), (labels[1], 1),
        ]
        assert [event.seq for event in events] == list(range(5))
        assert events[-1].n_campaigns == 0
        failures = excinfo.value.failures
        assert failures == events[:4]
        assert all(f.error_type == "WorkerLost" for f in failures)

    def test_resumed_sweep_replays_the_first_fleet(self, tmp_path, monkeypatch):
        from repro.api.events import EventBus, JsonlRecorder

        plan = SweepPlan(
            queries=("q1", "q2"),
            tuners=("ds2",),
            rate_traces=((3.0, 5.0), (5.0, 3.0)),
            backend="sequential",
            scale="smoke",
        )
        record = tmp_path / "record.jsonl"
        recorder = JsonlRecorder(record)
        sequential = TuningSession().run(plan, bus=EventBus(recorder))
        recorder.close()
        # The log as a sweep killed after its first (2-query) fleet.
        kept, finished = [], 0
        for line in record.read_text().splitlines(keepends=True):
            kept.append(line)
            finished += json.loads(line)["event"] == "CampaignFinished"
            if finished == 2:
                break
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text("".join(kept))

        seeded = []
        seed = Spool.seed
        monkeypatch.setattr(
            Spool, "seed",
            lambda spool, cells: seeded.extend(cells) or seed(spool, cells),
        )
        events = []
        stream = TuningSession().stream(
            dataclasses.replace(plan, backend="distributed"), resume=truncated
        )
        while True:
            try:
                events.append(next(stream))
            except StopIteration as stop:
                resumed = stop.value
                break
        keys = plan.cell_keys()
        assert [cell.cell_key for cell in seeded] == keys[2:]
        skipped = [e.cell_key for e in events if isinstance(e, CampaignSkipped)]
        assert skipped == keys[:2]
        assert [label for label, _ in resumed.scenarios] == [
            label for label, _ in sequential.scenarios
        ]
        for (_, cell_a), (_, cell_b) in zip(
            resumed.scenarios, sequential.scenarios
        ):
            assert cell_a.outcomes == cell_b.outcomes

    def test_spool_level_resume_replays_done_cells(self, tmp_path):
        """Pre-completed spool cells replay without re-execution."""
        spool_root = tmp_path / "spool"
        plan = tiny_plan(backend="distributed", spool_dir=str(spool_root))
        cells = plan_cells(plan)
        spool = Spool.create(spool_root, fsync=False)
        spool.seed(cells)
        WorkerAgent(spool, worker_id="pre", exit_when_done=True).run()
        result = DistributedSession().run(plan)
        sequential = TuningSession().run(
            dataclasses.replace(plan, backend="sequential", spool_dir=None)
        )
        assert result.outcomes == sequential.outcomes


# ----------------------------------------------------------------------
# the paced engine
# ----------------------------------------------------------------------

class TestPacedEngine:
    def test_registered_with_flink_family(self):
        from repro.api.components import engine_family
        from repro.api.registry import ENGINES

        assert "flink-paced" in ENGINES.names()
        assert engine_family("flink-paced") == "flink"

    def test_bit_identical_to_plain_flink(self):
        plan = tiny_plan(queries=("q1",), rates=(3.0,))
        plain = TuningSession().run(plan)
        paced = TuningSession().run(
            dataclasses.replace(plan, engine="flink-paced")
        )
        assert paced.outcomes == plain.outcomes


# ----------------------------------------------------------------------
# the retry helper (also exercised by DaemonClient)
# ----------------------------------------------------------------------

class TestRetryHelper:
    def test_backoff_schedule_is_a_jittered_exponential_envelope(
        self, monkeypatch
    ):
        delays = [delay for _, delay in zip(range(8), backoff_delays())]
        for delay, undithered in zip(delays, [0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0]):
            assert (1 - retry.JITTER) * undithered <= delay <= (1 + retry.JITTER) * undithered
        # Exponential envelope: each undithered delay doubles up to the cap.
        monkeypatch.setattr(retry, "JITTER", 0.0)
        undithered = [
            delay for _, delay in zip(
                range(8), backoff_delays(jitter=retry.JITTER)
            )
        ]
        assert undithered[:4] == [0.05, 0.1, 0.2, 0.4]
        assert undithered[-1] == retry.MAX_DELAY

    def test_with_retries_retries_only_retryable_errors(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(retry, "time", SimpleNamespace(
            monotonic=time.monotonic, sleep=sleeps.append,
        ))
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "done"

        assert with_retries(
            flaky, retryable=(OSError,), attempts=3,
        ) == "done"
        assert len(calls) == 3 and len(sleeps) == 2

        def poisoned():
            raise ValueError("not retryable")

        with pytest.raises(ValueError):
            with_retries(poisoned, retryable=(OSError,), attempts=3)

    def test_with_retries_exhausts_and_reraises(self, monkeypatch):
        monkeypatch.setattr(retry, "time", SimpleNamespace(
            monotonic=time.monotonic, sleep=lambda _: None,
        ))

        def always_broken():
            raise OSError("permanent")

        with pytest.raises(OSError, match="permanent"):
            with_retries(always_broken, retryable=(OSError,), attempts=3)


# ----------------------------------------------------------------------
# resume discovery hygiene
# ----------------------------------------------------------------------

class TestDiscoverLatestLogSkipsEmptyFiles:
    def test_zero_byte_ledgers_are_skipped(self, tmp_path):
        real = tmp_path / "real.jsonl"
        real.write_text('{"event": "CacheStats", "seq": 0, "stats": {}}\n')
        time.sleep(0.01)
        empty = tmp_path / "newest-but-empty.jsonl"
        empty.touch()
        assert discover_latest_log(tmp_path) == real

    def test_all_empty_raises(self, tmp_path):
        (tmp_path / "empty.jsonl").touch()
        with pytest.raises(ResumeError, match="no .*record found"):
            discover_latest_log(tmp_path)


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------

class TestCliJson:
    def test_jobs_json_prints_one_object_per_line(self, monkeypatch, capsys):
        import repro.daemon as daemon_module
        from repro.cli import main

        class FakeClient:
            def __init__(self, url, **kwargs):
                self.url = url

            def jobs(self, tenant=None, state=None):
                return [
                    {"job": "job-1", "tenant": "default", "priority": 0,
                     "state": "finished", "plan_kind": "campaign",
                     "n_cells": 2, "n_events": 9, "replayed": False},
                    {"job": "job-2", "tenant": "default", "priority": 1,
                     "state": "queued", "plan_kind": "sweep",
                     "n_cells": 4, "n_events": 0, "replayed": True},
                ]

        monkeypatch.setattr(daemon_module, "DaemonClient", FakeClient)
        assert main(["jobs", "--json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert [job["job"] for job in parsed] == ["job-1", "job-2"]

    def test_submit_json_prints_submission_and_final_state(
        self, monkeypatch, capsys, tmp_path
    ):
        import repro.daemon as daemon_module
        from repro.cli import main

        class FakeClient:
            def __init__(self, url, **kwargs):
                self.url = url

            def submit_plan(self, path, tenant="default", priority=0):
                return {"job": "job-9", "plan_kind": "campaign",
                        "n_cells": 1, "tenant": tenant}

            def follow(self, job):
                yield {"event": "CampaignStarted", "seq": 0}

            def job(self, job):
                return {"job": job, "state": "finished"}

        monkeypatch.setattr(daemon_module, "DaemonClient", FakeClient)
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(tiny_plan().to_dict()))
        assert main(["submit", str(plan_file), "--json", "--follow"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["job"] == "job-9"
        assert parsed[1]["event"] == "CampaignStarted"
        assert parsed[-1]["state"] == "finished"

    def test_spool_dir_rejects_tuning_plans(self, tmp_path, capsys):
        from repro.cli import main

        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(TuningPlan(query="q1").to_dict()))
        assert main(["run-plan", str(plan_file), "--spool-dir", "spool"]) == 2
        assert "--spool-dir applies to campaign and sweep" in capsys.readouterr().err
