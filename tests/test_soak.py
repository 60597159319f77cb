"""Tests for the soak plane: churn schedules, invariants, the supervisor.

Covers the seeded :class:`ChurnSpec` kill schedules (coverage,
clamping, replay), the restart backoff, the
:class:`SoakReport` verdict and deterministic view, the standing
post-episode invariants of :mod:`repro.faults.invariants`, spool
hygiene under clock skew and torn files, the retry helper's total-time
deadline, the lease-lost abandon path at N>2 workers (property test
with a hostile reclaimer), and one end-to-end supervised fleet episode.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distributed import Spool, SpoolError, WorkerAgent
from repro.distributed import worker as distributed_worker
from repro.api.events import (
    CampaignFailed,
    CampaignFinished,
    CampaignSkipped,
    CampaignStarted,
    read_event_log,
)
from repro.baselines.api import TuningResult, TuningStep
from repro.experiments.campaigns import CampaignResult
from repro.faults.invariants import check_spool, compare_event_streams
from repro.faults.plan import FaultError
from repro.faults.supervisor import (
    WARMUP_CELLS,
    ChurnSpec,
    FleetSupervisor,
    KillTrigger,
    SoakReport,
    restart_delay,
)
from repro.utils import retry
from repro.utils.retry import with_retries
from tests.test_distributed import make_cells, tiny_plan


# ----------------------------------------------------------------------
# churn schedules
# ----------------------------------------------------------------------

class TestChurnSpec:
    def test_validation(self):
        with pytest.raises(FaultError, match="kills_per_worker"):
            ChurnSpec(kills_per_worker=-1)
        with pytest.raises(FaultError, match="seed"):
            ChurnSpec(seed="7")
        with pytest.raises(FaultError, match=">= 1 worker"):
            ChurnSpec().schedule(0, 10)

    def test_schedule_covers_every_slot_exactly(self):
        spec = ChurnSpec(kills_per_worker=3, seed=4)
        schedule = spec.schedule(4, 200)
        assert len(schedule) == 12
        per_slot = Counter(trigger.slot for trigger in schedule)
        assert per_slot == {0: 3, 1: 3, 2: 3, 3: 3}
        thresholds = [trigger.after_done for trigger in schedule]
        assert thresholds == sorted(thresholds)
        assert thresholds[0] >= WARMUP_CELLS

    def test_schedule_is_seed_deterministic(self):
        spec = ChurnSpec(kills_per_worker=2, seed=9)
        assert spec.schedule(4, 100) == spec.schedule(4, 100)
        other = ChurnSpec(kills_per_worker=2, seed=10)
        assert spec.schedule(4, 100) != other.schedule(4, 100)

    def test_thresholds_clamp_below_the_final_cell(self):
        # Far more kills than cells: every trigger must still land while
        # the fleet has work left.
        schedule = ChurnSpec(kills_per_worker=5, seed=1).schedule(4, 3)
        assert all(trigger.after_done <= 2 for trigger in schedule)
        # Degenerate zero-cell plan: nothing below zero.
        schedule = ChurnSpec(kills_per_worker=1, seed=1).schedule(2, 0)
        assert all(trigger.after_done == 0 for trigger in schedule)

    def test_schedule_is_pinned(self):
        # The gap and warm-up constants shape every seeded schedule; CI's
        # soak episode (4 workers, 2 kills each, seed 7) replays this one.
        schedule = ChurnSpec(kills_per_worker=2, seed=7).schedule(4, 100)
        assert [(t.after_done, t.slot) for t in schedule] == [
            (1, 3), (4, 3), (9, 1), (10, 2), (15, 0), (17, 1), (18, 0), (19, 2),
        ]


class TestRestartPolicy:
    def test_backoff_doubles_to_a_cap_without_jitter(self):
        assert [restart_delay(n) for n in range(7)] == \
            [0.05, 0.1, 0.2, 0.4, 0.8, 1.0, 1.0]


class TestSoakReport:
    def report(self, **overrides) -> SoakReport:
        trigger = KillTrigger(after_done=1, slot=0)
        settings = dict(
            n_cells=2, workers=2, churn=ChurnSpec(kills_per_worker=1),
            schedule=(trigger,), kills=(trigger,),
            statuses={"a": "ok", "b": "ok"}, stream_failures=[],
        )
        settings.update(overrides)
        return SoakReport(**settings)

    def test_verdict(self):
        assert self.report().ok
        assert not self.report(error="Boom: died").ok
        assert not self.report(kills=()).ok
        assert not self.report(statuses={"a": "ok", "b": "failed"}).ok
        assert not self.report(invariant_failures=["cell never done"]).ok
        # No reference run (None) is fine; recorded mismatches are not.
        assert self.report(stream_failures=None).ok
        assert not self.report(stream_failures=["payload differs"]).ok
        # As many kills as scheduled is not enough: another slot, or the
        # same slot at another threshold, is not the schedule's kill.
        assert not self.report(kills=(KillTrigger(after_done=1, slot=1),)).ok
        assert not self.report(kills=(KillTrigger(after_done=2, slot=0),)).ok

    def test_deterministic_view_excludes_host_noise(self):
        report = self.report(restarts={0: 3}, unplanned_respawns=2,
                             swept_leases=1, wall_seconds=12.5,
                             record_path="/tmp/x.jsonl")
        view = report.deterministic_view()
        for field in ("restarts", "unplanned_respawns", "swept_leases",
                      "wall_seconds", "record_path", "reference_path"):
            assert field not in view
            assert field in report.to_dict()
        assert view["ok"] is True
        assert view["kills"] == [{"after_done": 1, "slot": 0}]


# ----------------------------------------------------------------------
# standing invariants
# ----------------------------------------------------------------------

def completed_spool(root: Path, n: int = 2) -> Spool:
    """A spool where every cell completed cleanly (status ok, ledger)."""
    spool = Spool.create(root, ttl_seconds=0.5)
    cells = make_cells(n)
    spool.seed(cells)
    for cell in cells:
        assert spool.claim(cell.id, "w1")
        ledger = spool.ledger_path(cell.id, "w1")
        ledger.write_text("{}\n", encoding="utf-8")
        assert spool.mark_done(cell.id, {
            "cell": cell.id, "status": "ok", "owner": "w1",
            "ledger": ledger.name,
        })
        spool.release(cell.id, "w1")
    return spool


class TestCheckSpool:
    def test_clean_episode_has_no_violations(self, tmp_path):
        spool = completed_spool(tmp_path / "spool", 2)
        assert check_spool(spool, 2) == []

    def test_violations_are_named(self, tmp_path):
        spool = completed_spool(tmp_path / "spool", 3)
        cell_ids = spool.cell_ids()
        # A cell that never completed.
        (spool.done_dir / f"{cell_ids[0]}.json").unlink()
        # A completion that was not ok.
        done = spool.done_dir / f"{cell_ids[1]}.json"
        payload = json.loads(done.read_text(encoding="utf-8"))
        done.write_text(
            json.dumps({**payload, "status": "failed"}), encoding="utf-8"
        )
        # A ledger the marker names but nobody wrote.
        done = spool.done_dir / f"{cell_ids[2]}.json"
        payload = json.loads(done.read_text(encoding="utf-8"))
        done.write_text(
            json.dumps({**payload, "ledger": "ghost.jsonl"}), encoding="utf-8"
        )
        # A lease left standing.
        assert spool.claim(cell_ids[1], "w9")
        failures = "\n".join(check_spool(spool, 4))
        assert "never completed" in failures
        assert "status 'failed'" in failures
        assert "missing ledger" in failures
        assert "left standing" in failures
        assert "expected 4" in failures


class TestCompareEventStreams:
    def finished(self, campaign: str, seq: int, backend: str,
                 value: float = 1.0) -> CampaignFinished:
        step = TuningStep(
            parallelisms={"op": 1}, reconfigured=True, backpressure_after=False,
            recommendation_seconds=seq * 0.1, mean_cpu_utilisation=value,
        )
        result = CampaignResult(
            query_name=campaign, method="DS2", multipliers=[3.0],
            processes=[TuningResult(campaign, "DS2", [step], converged=True)],
            wall_seconds=seq * 0.5,
        )
        return CampaignFinished(
            campaign=campaign, backend=backend, result=result, seq=seq,
            cell_key=campaign,
        )

    def run(self, backend: str, *campaigns: str) -> list:
        """A calm log: each campaign started, then finished."""
        events = []
        for campaign in campaigns:
            events.append(CampaignStarted(campaign=campaign, backend=backend,
                                          seq=len(events)))
            events.append(self.finished(campaign, len(events), backend))
        return events

    def test_identical_streams_pass(self):
        reference = self.run("sequential", "q1")
        candidate = [CampaignStarted(campaign="q1", backend="distributed", seq=4),
                     self.finished("q1", 5, "distributed")]
        # The timings differ (seq-derived); they are no part of a
        # result's identity.
        assert compare_event_streams(
            (reference, 0), (candidate, 0), backend="distributed"
        ) == []

    def test_each_violation_is_reported(self):
        reference = self.run("sequential", "q1", "q2")
        candidate = [
            CampaignStarted(campaign="q1", backend="distributed", seq=2),
            self.finished("q1", 3, "distributed", value=2.0),
            CampaignStarted(campaign="q2", backend="distributed", seq=4),
            CampaignFailed(campaign="q2", backend="sequential", seq=3),
        ]
        failures = "\n".join(compare_event_streams(
            (reference, 0), (candidate, 0), backend="distributed"
        ))
        assert "CampaignFailed" in failures
        assert "non-distributed backend" in failures
        assert "seq is not strictly increasing" in failures
        assert "campaign sets differ" in failures

    def test_payload_differences_are_caught(self):
        reference = self.run("sequential", "q1")
        candidate = [CampaignStarted(campaign="q1", backend="distributed", seq=0),
                     self.finished("q1", 1, "distributed", value=2.0)]
        failures = compare_event_streams(
            (reference, 0), (candidate, 0), backend="distributed"
        )
        assert failures == ["result payload differs for /q1"]

    def test_malformed_lines_are_named(self):
        reference = self.run("sequential", "q1")
        candidate = self.run("distributed", "q1")
        assert compare_event_streams(
            (reference, 1), (candidate, 2), backend="distributed"
        ) == [
            "reference log has 1 malformed line(s)",
            "distributed log has 2 malformed line(s)",
        ]

    def test_resumed_stream_replays_the_skipped_campaigns(self):
        reference = self.run("thread", "q1", "q2")
        resumed = [CampaignSkipped(campaign="q1", backend="thread", seq=0),
                   self.finished("q1", 1, "thread"),
                   CampaignStarted(campaign="q2", backend="thread", seq=2),
                   self.finished("q2", 3, "thread")]
        assert compare_event_streams(
            (reference, 0), (resumed, 0), backend="thread", skipped=1
        ) == []

    def test_a_resumed_stream_without_a_skip_is_flagged(self):
        reference = self.run("thread", "q1", "q2")
        failures = compare_event_streams(
            (reference, 0), (self.run("thread", "q1", "q2"), 0),
            backend="thread", skipped=1,
        )
        assert "expected 1 CampaignSkipped, got 0" in failures
        assert any("executed 2 campaign(s), expected 1" in failure
                   for failure in failures)

    def test_a_re_executed_skipped_campaign_is_flagged(self):
        reference = self.run("thread", "q1", "q2")
        resumed = [CampaignSkipped(campaign="q1", backend="thread"),
                   self.finished("q1", 1, "thread"),
                   *self.run("thread", "q1", "q2")]
        resumed = [dataclasses.replace(event, seq=index)
                   for index, event in enumerate(resumed)]
        failures = compare_event_streams(
            (reference, 0), (resumed, 0), backend="thread", skipped=1
        )
        assert failures == [
            "thread run executed 2 campaign(s), expected 1 of 2"
        ]


# ----------------------------------------------------------------------
# spool hygiene (clock skew, torn files, done-lease debris)
# ----------------------------------------------------------------------

class TestSpoolHygiene:
    def test_far_future_heartbeat_is_stale(self, tmp_path):
        # A lease mtime further ahead of our clock than any live
        # heartbeater plus skew could produce can never be refreshed —
        # it must be reclaimable, not fresh forever.
        spool = Spool.create(tmp_path / "spool", ttl_seconds=0.5)
        (cell,) = make_cells(1)
        spool.seed([cell])
        assert spool.claim(cell.id, "w1")
        lease = spool.leases_dir / f"{cell.id}.lease"
        skewed = time.time() + 60.0
        os.utime(lease, (skewed, skewed))
        assert spool.stale_leases() == [cell.id]
        assert not spool.has_live_activity()
        assert spool.claim(cell.id, "w2")       # steals the dead lease

    def test_small_future_skew_is_fresh(self, tmp_path):
        # Skew within one TTL is plausible (NFS server clock ahead); the
        # lease stays fresh and the claim is refused.
        spool = Spool.create(tmp_path / "spool", ttl_seconds=0.5)
        (cell,) = make_cells(1)
        spool.seed([cell])
        assert spool.claim(cell.id, "w1")
        lease = spool.leases_dir / f"{cell.id}.lease"
        skewed = time.time() + 0.3
        os.utime(lease, (skewed, skewed))
        assert spool.stale_leases() == []
        assert not spool.claim(cell.id, "w2")

    def test_far_future_worker_heartbeat_is_not_live(self, tmp_path):
        spool = Spool.create(tmp_path / "spool", ttl_seconds=0.5)
        spool.worker_heartbeat("w1")
        assert spool.live_workers() == ["w1"]
        path = spool.workers_dir / "w1.json"
        skewed = time.time() + 60.0
        os.utime(path, (skewed, skewed))
        assert spool.live_workers() == []

    def test_corrupt_cell_file_names_the_file(self, tmp_path):
        spool = Spool.create(tmp_path / "spool")
        (cell,) = make_cells(1)
        spool.seed([cell])
        path = spool.cells_dir / f"{cell.id}.json"
        path.write_text('{"torn', encoding="utf-8")
        with pytest.raises(SpoolError, match=str(path)):
            spool.cell(cell.id)

    def test_corrupt_done_marker_names_the_file(self, tmp_path):
        spool = completed_spool(tmp_path / "spool", 1)
        (cell_id,) = spool.cell_ids()
        path = spool.done_dir / f"{cell_id}.json"
        path.write_text('{"status": "o', encoding="utf-8")
        with pytest.raises(SpoolError, match=str(path)):
            spool.done_payload(cell_id)

    def test_sweep_removes_only_done_cell_leases(self, tmp_path):
        spool = Spool.create(tmp_path / "spool", ttl_seconds=0.5)
        cells = make_cells(2)
        spool.seed(cells)
        done, pending = cells
        # SIGKILL between mark_done and release: done marker present,
        # lease left behind.
        assert spool.claim(done.id, "w1")
        assert spool.mark_done(done.id, {"cell": done.id, "status": "ok"})
        assert spool.claim(pending.id, "w2")
        assert spool.sweep_done_leases() == [done.id]
        assert spool.leases() == [pending.id]
        assert spool.sweep_done_leases() == []      # idempotent


# ----------------------------------------------------------------------
# retry deadline (total-time cap)
# ----------------------------------------------------------------------

class TestRetryDeadline:
    def test_deadline_stops_before_the_attempt_budget(self, monkeypatch):
        clock = {"now": 0.0}
        sleeps = []

        def sleep(delay):
            sleeps.append(delay)
            clock["now"] += delay

        monkeypatch.setattr(retry, "time", SimpleNamespace(
            monotonic=lambda: clock["now"], sleep=sleep,
        ))
        monkeypatch.setattr(retry, "JITTER", 0.0)
        calls = []

        def always_fails():
            calls.append(1)
            raise OSError("transient")

        with pytest.raises(OSError):
            with_retries(
                always_fails,
                retryable=(OSError,),
                attempts=50,
                base=0.1,
                deadline_seconds=1.0,
            )
        # 0.1 + 0.2 + 0.4 = 0.7; the next 0.8 sleep would end past the
        # 1.0s deadline, so the error propagates after 4 attempts — far
        # short of the 50 the attempt budget alone would allow.
        assert len(calls) == 4
        assert sum(sleeps) == pytest.approx(0.7)

    def test_deadline_must_be_positive(self):
        with pytest.raises(ValueError, match="deadline_seconds"):
            with_retries(
                lambda: None, retryable=(OSError,), deadline_seconds=0.0
            )


# ----------------------------------------------------------------------
# lease-lost abandonment at N>2 (the hostile-reclaimer property)
# ----------------------------------------------------------------------

class TestLeaseLostAbandonment:
    @settings(
        max_examples=3, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_hostile_reclaims_never_break_publish_once(self, seed):
        """Three racing agents plus a reclaimer that force-steals live
        leases: every cell still completes exactly once with status ok,
        robbed attempts abandon cleanly, and no lease survives."""
        # A heartbeat every 0.02 s against the 5 s TTL.
        heartbeats = mock.patch.object(
            distributed_worker, "HEARTBEATS_PER_TTL", 250.0
        )
        heartbeats.start()
        root = Path(tempfile.mkdtemp(prefix="repro-reclaim-"))
        try:
            spool = Spool.create(root / "spool", ttl_seconds=5.0, fsync=False)
            cells = make_cells(4)
            spool.seed(cells)
            agents = [
                WorkerAgent(
                    spool, worker_id=f"agent-{index}", poll_seconds=0.01,
                    exit_when_done=True,
                )
                for index in range(3)
            ]
            rng = random.Random(seed)
            stop = threading.Event()

            def reclaim_loop():
                # Force-steal leases regardless of TTL — the worst
                # reclaimer a partitioned fleet could produce.
                while not stop.is_set() and not spool.all_done():
                    time.sleep(rng.uniform(0.01, 0.08))
                    leases = spool.leases()
                    if not leases:
                        continue
                    victim = rng.choice(leases)
                    aside = spool.leases_dir / f".stolen-{rng.random()}"
                    try:
                        os.rename(
                            spool.leases_dir / f"{victim}.lease", aside
                        )
                    except FileNotFoundError:
                        continue
                    aside.unlink(missing_ok=True)

            threads = [
                threading.Thread(target=agent.run, daemon=True)
                for agent in agents
            ]
            reclaimer = threading.Thread(target=reclaim_loop, daemon=True)
            for thread in threads:
                thread.start()
            reclaimer.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive(), "worker agent hung"
            stop.set()
            reclaimer.join(timeout=10)

            # Publish-once: the done markers are the single source of
            # truth, and only publishing attempts count as completions.
            assert sum(agent.n_completed for agent in agents) == len(cells)
            for cell in cells:
                payload = spool.done_payload(cell.id)
                assert payload is not None and payload["status"] == "ok"
                assert (spool.ledgers_dir / payload["ledger"]).is_file()
            # Robbed attempts abandoned cleanly rather than double-
            # publishing; debris leases (if any) are done-cell only.
            assert all(agent.n_abandoned >= 0 for agent in agents)
            spool.sweep_done_leases()
            assert check_spool(spool, len(cells)) == []
        finally:
            heartbeats.stop()
            shutil.rmtree(root, ignore_errors=True)


# ----------------------------------------------------------------------
# the supervised fleet, end to end
# ----------------------------------------------------------------------

class TestFleetSupervisor:
    def test_needs_at_least_one_worker(self):
        with pytest.raises(FaultError, match=">= 1 worker"):
            FleetSupervisor(tiny_plan(), workers=0)

    def test_churned_episode_is_ok_and_replayable(self, tmp_path):
        plan = tiny_plan(
            queries=("q1", "q2", "q3", "q5"), backend="distributed"
        )

        def episode(tag: str):
            supervisor = FleetSupervisor(
                plan,
                workers=3,
                churn=ChurnSpec(kills_per_worker=1, seed=5),
                ttl_seconds=1.5,
                fsync=False,
                spool_dir=tmp_path / f"spool-{tag}",
            )
            return supervisor.run(
                record=tmp_path / f"events-{tag}.jsonl", reference=True
            )

        first = episode("a")
        assert first.error is None, first.error
        assert first.invariant_failures == []
        assert first.stream_failures == []
        assert first.ok, first.to_dict()
        assert first.kills == first.schedule
        assert len(first.kills) == 3
        assert set(first.statuses.values()) == {"ok"}
        assert len(first.statuses) == 4
        # The record really is a parseable event log with one finish per
        # campaign.
        events, n_malformed = read_event_log(first.record_path)
        finished = [e for e in events if e.kind == "CampaignFinished"]
        assert n_malformed == 0 and len(finished) == 4

        second = episode("b")
        assert second.ok, second.to_dict()
        assert first.deterministic_view() == second.deterministic_view()
