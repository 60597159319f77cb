"""Unit tests for the daemon's core: queue, job store, metrics text.

The HTTP surface (real sockets, kill/restart) lives in
``test_daemon_http.py``; everything here runs in-process with no
network.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api.events import JsonlRecorder, StepCompleted, event_from_dict
from repro.api.plans import TuningPlan
from repro.api.resume import ResumeLog
from repro.daemon import JobStore, TenantQueue, render_metrics


class _FakeJob:
    def __init__(self, name: str, tenant: str = "default", priority: int = 0):
        self.name = name
        self.tenant = tenant
        self.priority = priority


# ----------------------------------------------------------------------
# TenantQueue
# ----------------------------------------------------------------------

class TestTenantQueue:
    def test_fifo_within_priority(self):
        queue = TenantQueue()
        for name in ("a", "b", "c"):
            queue.push(_FakeJob(name))
        assert [queue.pop().name for _ in range(3)] == ["a", "b", "c"]

    def test_higher_priority_dispatches_first(self):
        queue = TenantQueue()
        queue.push(_FakeJob("low", priority=0))
        queue.push(_FakeJob("high", priority=5))
        queue.push(_FakeJob("mid", priority=2))
        assert [queue.pop().name for _ in range(3)] == ["high", "mid", "low"]

    def test_pop_frees_tenant_slots(self):
        queue = TenantQueue(max_depth=1)
        queue.push(_FakeJob("a1", tenant="alice"))
        queue.push(_FakeJob("a2", tenant="alice"))
        queue.push(_FakeJob("b1", tenant="bob"))
        assert queue.depths() == {"alice": 2, "bob": 1}
        assert queue.depth() == 3
        queue.pop()
        queue.pop()
        assert queue.depths() == {"bob": 1}

    def test_pop_timeout_returns_none(self):
        assert TenantQueue().pop(timeout=0.01) is None

    def test_pop_blocks_until_push(self):
        queue = TenantQueue()
        got = []

        def consumer():
            got.append(queue.pop(timeout=5.0))

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.05)
        queue.push(_FakeJob("late"))
        thread.join(timeout=5.0)
        assert got[0].name == "late"

    def test_close_drains_then_unblocks_pop(self):
        queue = TenantQueue()
        queue.push(_FakeJob("queued"))
        queue.close()
        assert queue.draining
        assert queue.pop().name == "queued"
        assert queue.pop() is None  # empty + draining: dispatcher exit

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            TenantQueue(max_depth=0)


# ----------------------------------------------------------------------
# JobStore
# ----------------------------------------------------------------------

def _tiny_plan_data() -> dict:
    return {
        "kind": "tuning", "query": "q1", "rates": [3.0, 5.0],
        "tuner": "ds2", "scale": "smoke",
    }


def _tiny_plan() -> TuningPlan:
    data = _tiny_plan_data()
    return TuningPlan(
        query=data["query"], rates=tuple(data["rates"]),
        tuner=data["tuner"], scale=data["scale"],
    )


class TestJobStore:
    def test_submit_assigns_ids_and_records_manifest(self, tmp_path):
        store = JobStore(tmp_path, fsync=False)
        first = store.submit(_tiny_plan(), _tiny_plan_data(), "alice", 3)
        second = store.submit(_tiny_plan(), _tiny_plan_data())
        assert [first.id, second.id] == ["j000001", "j000002"]
        assert first.state == "queued"
        assert first.ledger_path == tmp_path / "j000001.jsonl"
        assert store.submitted_per_tenant == {"alice": 1, "default": 1}
        lines = (tmp_path / "manifest.jsonl").read_text().splitlines()
        events = [event_from_dict(json.loads(line)) for line in lines]
        kinds = [event.kind for event in events]
        assert kinds == [
            "JobSubmitted", "JobStateChanged",
            "JobSubmitted", "JobStateChanged",
        ]
        assert events[0].plan == _tiny_plan_data()
        assert events[0].tenant == "alice"
        assert events[0].priority == 3

    def test_mark_validates_and_stamps_times(self, tmp_path):
        store = JobStore(tmp_path, fsync=False)
        job = store.submit(_tiny_plan(), _tiny_plan_data())
        store.mark(job, "running")
        assert job.started_at is not None and not job.terminal
        store.mark(job, "failed", error="boom")
        assert job.terminal and job.error == "boom"
        with pytest.raises(ValueError, match="state"):
            store.mark(job, "exploded")

    def test_append_event_wakes_followers(self, tmp_path):
        store = JobStore(tmp_path, fsync=False)
        job = store.submit(_tiny_plan(), _tiny_plan_data())
        seen = []

        def follower():
            with job.condition:
                while not job.events:
                    job.condition.wait(timeout=5.0)
                seen.extend(job.events)

        thread = threading.Thread(target=follower)
        thread.start()
        store.append_event(job, ['{"kind": "StepCompleted"}'])
        thread.join(timeout=5.0)
        assert seen == ['{"kind": "StepCompleted"}']

    def test_recover_replays_terminal_and_requeues_interrupted(self, tmp_path):
        store = JobStore(tmp_path, fsync=False)
        done = store.submit(_tiny_plan(), _tiny_plan_data(), "alice", 1)
        hung = store.submit(_tiny_plan(), _tiny_plan_data(), "bob", 2)
        queued = store.submit(_tiny_plan(), _tiny_plan_data())
        ledger_line = json.dumps(
            StepCompleted(campaign="c", step_index=0).to_dict(), sort_keys=True
        )
        done.ledger_path.write_text(ledger_line + "\n")
        store.mark(done, "running")
        store.mark(done, "finished")
        store.mark(hung, "running")  # killed mid-run: never went terminal

        recovered = JobStore(tmp_path, fsync=False)
        to_requeue = recovered.recover()
        assert [job.id for job in to_requeue] == [hung.id, queued.id]
        replayed = recovered.get(done.id)
        assert replayed.state == "finished" and replayed.replayed
        # Bit-identical: the accessor serves the ledger's exact lines.
        assert recovered.event_lines(replayed) == [ledger_line]
        for job in to_requeue:
            assert job.state == "queued" and not job.replayed
        assert recovered.get(hung.id).tenant == "bob"
        assert recovered.get(hung.id).priority == 2
        # Fresh submissions continue the id sequence, never reuse one.
        new = recovered.submit(_tiny_plan(), _tiny_plan_data())
        assert new.id == "j000004"
        assert recovered.submitted_per_tenant == {
            "alice": 1, "bob": 1, "default": 2,
        }

    def test_submission_is_one_manifest_write(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        store = JobStore(tmp_path)
        job = store.submit(_tiny_plan(), _tiny_plan_data(), "alice", 3)
        assert len(synced) == 1
        lines = store.manifest_path.read_text().splitlines()
        events = [event_from_dict(json.loads(line)) for line in lines]
        assert [(event.kind, event.seq) for event in events] == [
            ("JobSubmitted", 0), ("JobStateChanged", 1),
        ]
        assert events[0].n_cells == job.n_cells == 1
        recovered = JobStore(tmp_path, fsync=False)
        assert [j.id for j in recovered.recover()] == [job.id]
        assert recovered.get(job.id).to_dict() == job.to_dict()

    def test_terminal_job_releases_its_buffer_for_the_ledger(self, tmp_path):
        store = JobStore(tmp_path, fsync=False)
        job = store.submit(_tiny_plan(), _tiny_plan_data())
        store.mark(job, "running")
        lines = [
            json.dumps(StepCompleted(campaign="c", step_index=i).to_dict(), sort_keys=True)
            for i in range(3)
        ]
        job.ledger_path.write_text("".join(line + "\n" for line in lines))
        store.append_event(job, lines)
        assert store.event_lines(job, 1) == lines[1:]
        store.mark(job, "finished")
        assert job.events is None
        assert job.n_events == job.to_dict()["n_events"] == 3
        assert store.event_lines(job) == lines
        assert store.event_lines(job, 2) == lines[2:]

    def test_recover_reads_no_ledger_until_asked(self, tmp_path, monkeypatch):
        store = JobStore(tmp_path, fsync=False)
        done = store.submit(_tiny_plan(), _tiny_plan_data())
        line = json.dumps(StepCompleted(campaign="c").to_dict(), sort_keys=True)
        done.ledger_path.write_text(line + "\n")
        store.mark(done, "running")
        store.mark(done, "finished")
        reads = []
        ledger_lines = JobStore._ledger_lines
        monkeypatch.setattr(JobStore, "_ledger_lines", staticmethod(
            lambda job: reads.append(job.id) or ledger_lines(job)
        ))
        recovered = JobStore(tmp_path, fsync=False)
        assert recovered.recover() == []
        assert reads == []
        replayed = recovered.get(done.id)
        assert replayed.events is None
        assert replayed.to_dict()["n_events"] == replayed.n_events == 1
        assert recovered.event_lines(replayed) == [line]
        assert reads == [done.id, done.id]   # one count, one read

    def test_recover_tolerates_truncated_manifest_tail(self, tmp_path):
        store = JobStore(tmp_path, fsync=False)
        job = store.submit(_tiny_plan(), _tiny_plan_data())
        with open(store.manifest_path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "JobStateCha')  # the crash's last line
        recovered = JobStore(tmp_path, fsync=False)
        to_requeue = recovered.recover()
        assert [j.id for j in to_requeue] == [job.id]

    @pytest.mark.parametrize(
        "line", ["[" * 200_000, '{"event": ["x"]}'], ids=["too-deep", "kind-no-name"]
    )
    def test_recover_skips_a_damaged_manifest_line(self, tmp_path, line):
        # A line nested past the recursion limit, or one whose kind is no
        # name, is malformed like a torn tail: the jobs around it recover.
        store = JobStore(tmp_path, fsync=False)
        first = store.submit(_tiny_plan(), _tiny_plan_data())
        with open(store.manifest_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        second = store.submit(_tiny_plan(), _tiny_plan_data())
        recovered = JobStore(tmp_path, fsync=False)
        assert [j.id for j in recovered.recover()] == [first.id, second.id]

    def test_recover_loads_partial_ledger_as_resume(self, tmp_path):
        from repro.api.session import TuningSession

        store = JobStore(tmp_path, fsync=False)
        plan = _tiny_plan()
        job = store.submit(plan, _tiny_plan_data())
        store.mark(job, "running")
        # A real partial ledger: record a full run, keep a prefix that
        # still contains the campaign's CampaignFinished checkpoint.
        recorder = JsonlRecorder(job.ledger_path)
        from repro.api.events import EventBus

        TuningSession().run(plan, bus=EventBus(recorder))
        recorder.close()

        recovered = JobStore(tmp_path, fsync=False)
        (requeued,) = recovered.recover()
        assert requeued.resume is not None
        assert requeued.resume.n_completed == 1
        recorded, missing = requeued.resume.covers(plan.cell_keys())
        assert recorded and not missing

    def test_recover_never_reissues_the_id_of_a_dropped_job(self, tmp_path):
        # A job whose recorded plan no longer validates (a retired
        # spelling reads as an unknown tuner) is dropped on recovery, but
        # its id and ledger stay taken: a reissued id reopens that ledger
        # with "wb".
        store = JobStore(tmp_path, fsync=False)
        stale = store.submit(_tiny_plan(), {**_tiny_plan_data(), "tuner": "ds2-legacy"})
        stale.ledger_path.write_text("the old job's events\n")
        store.mark(stale, "finished")
        recovered = JobStore(tmp_path, fsync=False)
        assert recovered.recover() == [] and recovered.get(stale.id) is None
        fresh = recovered.submit(_tiny_plan(), _tiny_plan_data())
        assert fresh.id == "j000002" and fresh.ledger_path != stale.ledger_path
        assert stale.ledger_path.read_text() == "the old job's events\n"

    def test_recover_without_manifest_is_empty(self, tmp_path):
        assert JobStore(tmp_path / "fresh", fsync=False).recover() == []


def test_standing_spool_dir_applies_before_validation(tmp_path):
    # A distributed plan staffed by no local worker is valid only on a
    # named spool: the daemon's standing one, which the manifest records
    # so that a restarted daemon resumes the job on the same fleet.
    from repro.daemon import TuningDaemon

    spool = str(tmp_path / "spool")
    daemon = TuningDaemon(port=0, ledger_dir=tmp_path / "ledger", spool_dir=spool)
    job = daemon.submit({
        "kind": "campaign", "queries": ["q1"], "tuner": "ds2",
        "backend": "distributed", "workers": 0, "scale": "smoke",
    })
    assert job.plan.spool_dir == spool
    (recovered,) = JobStore(tmp_path / "ledger").recover()
    assert recovered.plan.spool_dir == spool


# ----------------------------------------------------------------------
# JsonlRecorder durability (fsync per block)
# ----------------------------------------------------------------------

class TestRecorderDurability:
    def test_fsync_recorder_survives_sigkill_mid_stream(self, tmp_path):
        """Every event recorded before a SIGKILL must be on disk."""
        ledger = tmp_path / "ledger.jsonl"
        script = (
            "import os, sys\n"
            "from repro.api.events import JsonlRecorder, StepCompleted\n"
            "recorder = JsonlRecorder(sys.argv[1], fsync=True)\n"
            "for index in range(5):\n"
            "    recorder(StepCompleted(campaign='kill-test', step_index=index))\n"
            "os.kill(os.getpid(), 9)  # no close(), no interpreter exit\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.run(
            [sys.executable, "-c", script, str(ledger)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert process.returncode == -signal.SIGKILL
        lines = ledger.read_text().splitlines()
        assert len(lines) == 5
        events = [event_from_dict(json.loads(line)) for line in lines]
        assert [event.step_index for event in events] == list(range(5))

    def test_fsync_flag_defaults_off(self, tmp_path):
        recorder = JsonlRecorder(tmp_path / "plain.jsonl")
        assert recorder.fsync is False
        recorder(StepCompleted(campaign="c"))
        recorder.close()
        fsynced = JsonlRecorder(tmp_path / "sync.jsonl", fsync=True)
        fsynced(StepCompleted(campaign="c"))
        fsynced.close()
        # Same bytes either way; fsync changes durability, not content.
        assert (
            (tmp_path / "plain.jsonl").read_bytes()
            == (tmp_path / "sync.jsonl").read_bytes()
        )

    def test_a_job_pays_one_ledger_fsync_per_block(self, tmp_path, monkeypatch):
        from repro.daemon import TuningDaemon

        daemon = TuningDaemon(port=0, ledger_dir=tmp_path)
        plan_data = {
            "kind": "tuning", "query": "q8", "rates": [3.0, 7.0, 4.0, 2.0],
            "tuner": "ds2", "scale": "smoke",
        }
        jobs: list = []
        synced: list[str] = []
        durable = [0]              # ledger lines covered by earlier fsyncs
        real_fsync = os.fsync

        def spy(fd):
            inode = os.fstat(fd).st_ino
            if inode == os.stat(daemon.store.manifest_path).st_ino:
                synced.append("manifest")
            else:
                (job,) = jobs
                assert inode == os.stat(job.ledger_path).st_ino
                synced.append("ledger")
                # The block being synced is not in the buffer yet; every
                # line before it is.
                on_disk = job.ledger_path.read_text().splitlines()
                assert job.events == on_disk[: durable[0]]
                durable[0] = len(on_disk)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        jobs.append(daemon.submit(plan_data))
        daemon._run_job(jobs[0])
        lines = jobs[0].ledger_path.read_text().splitlines()
        kinds = [json.loads(line)["event"] for line in lines]
        assert len(lines) == 13 and kinds.count("Reconfigured") == 6
        # CampaignStarted, four step blocks, CampaignFinished, CacheStats.
        assert synced.count("ledger") == 7
        # Submission + queued, running, finished.
        assert synced.count("manifest") == 3
        assert durable[0] == jobs[0].n_events == 13

    def test_sigkill_mid_block_leaves_a_resumable_prefix(self, tmp_path):
        """A kill while a step's Reconfigured lines are pending loses that
        block and nothing before it."""
        ledger = tmp_path / "ledger.jsonl"
        script = (
            "import os, sys\n"
            "from repro.api import EventBus, JsonlRecorder, plan_from_dict\n"
            "from repro.api.session import TuningSession\n"
            "recorder = JsonlRecorder(sys.argv[1], fsync=True)\n"
            "seen = []\n"
            "def kill_mid_block(event):\n"
            "    seen.append(event.kind)\n"
            "    if 'CampaignFinished' in seen and event.kind == 'Reconfigured':\n"
            "        os.kill(os.getpid(), 9)\n"
            "plan = plan_from_dict({'kind': 'campaign', 'queries': ['q1', 'q5'],\n"
            "    'rates': [3.0, 5.0], 'tuner': 'ds2', 'backend': 'sequential',\n"
            "    'scale': 'smoke', 'seed': 17})\n"
            "TuningSession().run(plan, bus=EventBus(recorder, kill_mid_block))\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.run(
            [sys.executable, "-c", script, str(ledger)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert process.returncode == -signal.SIGKILL
        kinds = [
            json.loads(line)["event"] for line in ledger.read_text().splitlines()
        ]
        # The second campaign started; its first block never committed.
        assert kinds.count("CampaignStarted") == 2
        assert kinds[-1] == "CampaignStarted"
        log = ResumeLog.load(ledger)
        assert log.n_malformed_lines == 0 and log.n_completed == 1


# ----------------------------------------------------------------------
# /metrics rendering
# ----------------------------------------------------------------------

GOLDEN_SNAPSHOT = {
    "jobs": {"queued": 2, "running": 1, "finished": 4, "failed": 1},
    "queue_depths": {"bob": 1, "alice": 1},
    "tenants_submitted": {"alice": 5, "bob": 3},
    "campaigns_finished": 9,
    "campaigns_failed": 1,
    "steps": 42,
    "reconfigurations": 17,
    "events": 120,
    "cache_stats": {
        "assign": {"hits": 30, "misses": 10, "size": 10},
        "warmup": {"hits": 0, "misses": 0, "size": 0},
    },
    "uptime_seconds": 12.5,
}

GOLDEN_TEXT = """\
# HELP repro_jobs_total Jobs in the daemon's table, by lifecycle state.
# TYPE repro_jobs_total gauge
repro_jobs_total{state="queued"} 2
repro_jobs_total{state="running"} 1
repro_jobs_total{state="finished"} 4
repro_jobs_total{state="failed"} 1
# HELP repro_queue_depth Jobs currently queued, per tenant.
# TYPE repro_queue_depth gauge
repro_queue_depth{tenant="alice"} 1
repro_queue_depth{tenant="bob"} 1
# HELP repro_queue_depth_total Jobs currently queued, all tenants.
# TYPE repro_queue_depth_total gauge
repro_queue_depth_total 2
# HELP repro_tenant_submitted_total Plan submissions accepted, per tenant.
# TYPE repro_tenant_submitted_total counter
repro_tenant_submitted_total{tenant="alice"} 5
repro_tenant_submitted_total{tenant="bob"} 3
# HELP repro_campaigns_finished_total Campaigns finished by this daemon process.
# TYPE repro_campaigns_finished_total counter
repro_campaigns_finished_total 9
# HELP repro_campaigns_failed_total Campaigns failed in this daemon process.
# TYPE repro_campaigns_failed_total counter
repro_campaigns_failed_total 1
# HELP repro_steps_total Tuning steps executed by this daemon process.
# TYPE repro_steps_total counter
repro_steps_total 42
# HELP repro_reconfigurations_total Parallelism reconfigurations applied by this daemon process.
# TYPE repro_reconfigurations_total counter
repro_reconfigurations_total 17
# HELP repro_events_total Typed events observed by this daemon process.
# TYPE repro_events_total counter
repro_events_total 120
# HELP repro_cache_hits_total Shared cache plane hits, per section.
# TYPE repro_cache_hits_total counter
repro_cache_hits_total{section="assign"} 30
repro_cache_hits_total{section="warmup"} 0
# HELP repro_cache_misses_total Shared cache plane misses, per section.
# TYPE repro_cache_misses_total counter
repro_cache_misses_total{section="assign"} 10
repro_cache_misses_total{section="warmup"} 0
# HELP repro_cache_size Entries resident in the shared cache plane, per section.
# TYPE repro_cache_size gauge
repro_cache_size{section="assign"} 10
repro_cache_size{section="warmup"} 0
# HELP repro_cache_hit_ratio Hits over lookups in the shared cache plane, per section.
# TYPE repro_cache_hit_ratio gauge
repro_cache_hit_ratio{section="assign"} 0.75
repro_cache_hit_ratio{section="warmup"} 0
# HELP repro_uptime_seconds Seconds since this daemon process started serving.
# TYPE repro_uptime_seconds gauge
repro_uptime_seconds 12.5
"""


class TestRenderMetrics:
    def test_golden(self):
        assert render_metrics(GOLDEN_SNAPSHOT) == GOLDEN_TEXT

    def test_empty_snapshot_renders_zeroes(self):
        text = render_metrics({})
        assert 'repro_jobs_total{state="queued"} 0' in text
        assert "repro_queue_depth_total 0" in text
        assert "repro_uptime_seconds 0" in text
        assert text.endswith("\n")

    def test_label_escaping(self):
        text = render_metrics(
            {"queue_depths": {'we"ird\\ten\nant': 1}}
        )
        assert (
            'repro_queue_depth{tenant="we\\"ird\\\\ten\\nant"} 1' in text
        )
