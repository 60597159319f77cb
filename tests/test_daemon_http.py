"""End-to-end daemon tests over real sockets.

The daemon here is the real thing: a bound ``ThreadingHTTPServer``, the
real dispatcher thread, real fsynced ledgers — driven through
:class:`~repro.daemon.DaemonClient` exactly as ``repro submit`` does.
The kill test SIGKILLs a daemon subprocess outright and asserts the
``--resume auto`` restart contract: finished jobs replay bit-identically,
interrupted jobs execute only their missing cells.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.daemon import DaemonClient, DaemonClientError, JobStore, TuningDaemon

TINY_PLAN = {
    "kind": "tuning", "query": "q1", "rates": [3.0, 5.0],
    "tuner": "ds2", "scale": "smoke",
}

TWO_CELL_PLAN = {
    "kind": "campaign", "queries": ["q1", "q5"], "rates": [3.0, 5.0],
    "tuner": "ds2", "backend": "sequential", "scale": "smoke", "seed": 17,
}


@pytest.fixture
def daemon(tmp_path):
    """A served, in-process daemon on an ephemeral port; always stopped."""
    instance = TuningDaemon(port=0, ledger_dir=tmp_path / "ledger")
    instance.start()
    try:
        yield instance
    finally:
        instance.stop()


def _client(daemon: TuningDaemon) -> DaemonClient:
    return DaemonClient(daemon.url)


class TestSubmitFollowFinish:
    def test_submit_runs_streams_and_persists(self, daemon, tmp_path):
        client = _client(daemon)
        assert client._request("GET", "/healthz")["status"] == "ok"
        job = client.submit_plan(TINY_PLAN, tenant="alice", priority=2)
        assert job["job"] == "j000001"
        assert job["tenant"] == "alice" and job["priority"] == 2
        assert job["plan_kind"] == "tuning" and job["n_cells"] == 1

        followed = list(client.follow(job["job"]))
        kinds = [event["event"] for event in followed]
        assert kinds[0] == "CampaignStarted"
        assert "StepCompleted" in kinds
        assert kinds[-2:] == ["CampaignFinished", "CacheStats"]

        final = client.job(job["job"])
        assert final["state"] == "finished" and not final["replayed"]
        assert final["n_events"] == len(followed)

        # The live stream, the re-read stream and the on-disk ledger are
        # the same bytes.
        lines = client.event_lines(job["job"])
        ledger = tmp_path / "ledger" / "j000001.jsonl"
        assert lines == ledger.read_text().splitlines()
        assert [json.loads(line) for line in lines] == followed

    def test_finished_job_is_served_from_its_ledger(self, daemon, monkeypatch):
        client = _client(daemon)
        job_id = client.submit_plan(TINY_PLAN)["job"]
        deadline = time.monotonic() + 30
        while client.job(job_id)["state"] != "finished":
            assert time.monotonic() < deadline, "job hung"
            time.sleep(0.02)
        stored = daemon.store.get(job_id)
        assert stored.events is None            # no line buffer once finished
        ledger = stored.ledger_path.read_bytes()
        with client._request("GET", f"/v1/jobs/{job_id}/events", stream=True) as response:
            assert response.read() == ledger
        # The status view reads counts taken while the job ran: no plan
        # expansion, so no query is resolved.
        import repro.api.components as components
        import repro.api.plans as plans

        def refuse(*args, **kwargs):
            raise AssertionError("a status read resolved a query")

        monkeypatch.setattr(components, "resolve_query", refuse)
        monkeypatch.setattr(plans, "resolve_query", refuse)
        status = client.job(job_id)
        assert status["n_cells"] == 1
        assert status["n_events"] == len(ledger.splitlines())
        assert [job["n_events"] for job in client.jobs()] == [status["n_events"]]

    def test_follow_across_the_terminal_transition_is_the_ledger(self, daemon):
        client = _client(daemon)
        release = threading.Event()
        append = daemon.store.append_event

        def held(job, lines):
            append(job, lines)
            release.wait(timeout=30)    # the run pauses after each block

        daemon.store.append_event = held
        job_id = client.submit_plan(TINY_PLAN)["job"]
        response = client._request(
            "GET", f"/v1/jobs/{job_id}/events?follow=1", stream=True, timeout=30
        )
        with response:
            first = response.readline()          # streamed from the live buffer
            assert first and not daemon.store.get(job_id).terminal
            release.set()
            body = first + response.read()
        stored = daemon.store.get(job_id)
        assert stored.state == "finished" and stored.events is None
        assert body == stored.ledger_path.read_bytes()

    def test_a_failed_ledger_sync_publishes_nothing_of_its_block(self, daemon):
        from repro.faults import FaultPlan, FaultRule, activate, deactivate

        # The second ledger sync is the first step's block: Reconfigured
        # lines plus the StepCompleted that closes them.
        activate(FaultPlan(rules=[FaultRule(
            site="ledger.fsync.crash-before", effect="error", hits=(2,),
        )]))
        try:
            client = _client(daemon)
            job_id = client.submit_plan(TINY_PLAN)["job"]
            followed = list(client.follow(job_id))
        finally:
            deactivate()
        assert client.job(job_id)["state"] == "finished"
        stored = daemon.store.get(job_id)
        lines = daemon.store.event_lines(stored)
        for events in (followed, [json.loads(line) for line in lines]):
            assert [
                (event["event"], event.get("step_index")) for event in events
            ] == [
                ("CampaignStarted", None),
                ("Reconfigured", 1), ("StepCompleted", 1),
                ("CampaignFinished", None), ("CacheStats", None),
            ]
        assert [json.loads(line) for line in lines] == followed
        assert "".join(line + "\n" for line in lines).encode() == (
            stored.ledger_path.read_bytes()
        )

    def test_jobs_on_one_template_build_it_once(self, daemon, monkeypatch):
        import repro.workloads.pqp as pqp

        build = pqp._build_template.__wrapped__
        built = []

        def counted(template, seed):
            built.append(template)
            return build(template, seed)

        monkeypatch.setattr(
            pqp, "_build_template", functools.lru_cache(maxsize=None)(counted)
        )
        client = _client(daemon)
        for _ in range(5):
            job = client.submit_plan({**TINY_PLAN, "query": "3-way-join/0"})
            list(client.follow(job["job"]))
            assert client.job(job["job"])["state"] == "finished"
        assert built == ["3-way-join"]

    def test_jobs_listing_and_filters(self, daemon):
        client = _client(daemon)
        first = client.submit_plan(TINY_PLAN, tenant="alice")
        second = client.submit_plan(TINY_PLAN, tenant="bob")
        for job in (first, second):
            list(client.follow(job["job"]))  # wait for both
        assert [j["job"] for j in client.jobs()] == ["j000001", "j000002"]
        assert [j["job"] for j in client.jobs(tenant="bob")] == ["j000002"]
        assert len(client.jobs(state="finished")) == 2
        assert client.jobs(state="failed") == []

    @pytest.mark.parametrize("tenant", ["team&priority=9", "a b", "x#y"])
    def test_tenant_names_survive_the_query_string(self, daemon, tenant):
        # A tenant holding '&', ' ' or '#' must reach the daemon as one
        # value: neither a second parameter, an invalid URL nor a fragment.
        client = _client(daemon)
        job = client.submit_plan(TINY_PLAN, tenant=tenant)
        list(client.follow(job["job"]))
        (listed,) = client.jobs(tenant=tenant)
        assert listed["job"] == job["job"]
        assert (listed["tenant"], listed["priority"]) == (tenant, 0)

    def test_toml_submission(self, daemon, tmp_path):
        plan_file = tmp_path / "plan.toml"
        plan_file.write_text(
            'kind = "tuning"\nquery = "q1"\nrates = [3.0, 5.0]\n'
            'tuner = "ds2"\nscale = "smoke"\n'
        )
        client = _client(daemon)
        job = client.submit_plan(plan_file)
        assert job["plan_kind"] == "tuning"
        list(client.follow(job["job"]))
        assert client.job(job["job"])["state"] == "finished"

    def test_toml_submission_through_tomli(self, daemon, tmp_path, monkeypatch):
        # Python 3.10 has no tomllib; the daemon decodes through the plan
        # loader's parser, which falls back to tomli.
        try:
            import tomllib as parser
        except ModuleNotFoundError:
            parser = pytest.importorskip("tomli")
        monkeypatch.setitem(sys.modules, "tomllib", None)
        monkeypatch.setitem(sys.modules, "tomli", parser)
        plan_file = tmp_path / "plan.toml"
        plan_file.write_text('kind = "tuning"\nquery = "q1"\nrates = [3.0]\n'
                             'tuner = "ds2"\nscale = "smoke"\n')
        job = _client(daemon).submit_plan(plan_file)
        assert job["plan_kind"] == "tuning"

    def test_metrics_scrape(self, daemon):
        client = _client(daemon)
        job = client.submit_plan(TINY_PLAN, tenant="alice")
        list(client.follow(job["job"]))
        text = client._text("/metrics")
        assert 'repro_jobs_total{state="finished"} 1' in text
        assert 'repro_tenant_submitted_total{tenant="alice"} 1' in text
        assert "repro_campaigns_finished_total 1" in text
        assert "repro_steps_total 2" in text  # one per rate in the trace
        assert "# TYPE repro_cache_hit_ratio gauge" in text
        uptime = [
            line for line in text.splitlines()
            if line.startswith("repro_uptime_seconds ")
        ]
        assert len(uptime) == 1 and float(uptime[0].split()[1]) >= 0.0


class TestKeepAlive:
    @staticmethod
    def _count_accepts(daemon) -> list:
        accepted = []
        accept = daemon._httpd.get_request

        def counted():
            request = accept()
            accepted.append(request[1])
            return request

        daemon._httpd.get_request = counted
        return accepted

    def test_a_job_costs_one_connection(self, daemon):
        accepted = self._count_accepts(daemon)
        client = _client(daemon)
        job_id = client.submit_plan(TINY_PLAN)["job"]
        assert list(client.follow(job_id))
        assert client.job(job_id)["state"] == "finished"
        assert len(accepted) == 1

    def test_a_refused_post_leaves_the_connection_usable(self, daemon):
        accepted = self._count_accepts(daemon)
        client = _client(daemon)
        body = json.dumps(TINY_PLAN).encode()
        for path, status in (("/v2/nothing", 404), ("/v1/plans?priority=high", 400)):
            with pytest.raises(DaemonClientError) as excinfo:
                client._request("POST", path, body=body)
            assert excinfo.value.status == status
            # The refused body was read, not left to be parsed as the
            # next request on the kept-alive connection.
            assert client._request("GET", "/healthz")["status"] == "ok"
        assert len(accepted) == 1

    def test_concurrent_callers_never_share_a_connection(self, daemon):
        client = _client(daemon)
        job_ids = [client.submit_plan(TINY_PLAN)["job"] for _ in range(4)]
        answers: list = []
        interval = sys.getswitchinterval()

        def caller(index: int) -> None:
            for _ in range(25):
                job_id = job_ids[index % len(job_ids)]
                answers.append(client.job(job_id)["job"] == job_id)

        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=caller, args=(index,)) for index in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # A connection handed to two callers at once would cross answers
        # or raise; every caller read its own job.
        assert answers == [True] * 200
        client.close()
        assert client._request("GET", "/healthz")["status"] == "ok"

    def test_half_read_follow_then_job(self, daemon):
        client = _client(daemon)
        job_id = client.submit_plan(TINY_PLAN)["job"]
        stream = client.follow(job_id)
        assert next(stream)["event"] == "CampaignStarted"
        # The stream still holds its connection: this one is another.
        assert client.job(job_id)["job"] == job_id
        stream.close()          # abandoned mid-body: closed, not kept
        assert list(client.follow(job_id))[-1]["event"] == "CacheStats"
        assert client.job(job_id)["state"] == "finished"

    def test_same_client_outlives_a_dropped_stream(self, daemon):
        from repro.faults import FaultPlan, FaultRule, activate, deactivate

        client = _client(daemon)
        activate(FaultPlan(rules=[FaultRule(
            site="daemon.server.stream.drop", effect="error", hits=(1,),
            error="ConnectionResetError",
        )]))
        try:
            job_id = client.submit_plan(TINY_PLAN)["job"]
            with pytest.raises(DaemonClientError, match="broke off"):
                list(client.follow(job_id))
        finally:
            deactivate()
        assert client.job(job_id)["job"] == job_id
        followed = list(client.follow(job_id))
        assert followed[-1]["event"] == "CacheStats"
        assert client.job(job_id)["n_events"] == len(followed)

    def test_a_connection_close_client_gets_full_answers(self, daemon):
        import urllib.request

        client = _client(daemon)
        job_id = client.submit_plan(TINY_PLAN)["job"]
        followed = list(client.follow(job_id))
        url = f"{daemon.url}/v1/jobs/{job_id}"
        # urllib sends "Connection: close" on every request.
        with urllib.request.urlopen(url + "/events?follow=1", timeout=30) as response:
            streamed = response.read()
        with urllib.request.urlopen(url + "/events", timeout=30) as response:
            plain = response.read()
        with urllib.request.urlopen(url, timeout=30) as response:
            status = json.loads(response.read())
        assert streamed == plain == daemon.store.get(job_id).ledger_path.read_bytes()
        assert status["n_events"] == len(followed)


class TestHttpErrors:
    def test_invalid_plan_is_400(self, daemon):
        client = _client(daemon)
        with pytest.raises(DaemonClientError) as excinfo:
            client.submit_plan({"kind": "tuning", "query": "q1", "rates": []})
        assert excinfo.value.status == 400
        with pytest.raises(DaemonClientError) as excinfo:
            client.submit_plan({"no": "kind"})
        assert excinfo.value.status == 400

    def test_wrong_typed_name_is_400(self, daemon):
        with pytest.raises(DaemonClientError) as excinfo:
            _client(daemon).submit_plan(
                {"kind": "tuning", "query": "q1", "engine": 5, "tuner": "ds2"}
            )
        assert excinfo.value.status == 400
        assert "engine must be a string" in str(excinfo.value)

    def test_an_unbounded_trace_is_400(self, daemon):
        with pytest.raises(DaemonClientError) as excinfo:
            _client(daemon).submit_plan({
                "kind": "tuning", "query": "q1", "tuner": "ds2",
                "trace": {"family": "bursty", "params": {"n_steps": 10**9}},
            })
        assert excinfo.value.status == 400
        assert "n_steps must be in 1..10000" in str(excinfo.value)

    def test_unparseable_body_is_400(self, daemon):
        with pytest.raises(DaemonClientError) as excinfo:
            _client(daemon)._request(
                "POST", "/v1/plans", body=b"not json {", stream=False
            )
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length_is_400_and_closes(self, daemon, length):
        request = (
            "POST /v1/plans HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n{{}}"
        ).encode()
        with socket.create_connection((daemon.host, daemon.port), timeout=5) as sock:
            sock.sendall(request)
            received = b""
            while chunk := sock.recv(4096):      # EOF: the daemon closed it
                received += chunk
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert "Content-Length" in json.loads(body)["error"]

    def test_unknown_job_is_404(self, daemon):
        client = _client(daemon)
        for path in ("/v1/jobs/j999999", "/v1/jobs/j999999/events"):
            with pytest.raises(DaemonClientError) as excinfo:
                client._request("GET", path)
            assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, daemon):
        with pytest.raises(DaemonClientError) as excinfo:
            _client(daemon)._request("GET", "/v2/everything")
        assert excinfo.value.status == 404

    def test_failed_plan_marks_job_failed(self, daemon):
        client = _client(daemon)
        # A model directory that does not exist passes plan validation
        # (paths resolve at execution time) and fails in the run — the
        # daemon must survive it, record the failure, and keep serving.
        job = client.submit_plan({
            "kind": "tuning", "query": "q1", "rates": [3.0],
            "model": "/nonexistent/model", "scale": "smoke",
        })
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            state = client.job(job["job"])["state"]
            if state in ("finished", "failed"):
                break
            time.sleep(0.05)
        final = client.job(job["job"])
        assert final["state"] == "failed"
        assert final["error"]
        # It failed before its first event: there is nothing to serve.
        assert final["n_events"] == 0
        assert client.event_lines(job["job"]) == []
        assert list(client.follow(job["job"])) == []
        # The daemon is still alive and serving.
        assert client._request("GET", "/healthz")["status"] == "ok"
        next_job = client.submit_plan(TINY_PLAN)
        list(client.follow(next_job["job"]))
        assert client.job(next_job["job"])["state"] == "finished"


class TestAdmissionAndShutdown:
    def test_backpressure_draining_and_graceful_drain(self, tmp_path):
        daemon = TuningDaemon(
            port=0, ledger_dir=tmp_path / "ledger", max_queue_depth=1
        )
        gate = threading.Event()
        real_run = daemon.session.run

        def gated_run(plan, **kwargs):
            gate.wait(timeout=60)
            return real_run(plan, **kwargs)

        daemon.session.run = gated_run
        daemon.start()
        try:
            client = _client(daemon)
            running = client.submit_plan(TINY_PLAN, tenant="alice")
            deadline = time.monotonic() + 10
            while client.job(running["job"])["state"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            queued = client.submit_plan(TINY_PLAN, tenant="alice")
            # alice's slice (depth 1) is now full: 429.
            with pytest.raises(DaemonClientError) as excinfo:
                client.submit_plan(TINY_PLAN, tenant="alice")
            assert excinfo.value.status == 429
            # Other tenants are unaffected by alice's backlog.
            other = client.submit_plan(TINY_PLAN, tenant="bob")
            text = client._text("/metrics")
            assert 'repro_queue_depth{tenant="alice"} 1' in text
            assert 'repro_queue_depth{tenant="bob"} 1' in text

            assert client.shutdown() == {"status": "draining"}
            with pytest.raises(DaemonClientError) as excinfo:
                client.submit_plan(TINY_PLAN, tenant="carol")
            assert excinfo.value.status == 503

            gate.set()
            daemon.stop()
            # The in-flight job drained to completion; the queued jobs
            # stayed "queued" in the manifest, ready for --resume auto.
            recovered = JobStore(tmp_path / "ledger", fsync=False)
            to_requeue = recovered.recover()
            assert recovered.get(running["job"]).state == "finished"
            assert {job.id for job in to_requeue} == {
                queued["job"], other["job"],
            }
        finally:
            gate.set()
            daemon.stop()

    def test_stop_closes_kept_alive_connections(self, tmp_path):
        def handlers():
            return {
                thread for thread in threading.enumerate()
                if "process_request_thread" in thread.name and thread.is_alive()
            }

        before = handlers()
        daemon = TuningDaemon(port=0, ledger_dir=tmp_path / "ledger")
        daemon.start()
        client = DaemonClient(daemon.url)
        assert client._request("GET", "/healthz")["status"] == "ok"
        assert handlers() - before         # the idle connection's handler
        daemon.stop()
        assert not handlers() - before
        with pytest.raises(DaemonClientError):
            client._request("GET", "/healthz")


class TestResumeAuto:
    def test_restart_executes_only_missing_cells(self, tmp_path):
        """A job interrupted mid-campaign re-runs only what the partial
        ledger does not cover (deterministic: the interruption is staged,
        not raced)."""
        from repro.api import EventBus, JsonlRecorder, plan_from_dict
        from repro.api.session import TuningSession

        ledger_dir = tmp_path / "ledger"
        store = JobStore(ledger_dir, fsync=False)
        plan = plan_from_dict(TWO_CELL_PLAN)
        job = store.submit(plan, TWO_CELL_PLAN)
        store.mark(job, "running")
        # Stage the kill point: the ledger holds cell 1 (q1) only — a
        # single-query plan with identical axes stamps the same cell key.
        one_cell = plan_from_dict({**TWO_CELL_PLAN, "queries": ["q1"]})
        recorder = JsonlRecorder(job.ledger_path)
        TuningSession().run(one_cell, bus=EventBus(recorder))
        recorder.close()

        daemon = TuningDaemon(
            port=0, ledger_dir=ledger_dir, resume="auto"
        )
        daemon.start()
        try:
            client = _client(daemon)
            events = list(client.follow(job.id))
            kinds = [event["event"] for event in events]
            # q1 was replayed from the checkpoint, q5 actually executed.
            assert kinds.count("CampaignSkipped") == 1
            assert kinds.count("CampaignFinished") == 2
            skipped = next(e for e in events if e["event"] == "CampaignSkipped")
            assert "q1" in skipped["cell_key"]
            assert client.job(job.id)["state"] == "finished"
        finally:
            daemon.stop()

    def test_recovery_requeues_past_the_depth_limit_across_a_drain(
        self, tmp_path
    ):
        """Admission is ``submit``'s alone: a restart queues every job the
        manifest holds, however far past its tenant's slice, and a job a
        drain left queued is queued again on the next start."""
        from repro.api import plan_from_dict
        from repro.daemon import QueueFull

        ledger_dir = tmp_path / "ledger"
        store = JobStore(ledger_dir, fsync=False)
        plan = plan_from_dict(TINY_PLAN)
        jobs = [store.submit(plan, TINY_PLAN, "alice") for _ in range(3)]

        daemon = TuningDaemon(
            port=0, ledger_dir=ledger_dir, resume="auto", max_queue_depth=1
        )
        gate = threading.Event()
        real_run = daemon.session.run

        def gated_run(plan, **kwargs):
            gate.wait(timeout=60)
            return real_run(plan, **kwargs)

        daemon.session.run = gated_run
        daemon.start()
        try:
            deadline = time.monotonic() + 10
            while daemon.store.get(jobs[0].id).state != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            assert daemon.queue.depth("alice") == 2
            with pytest.raises(QueueFull):
                daemon.submit(TINY_PLAN, tenant="alice")
        finally:
            gate.set()
            daemon.stop()

        daemon = TuningDaemon(
            port=0, ledger_dir=ledger_dir, resume="auto", max_queue_depth=1
        )
        daemon.start()
        try:
            client = _client(daemon)
            for job in jobs[1:]:
                list(client.follow(job.id))
            assert [client.job(job.id)["state"] for job in jobs] == [
                "finished"
            ] * 3
        finally:
            daemon.stop()

    def test_sigkill_then_restart_replays_bit_identically(self, tmp_path):
        """The full acceptance path: a real daemon process, a real -9."""
        ledger_dir = tmp_path / "ledger"
        script = (
            "import sys\n"
            "from repro.daemon import TuningDaemon\n"
            "daemon = TuningDaemon(port=0, ledger_dir=sys.argv[1],\n"
            "                      resume=(sys.argv[2] or None))\n"
            "daemon.serve(on_ready=lambda ready: print(ready.url, flush=True))\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

        def spawn(resume: str) -> "tuple[subprocess.Popen, DaemonClient]":
            process = subprocess.Popen(
                [sys.executable, "-c", script, str(ledger_dir), resume],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True,
            )
            url = process.stdout.readline().strip()
            assert url.startswith("http://"), "daemon failed to start"
            return process, DaemonClient(url)

        process, client = spawn("")
        try:
            done = client.submit_plan(TINY_PLAN, tenant="alice")
            list(client.follow(done["job"]))
            assert client.job(done["job"])["state"] == "finished"
            pre_kill_lines = client.event_lines(done["job"])
            assert pre_kill_lines
            # A second job goes in and the daemon dies immediately —
            # whatever state the kill caught it in must be recoverable.
            interrupted = client.submit_plan(TWO_CELL_PLAN, tenant="alice")
        finally:
            process.kill()  # SIGKILL: no drain, no atexit, no flush
            process.wait(timeout=30)

        process, client = spawn("auto")
        try:
            # The finished job replays bit-identically, marked as such.
            replayed = client.job(done["job"])
            assert replayed["state"] == "finished" and replayed["replayed"]
            assert client.event_lines(done["job"]) == pre_kill_lines
            # The interrupted job re-runs to completion.
            deadline = time.monotonic() + 60
            while client.job(interrupted["job"])["state"] != "finished":
                assert time.monotonic() < deadline, "interrupted job hung"
                time.sleep(0.05)
            kinds = [
                event["event"]
                for event in client.events(interrupted["job"])
            ]
            # Every cell accounted for: executed or replayed, never lost
            # and never run twice.
            assert kinds.count("CampaignFinished") == 2
            client.shutdown()
            process.wait(timeout=30)
            assert process.returncode == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)
