"""The ``repro serve`` daemon: a persistent HTTP control plane.

One :class:`TuningDaemon` owns the expensive long-lived state — a
:class:`~repro.api.session.TuningSession` and one shared
:class:`~repro.service.cache.TuningCacheSet` every job warms for the
next — and exposes it through a stdlib ``ThreadingHTTPServer``:

=========================== ==========================================
``POST /v1/plans``          submit a plan (JSON or TOML body) -> job
``GET  /v1/jobs``           list jobs (``?tenant=``, ``?state=``)
``GET  /v1/jobs/{id}``      one job's status
``GET  /v1/jobs/{id}/events`` the job's event ledger as NDJSON;
                            ``?follow=1`` streams live (chunked) until
                            the job reaches a terminal state
``GET  /metrics``           Prometheus text exposition
``GET  /healthz``           liveness
``POST /v1/shutdown``       graceful drain + exit
=========================== ==========================================

Submissions pass admission in :meth:`TuningDaemon.submit` (429 when a
tenant's slice of the :class:`~repro.daemon.queue.TenantQueue` is full,
503 while draining) and a single dispatcher thread executes jobs one at
a time — the concurrency knob is the *plan's* backend (thread or
distributed fleets), not competing sessions fighting over cores.

Durability: every accepted submission and state transition is fsynced
into the store manifest, and a job's events are fsynced into its own
JSONL ledger one block at a time (a step's ``Reconfigured`` lines travel
with the ``StepCompleted`` that closes them) *before* followers see
them — so a SIGKILL loses at most the in-flight campaign, and ``repro
serve --resume auto`` restarts by replaying finished jobs bit-identically
and re-running only the cells the kill lost (the partial ledger is the
resume log).  Connections are HTTP/1.1 keep-alive with Nagle off: a
client pays one connection for a job's submit, follow and status reads.

Shutdown (SIGTERM/SIGINT or ``POST /v1/shutdown``) drains the in-flight
job through the service's crash-safe drain loop, leaves queued jobs in
the manifest for the next start and snapshots ``--cache-path`` if
given.
"""

from __future__ import annotations

import json
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from repro.api.events import EventBus, JsonlRecorder, MetricsAggregator
from repro.api.plans import PlanError, plan_from_dict
from repro.daemon.jobs import JOB_STATES, JobStore
from repro.daemon.metrics_endpoint import render_metrics
from repro.daemon.queue import QueueDraining, QueueFull, TenantQueue
from repro.faults.plane import fire as _fire
from repro.utils.config import decode_text

__all__ = ["TuningDaemon"]

#: How long the dispatcher sleeps between queue polls while idle; also
#: bounds how quickly a stop request is noticed.
_POLL_SECONDS = 0.25

#: The HTTP accept loop's select timeout.  ``httpd.shutdown()`` blocks
#: until the loop next wakes, so this bounds stop latency; an idle
#: select wakeup this often costs nothing measurable.
_HTTP_POLL_SECONDS = 0.02


class TuningDaemon:
    """The long-lived service behind ``repro serve``.

    Parameters mirror the CLI flags: ``ledger_dir`` is where the
    manifest and per-job ledgers live (and what ``--resume auto``
    replays), ``cache_path`` optionally round-trips the shared cache
    plane through a snapshot across daemon restarts, and ``port=0``
    binds an ephemeral port (read :attr:`port` after :meth:`start`).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        ledger_dir: str | Path = "daemon-ledger",
        max_queue_depth: int = 16,
        cache_path: str | None = None,
        resume: str | None = None,
        fsync: bool = True,
        # Accepted and ignored: ``benchmarks/e2e/workloads.py`` passes
        # ``use_shm=False``, so deleting the keyword would fail every
        # ``daemon_ds2`` op; it goes once that harness stops passing it.
        use_shm: bool = True,
        spool_dir: "str | Path | None" = None,
    ) -> None:
        from repro.service.cache import TuningCacheSet

        self.host = host
        self._requested_port = port
        self.ledger_dir = Path(ledger_dir)
        self.cache_path = cache_path
        self.resume = resume
        self.fsync = fsync
        #: Default shared work spool for ``backend="distributed"`` plans
        #: submitted without their own ``spool_dir`` — the daemon then
        #: dispatches them to whatever worker agents drain it.
        self.spool_dir = None if spool_dir is None else str(spool_dir)
        self.store = JobStore(self.ledger_dir, fsync=fsync)
        self.queue = TenantQueue(max_depth=max_queue_depth)
        self.metrics = MetricsAggregator()
        if cache_path is not None and Path(cache_path).exists():
            self.caches = TuningCacheSet.load(cache_path)
        else:
            self.caches = TuningCacheSet()
        from repro.api.session import TuningSession

        self.session = TuningSession(caches=self.caches)
        self._admission = threading.Lock()
        self._stop = threading.Event()
        self._started_at: float | None = None
        self._httpd: ThreadingHTTPServer | None = None
        self._http_thread: threading.Thread | None = None
        self._dispatcher: threading.Thread | None = None
        #: Open handler connections -> the thread serving each.  The
        #: server's handler threads are daemon threads, which it does not
        #: track, so ``stop`` ends kept-alive connections from this map.
        self._connections: dict = {}
        self._connections_lock = threading.Lock()
        self._stopped = False

    # -- lifecycle ------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._requested_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Recover the ledger (``--resume auto``), bind, begin serving."""
        if self.resume == "auto":
            # No admission: a manifest-recorded job is never dropped, even
            # past its tenant's slice.
            for job in self.store.recover():
                self.store.mark(job, "queued")
                self.queue.push(job)
        self._started_at = time.monotonic()
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), handler
        )
        self._httpd.daemon_threads = True
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": _HTTP_POLL_SECONDS},
            name="repro-serve-http",
            daemon=True,
        )
        self._http_thread.start()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch",
            daemon=True,
        )
        self._dispatcher.start()

    def request_stop(self) -> None:
        """Ask the daemon to drain and exit; safe from signal handlers."""
        self._stop.set()

    def stop(self) -> None:
        """Drain the in-flight job, stop serving, release every resource.

        Idempotent.  Queued-but-never-started jobs stay recorded as
        ``queued`` in the manifest — the next ``--resume auto`` start
        re-enqueues them.
        """
        if self._stopped:
            return
        self._stopped = True
        self._stop.set()
        self.queue.close()
        if self._dispatcher is not None:
            self._dispatcher.join()
        if self._httpd is not None:
            self._httpd.shutdown()
            # A kept-alive connection outlives the accept loop; shutting
            # its socket down makes the handler read EOF and exit.
            with self._connections_lock:
                connections = list(self._connections.items())
            for connection, _ in connections:
                try:
                    connection.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
            for _, thread in connections:
                thread.join(timeout=5.0)
            self._httpd.server_close()
        if self._http_thread is not None:
            self._http_thread.join(timeout=5.0)
        if self.cache_path is not None:
            self.caches.save(self.cache_path)

    def serve(self, on_ready=None) -> None:
        """Run until SIGTERM/SIGINT (or ``POST /v1/shutdown``), then drain.

        The blocking CLI entry point.  Signal handlers only set a flag —
        the drain/teardown sequence runs here on the main thread, never
        inside a handler frame.  ``on_ready(daemon)`` fires once the
        socket is bound (the CLI prints the resolved URL there).
        """
        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(
                    signum, lambda *_: self.request_stop()
                )
            except ValueError:  # not the main thread (embedded use)
                pass
        self.start()
        if on_ready is not None:
            on_ready(self)
        try:
            while not self._stop.wait(timeout=_POLL_SECONDS):
                pass
        finally:
            self.stop()
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    # -- dispatch -------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            job = self.queue.pop(timeout=_POLL_SECONDS)
            if job is None:
                continue
            if self._stop.is_set():
                # Popped in the race with shutdown: leave it for the next
                # start — its manifest state is still "queued".
                break
            self._run_job(job)

    def _run_job(self, job) -> None:
        from repro.service import CampaignExecutionError

        self.store.mark(job, "running")
        # Followers get each block's lines from the recorder once they are
        # synced: the bytes on disk, never a line the ledger lacks.
        recorder = JsonlRecorder(
            job.ledger_path, fsync=self.fsync,
            on_commit=lambda lines: self.store.append_event(job, lines),
        )
        bus = EventBus(recorder, self.metrics)
        state, error = "finished", ""
        try:
            try:
                self.session.run(job.plan, bus=bus, resume=job.resume)
            finally:
                # Before the terminal mark: a terminal job is served from
                # its ledger, so the file must be complete by then.
                recorder.close()
        except CampaignExecutionError as failure:
            state, error = "failed", str(failure)
        except Exception as failure:  # noqa: BLE001 — job isolation: the
            # daemon outlives any single plan's failure.
            state, error = "failed", f"{type(failure).__name__}: {failure}"
        self.store.mark(job, state, error=error)

    # -- submissions ----------------------------------------------------

    def submit(self, plan_data: dict, tenant: str = "default", priority: int = 0):
        """Validate, record and enqueue one plan; return its :class:`Job`.

        Raises :class:`~repro.api.plans.PlanError` (bad plan),
        :class:`~repro.daemon.queue.QueueFull` (tenant over its slice) or
        :class:`~repro.daemon.queue.QueueDraining` (shutting down).
        """
        if (
            self.spool_dir is not None
            and isinstance(plan_data, dict)
            and plan_data.get("backend") == "distributed"
            and plan_data.get("spool_dir") is None
        ):
            # Distributed jobs without a spool of their own execute on
            # the daemon's standing fleet.  The plan validates with it,
            # and the manifest records it, so a restarted daemon resumes
            # the job on that fleet too.
            plan_data = {**plan_data, "spool_dir": self.spool_dir}
        plan = plan_from_dict(plan_data)
        with self._admission:
            if self.queue.draining or self._stop.is_set():
                raise QueueDraining()
            depth = self.queue.depth(tenant)
            if depth >= self.queue.max_depth:
                raise QueueFull(tenant, depth)
            job = self.store.submit(plan, plan_data, tenant, priority)
            self.queue.push(job)
        return job

    # -- observability --------------------------------------------------

    def metrics_snapshot(self) -> dict:
        counts = self.metrics.counts
        return {
            "jobs": self.store.counts_by_state(),
            "queue_depths": self.queue.depths(),
            "tenants_submitted": dict(self.store.submitted_per_tenant),
            "campaigns_finished": counts.get("CampaignFinished", 0),
            "campaigns_failed": counts.get("CampaignFailed", 0),
            "steps": self.metrics.steps,
            "reconfigurations": self.metrics.reconfigurations,
            "events": self.metrics.n_events,
            "cache_stats": self.caches.stats(),
            "uptime_seconds": (
                time.monotonic() - self._started_at
                if self._started_at is not None else 0.0
            ),
        }


# ----------------------------------------------------------------------
# the HTTP surface
# ----------------------------------------------------------------------

def _make_handler(daemon: TuningDaemon):
    """A request-handler class bound to one daemon instance."""

    class Handler(BaseHTTPRequestHandler):
        # HTTP/1.1 buys keep-alive and, crucially, chunked transfer
        # encoding for the live event stream.
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve"
        # A response is a header write and a body write; with Nagle on,
        # the body waits for the client's delayed ACK of the headers.
        disable_nagle_algorithm = True

        def log_message(self, fmt, *args):  # noqa: A003 — quiet by design
            pass

        def setup(self) -> None:
            super().setup()
            with daemon._connections_lock:
                daemon._connections[self.connection] = threading.current_thread()

        def finish(self) -> None:
            with daemon._connections_lock:
                daemon._connections.pop(self.connection, None)
            super().finish()

        # -- plumbing ---------------------------------------------------

        def _json(self, status: int, payload: dict, headers=()) -> None:
            body = (json.dumps(payload, sort_keys=True) + "\n").encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            for name, value in headers:
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)

        def _text(self, status: int, body: str, content_type: str) -> None:
            raw = body.encode()
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(raw)))
            self.end_headers()
            self.wfile.write(raw)

        def _error(self, status: int, message: str) -> None:
            self._json(status, {"error": message})

        def _read_body(self) -> bytes | None:
            """The request body, or ``None`` after a 400 for a
            ``Content-Length`` that is not a non-negative integer: where
            the body ends is then unknown, so the connection closes
            without reading it."""
            raw = self.headers.get("Content-Length") or "0"
            length = int(raw) if raw.strip().isdigit() else -1
            if length < 0:
                self._json(
                    400, {"error": f"malformed Content-Length: {raw!r}"},
                    headers=(("Connection", "close"),),
                )
                return None
            return self.rfile.read(length) if length else b""

        # -- routes -----------------------------------------------------

        def do_GET(self) -> None:  # noqa: N802 — http.server API
            url = urlsplit(self.path)
            query = parse_qs(url.query)
            parts = [part for part in url.path.split("/") if part]
            if url.path == "/healthz":
                self._json(200, {
                    "status": "draining" if daemon.queue.draining else "ok",
                    "jobs": daemon.store.counts_by_state(),
                })
            elif url.path == "/metrics":
                self._text(
                    200, render_metrics(daemon.metrics_snapshot()),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif parts[:2] == ["v1", "jobs"] and len(parts) == 2:
                self._list_jobs(query)
            elif parts[:2] == ["v1", "jobs"] and len(parts) == 3:
                self._job_status(parts[2])
            elif (
                parts[:2] == ["v1", "jobs"]
                and len(parts) == 4
                and parts[3] == "events"
            ):
                self._job_events(parts[2], query)
            else:
                self._error(404, f"no such resource: {url.path}")

        def do_POST(self) -> None:  # noqa: N802 — http.server API
            url = urlsplit(self.path)
            # Read first, whatever the answer: an unread body would be
            # parsed as the connection's next request.
            body = self._read_body()
            if body is None:
                return
            if url.path == "/v1/plans":
                self._submit_plan(url, body)
            elif url.path == "/v1/shutdown":
                daemon.request_stop()
                self._json(202, {"status": "draining"})
            else:
                self._error(404, f"no such resource: {url.path}")

        # -- route bodies -----------------------------------------------

        def _submit_plan(self, url, body: bytes) -> None:
            query = parse_qs(url.query)
            tenant = query.get("tenant", ["default"])[0]
            try:
                priority = int(query.get("priority", ["0"])[0])
            except ValueError:
                self._error(400, "priority must be an integer")
                return
            content_type = (self.headers.get("Content-Type") or "").lower()
            syntax = "TOML" if "toml" in content_type else "JSON"
            try:
                data = decode_text(body, syntax, PlanError, "the plan body")
                job = daemon.submit(data, tenant=tenant, priority=priority)
            except PlanError as error:
                self._error(400, str(error))
            except QueueFull as error:
                self._error(429, str(error))
            except QueueDraining as error:
                self._error(503, str(error))
            else:
                self._json(
                    201, job.to_dict(),
                    headers=(("Location", f"/v1/jobs/{job.id}"),),
                )

        def _list_jobs(self, query) -> None:
            tenant = query.get("tenant", [None])[0]
            state = query.get("state", [None])[0]
            if state is not None and state not in JOB_STATES:
                self._error(
                    400, f"state must be one of {list(JOB_STATES)}"
                )
                return
            jobs = [
                job.to_dict()
                for job in daemon.store.jobs()
                if (tenant is None or job.tenant == tenant)
                and (state is None or job.state == state)
            ]
            self._json(200, {"jobs": jobs})

        def _job_status(self, job_id: str) -> None:
            job = daemon.store.get(job_id)
            if job is None:
                self._error(404, f"no such job: {job_id}")
            else:
                self._json(200, job.to_dict())

        def _job_events(self, job_id: str, query) -> None:
            job = daemon.store.get(job_id)
            if job is None:
                self._error(404, f"no such job: {job_id}")
                return
            follow = query.get("follow", ["0"])[0] not in ("0", "", "false")
            if not follow:
                body = "".join(
                    line + "\n" for line in daemon.store.event_lines(job)
                )
                self._text(200, body, "application/x-ndjson")
                return
            # Live stream: chunked NDJSON until the job goes terminal.
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            sent = 0
            try:
                while True:
                    with job.condition:
                        while not job.terminal and job.n_events <= sent:
                            job.condition.wait(timeout=_POLL_SECONDS)
                            if daemon._stop.is_set() and not job.terminal:
                                break
                        terminal = job.terminal
                        stopping = daemon._stop.is_set()
                    # Read after ``terminal``: a job seen terminal is read
                    # from its ledger, which holds every line by then.
                    fresh = daemon.store.event_lines(job, sent)
                    if fresh:
                        # One chunk per batch.  An injected
                        # ConnectionResetError lands in the handler below
                        # exactly like a real mid-stream hang-up: the
                        # follower drops, the job survives.
                        _fire("daemon.server.stream.drop")
                        payload = "".join(line + "\n" for line in fresh).encode()
                        self.wfile.write(
                            f"{len(payload):X}\r\n".encode() + payload + b"\r\n"
                        )
                    sent += len(fresh)
                    if terminal or (stopping and sent >= job.n_events):
                        break
                self.wfile.write(b"0\r\n\r\n")
            except (BrokenPipeError, ConnectionResetError):
                # The follower hung up; the job keeps running.  The body
                # ended mid-chunk, so the connection carries nothing more.
                self.close_connection = True

    return Handler
