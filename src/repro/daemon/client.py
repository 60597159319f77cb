"""A stdlib HTTP client for the ``repro serve`` daemon.

:class:`DaemonClient` speaks the daemon's small JSON surface over
``http.client`` — it backs ``repro submit`` / ``repro jobs`` and is the
programmatic way to drive a daemon from tests and notebooks.  Errors the
daemon reports (bad plan, full queue, draining, unknown job) surface as
:class:`DaemonClientError` carrying the HTTP status and the daemon's own
message, so CLI handling can treat them like any other operator error.

The client keeps one idle HTTP/1.1 connection alive between requests, so
a job's submit, follow and status reads share one socket.  Concurrent
callers each open their own; a streamed body hands its connection back
when it is read to the end and closes it when it is abandoned.

Connection-level failures (daemon restarting, socket not yet bound, a
kept-alive socket the daemon has since closed) are retried on a fresh
connection with jittered exponential backoff before giving up; HTTP
errors are answers from a live daemon and are never retried.
"""

from __future__ import annotations

import http.client
import json
import threading
from pathlib import Path
from urllib.parse import urlencode, urlsplit

from repro.faults.plane import fire as _fire
from repro.utils.retry import with_retries

__all__ = ["DaemonClient", "DaemonClientError"]

#: The socket timeout of a request, and the attempts a request makes when
#: the daemon cannot be reached.
TIMEOUT_SECONDS = 30.0
ATTEMPTS = 3


class DaemonClientError(RuntimeError):
    """The daemon refused a request (or was unreachable)."""

    def __init__(self, message: str, status: int | None = None) -> None:
        self.status = status
        super().__init__(message)


class DaemonClient:
    """Talk to one daemon at ``url`` (e.g. ``http://127.0.0.1:8642``)."""

    def __init__(self, url: str) -> None:
        self._idle: http.client.HTTPConnection | None = None
        self._idle_lock = threading.Lock()
        self.url = url.rstrip("/")
        parts = urlsplit(self.url)
        self._address = (parts.hostname, parts.port or 80)
        self._prefix = parts.path

    # -- plumbing -------------------------------------------------------

    def close(self) -> None:
        """Close the kept-alive connection; a later request opens another."""
        self._release(None)

    def __del__(self) -> None:
        self.close()

    def _release(self, connection: http.client.HTTPConnection | None) -> None:
        """Keep ``connection`` for the next request (one is kept)."""
        with self._idle_lock:
            connection, self._idle = self._idle, connection
        if connection is not None:
            connection.close()

    def _request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        content_type: str = "application/json",
        stream: bool = False,
        timeout: float | None = None,
    ):
        headers = {} if body is None else {"Content-Type": content_type}

        def attempt():
            # Failpoint before the request leaves: an injected URLError
            # (an OSError) takes the same retry schedule a real
            # connection refusal would.
            _fire("daemon.client.conn-drop")
            with self._idle_lock:
                connection, self._idle = self._idle, None
            if connection is None:
                connection = http.client.HTTPConnection(*self._address)
            connection.timeout = TIMEOUT_SECONDS if timeout is None else timeout
            if connection.sock is not None:
                connection.sock.settimeout(connection.timeout)
            try:
                connection.request(
                    method, self._prefix + path, body=body, headers=headers
                )
                return _Stream(self, connection, connection.getresponse())
            except BaseException:
                connection.close()
                raise

        try:
            # Only a connection-level OSError is transient — the daemon
            # may be mid-restart, its socket not yet bound, or a kept-alive
            # socket closed since; the retry opens a fresh connection.
            response = with_retries(
                attempt,
                retryable=(OSError,),
                attempts=ATTEMPTS,
            )
        except OSError as error:
            raise DaemonClientError(f"cannot reach daemon at {self.url}: {error}") from None
        if response.status >= 400:
            # A status line is the daemon answering; surface it as-is
            # (POSTs are not safely repeatable anyway).
            with response:
                raw = response.read()
            try:
                detail = json.loads(raw.decode()).get("error", "")
            except Exception:  # noqa: BLE001 — error body is best-effort
                detail = ""
            raise DaemonClientError(
                detail or f"{response.status} {response.reason}",
                status=response.status,
            )
        if stream:
            return response
        with response:
            return json.loads(response.read().decode() or "null")

    # -- the API --------------------------------------------------------

    def submit_plan(
        self,
        plan: "dict | str | Path",
        tenant: str = "default",
        priority: int = 0,
    ) -> dict:
        """Submit a plan (dict, or a ``.json``/``.toml`` file path).

        File submissions ship the raw bytes with the matching content
        type — the daemon does the parsing/validation, so client and
        server can never disagree about what a plan means.
        """
        if isinstance(plan, (str, Path)):
            path = Path(plan)
            body = path.read_bytes()
            content_type = (
                "application/toml" if path.suffix.lower() == ".toml"
                else "application/json"
            )
        else:
            body = json.dumps(plan).encode()
            content_type = "application/json"
        query = urlencode({"tenant": tenant, "priority": priority})
        return self._request(
            "POST", f"/v1/plans?{query}", body=body, content_type=content_type
        )

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/v1/jobs/{job_id}")

    def jobs(self, tenant: str | None = None, state: str | None = None) -> list:
        query = urlencode({
            key: value
            for key, value in (("tenant", tenant), ("state", state))
            if value is not None
        })
        suffix = f"?{query}" if query else ""
        return self._request("GET", f"/v1/jobs{suffix}")["jobs"]

    def _text(self, path: str) -> str:
        with self._request("GET", path, stream=True) as response:
            return response.read().decode()

    def events(self, job_id: str) -> list[dict]:
        """The job's recorded events so far, parsed from its NDJSON."""
        return [json.loads(line) for line in self.event_lines(job_id)]

    def event_lines(self, job_id: str) -> list[str]:
        """The job's raw ledger lines — for bit-identity assertions."""
        text = self._text(f"/v1/jobs/{job_id}/events")
        return [line for line in text.splitlines() if line.strip()]

    def follow(self, job_id: str, timeout: float | None = None):
        """Yield event dicts live until the job reaches a terminal state.

        ``timeout`` bounds each read, not the whole job (default: no
        bound — jobs can legitimately run for a long time).  A stream
        the daemon breaks off raises :class:`DaemonClientError`.
        """
        response = self._request(
            "GET",
            f"/v1/jobs/{job_id}/events?follow=1",
            stream=True,
            timeout=timeout if timeout is not None else 86400.0,
        )
        with response:
            tail = b""
            try:
                # read1 returns at most one chunk, and raises on a body
                # that ends without the last one.
                for block in iter(response.read1, b""):
                    *lines, tail = (tail + block).split(b"\n")
                    yield from (json.loads(line) for line in lines if line.strip())
            except http.client.IncompleteRead:
                raise DaemonClientError(f"the event stream of {job_id} broke off") from None

    def shutdown(self) -> dict:
        """Ask the daemon to drain and exit (``POST /v1/shutdown``)."""
        return self._request("POST", "/v1/shutdown", body=b"")


class _Stream:
    """A response being read.  Leaving its ``with`` block hands the
    connection back to the client when the body was read to the end, and
    closes it otherwise (an error, or a reader that stopped early)."""

    def __init__(self, client: DaemonClient, connection, response) -> None:
        self._client = client
        self._connection = connection
        self._response = response

    def __getattr__(self, name: str):
        return getattr(self._response, name)     # read, readline, status...

    def __enter__(self) -> "_Stream":
        return self

    def __exit__(self, exc_type, *_) -> None:
        if exc_type is None and self._response.isclosed():
            self._client._release(self._connection)
        else:
            self._connection.close()
