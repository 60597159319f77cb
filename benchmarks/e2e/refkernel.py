"""The benchmark's time base: fixed kernels of the same kind of work as the workloads.

This host's speed drifts by 10-40 % over minutes, so CPU-bound workloads
are timed in *reference-normalised* seconds: every wall duration inside
a chunk is multiplied by ``R0 / mean(kernel_before, kernel_after)``,
where the kernel below is sampled at the chunk's two boundaries.  The
kernel mixes BLAS matrix-vector products, element-wise numpy and a
pure-Python loop in roughly the proportions of an SVM refit, because
that is what the tuning workloads spend their time in.  A shorter,
interpreter-only kernel tracked the workloads worse than no
normalisation at all: do not shrink it.

`daemon_ds2` does not spend its time in arithmetic but in hand-offs
between threads, socket writes and fsynced appends, which that kernel
tracks poorly (see README.md).  Its timings are scaled by `RelayKernel`,
which does that kind of work instead.

Imports nothing from ``repro``.
"""

import os
import socket
import threading
import time
from pathlib import Path

import numpy as np

#: Nominal time of either kernel in seconds.  A constant of the benchmark,
#: never re-measured: it only fixes the unit of reference-normalised seconds.
R0 = 0.060

_ROWS, _COLS, _ROUNDS, _LOOP = 1500, 130, 400, 400_000


class ReferenceKernel:
    """The kernel on fixed data; ``sample()`` runs it once and returns the
    seconds it took on ``clock`` (the clock of the timings it will scale)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)     # other data would be another kernel: R0 is tied to it
        self._x = rng.standard_normal((_ROWS, _COLS))
        self._y = np.where(rng.standard_normal(_ROWS) > 0, 1.0, -1.0)
        self._theta = rng.standard_normal(_COLS) * 0.01

    def sample(self, clock=time.perf_counter) -> float:
        started = clock()
        x, y, theta = self._x, self._y, self._theta.copy()
        for _ in range(_ROUNDS):
            margin = x @ theta
            hinge = np.maximum(0.0, 1.0 - y * margin)
            gradient = x.T @ (-(y * (hinge > 0.0))) / _ROWS
            squash = 1.0 / (1.0 + np.exp(-margin))
            theta = theta - 0.01 * gradient + 1e-9 * squash[:_COLS]
        accumulator = 0
        for index in range(_LOOP):
            accumulator = (accumulator * 31 + index) & 0xFFFFFFF
        return clock() - started


_RELAY_ROUNDS, _RELAY_LOOP, _RELAY_LINE = 68, 4000, b"x" * 200 + b"\n"


def _spin(rounds: int) -> int:
    accumulator = 0
    for index in range(rounds):
        accumulator = (accumulator * 31 + index) & 0xFFFFFFF
    return accumulator


class RelayKernel:
    """A kernel shaped like a job of the daemon: two threads hand a token
    back and forth over a socket pair; between hand-offs each does a slice
    of interpreter work, and one of them appends a line to a file under
    ``directory`` and fsyncs it, as the ledger's recorder does per event."""

    def __init__(self, directory) -> None:
        self._path = Path(directory) / "relay-kernel.log"

    def _serve(self, connection) -> None:
        with connection, open(self._path, "wb") as ledger:
            while connection.recv(1) == b"g":
                _spin(_RELAY_LOOP)
                ledger.write(_RELAY_LINE)
                ledger.flush()
                os.fsync(ledger.fileno())
                connection.sendall(b"r")

    def sample(self, clock=time.perf_counter) -> float:
        started = clock()
        near, far = socket.socketpair()
        server = threading.Thread(target=self._serve, args=(far,), name="relay-kernel")
        server.start()
        try:
            for _ in range(_RELAY_ROUNDS):
                _spin(_RELAY_LOOP)
                near.sendall(b"g")
                if near.recv(1) != b"r":
                    raise RuntimeError("the relay kernel's serving thread died")
        finally:
            near.close()                # the serving thread reads b"" and leaves
            server.join()
        return clock() - started


def kernel_for(time_base: str, directory):
    """The kernel behind a workload's ``time_base``; ``directory`` is
    where a kernel that writes may write."""
    return {
        "reference": ReferenceKernel,
        "relay": lambda: RelayKernel(directory),
    }[time_base]()


def scale_factor(kernel_before: float, kernel_after: float) -> float:
    """What a wall duration between the two samples is multiplied by."""
    return R0 / ((kernel_before + kernel_after) / 2.0)
