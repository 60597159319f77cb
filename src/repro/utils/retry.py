"""Jittered exponential backoff.

The distributed spool's lease heartbeats and the daemon client's HTTP
calls both face the same problem: a transient failure (NFS hiccup,
daemon restarting, socket refused) that resolves itself within a few
hundred milliseconds, where failing on the first error turns a blip
into a dead worker.  Both now share this helper.  It sleeps and reads
the clock through this module's ``time``, so a test can replace both.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Iterator, TypeVar

__all__ = ["backoff_delays", "with_retries"]

T = TypeVar("T")

#: The longest backoff delay, and the uniform jitter every delay is scaled
#: by (``[1 - JITTER, 1 + JITTER]``).
MAX_DELAY = 2.0
JITTER = 0.25


def backoff_delays(
    *,
    base: float = 0.05,
    jitter: float = JITTER,
) -> Iterator[float]:
    """Yield an endless jittered exponential backoff schedule.

    Delay ``i`` is ``min(base * 2**i, MAX_DELAY)`` scaled by a
    uniform jitter in ``[1 - jitter, 1 + jitter]`` drawn from a fresh
    unseeded generator.
    """
    if base <= 0:
        raise ValueError(f"base must be positive, got {base}")
    if not 0.0 <= jitter < 1.0:
        raise ValueError(f"jitter must be in [0, 1), got {jitter}")
    generator = random.Random()
    delay = base
    while True:
        yield delay * generator.uniform(1.0 - jitter, 1.0 + jitter)
        delay = min(delay * 2.0, MAX_DELAY)


def with_retries(
    call: Callable[[], T],
    *,
    retryable: tuple[type[BaseException], ...],
    attempts: int = 3,
    base: float = 0.05,
    deadline_seconds: float | None = None,
) -> T:
    """Run ``call``, retrying ``retryable`` exceptions with backoff.

    Only exceptions in ``retryable`` are retried — anything else
    propagates immediately (a daemon's *refusal* is an answer; only
    *unreachability* is transient).  After ``attempts`` total tries the
    last exception propagates unchanged.

    ``deadline_seconds`` additionally caps *total* time: when the next
    backoff sleep would end past ``time.monotonic() + deadline_seconds`` (measured
    from entry), the current exception propagates instead of sleeping.
    Attempt counts alone cannot bound wall-clock — a call that itself
    takes seconds to fail (a hung NFS mount) would outlive any budget the
    attempt arithmetic promised — and callers like the lease-heartbeat
    loop must give up *before* their lease TTL elapses, not after.
    """
    if attempts < 1:
        raise ValueError(f"attempts must be >= 1, got {attempts}")
    if deadline_seconds is not None and deadline_seconds <= 0:
        raise ValueError(
            f"deadline_seconds must be positive, got {deadline_seconds}"
        )
    deadline = None if deadline_seconds is None else time.monotonic() + deadline_seconds
    delays = backoff_delays(base=base, jitter=JITTER)
    for attempt in range(1, attempts + 1):
        try:
            return call()
        except retryable:
            if attempt == attempts:
                raise
            delay = next(delays)
            if deadline is not None and time.monotonic() + delay > deadline:
                raise
            time.sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover
