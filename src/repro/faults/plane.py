"""The process-wide failpoint plane: counting hits, applying effects.

Production code marks its injection sites with a single call::

    from repro.faults.plane import fire
    ...
    fire("spool.heartbeat.stall")

With no plan active — the overwhelmingly common case — ``fire`` is a
dict lookup and a ``None`` check; the sites cost nothing measurable on
hot paths (the ``failpoint_*`` perf benchmarks price exactly this).
With a plan active, every call counts one *hit* of the site and asks
each matching :class:`~repro.faults.plan.FaultRule` whether this hit
triggers; a triggered rule's effect is applied in place (sleep, raise,
or hard process exit).

A process activates a plan with :func:`activate`; ``repro worker
--fault-plan`` does so in every worker agent a supervisor spawns.

Hit counting is per process and thread-safe; the per-rule probability
RNG derives from the plan seed and the site name, so for a given plan
the *hit numbers* that trigger are the same every run, regardless of
which thread happens to reach the site.  A rule's ``max_triggers``
budget is per process too, unless the plane is activated over a claims
directory: then every process activated over that directory shares it
(see :meth:`FaultPlane._claim`).
"""

from __future__ import annotations

import hashlib
import os
import random
import threading
import time
from pathlib import Path

from repro.faults.plan import FAULT_SITES, FaultError, FaultPlan, FaultRule

__all__ = [
    "FaultPlane",
    "activate",
    "active_plane",
    "deactivate",
    "fire",
    "hard_exit",
    "trip",
]

def _derive_seed(seed: int, site: str) -> int:
    digest = hashlib.sha1(f"{seed}:{site}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def hard_exit(code: int) -> None:  # pragma: no cover — exits the process
    """Terminate immediately, skipping atexit/finally — a crash, not an
    exit.  A module-level indirection so tests can intercept it."""
    os._exit(code)


class FaultPlane:
    """One activated :class:`FaultPlan`: per-site counters and RNGs."""

    def __init__(self, plan: FaultPlan, claims_dir: "str | Path | None") -> None:
        self.plan = plan
        self.claims_dir = None if claims_dir is None else Path(claims_dir)
        if self.claims_dir is not None:
            self.claims_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._hits: dict[str, int] = {}
        self._fired: dict[int, int] = {}
        self._rngs: dict[int, random.Random] = {}

    def trip(self, site: str) -> "FaultRule | None":
        """Count one hit of ``site``; the rule that triggered, if any.

        At most one rule fires per hit (the first matching one in plan
        order) — a schedule wanting two effects at one hit writes one
        rule per hit ordinal instead.
        """
        if site not in FAULT_SITES:
            raise FaultError(
                f"unknown failpoint site {site!r} (known: "
                f"{', '.join(sorted(FAULT_SITES))})"
            )
        with self._lock:
            hit = self._hits.get(site, 0) + 1
            self._hits[site] = hit
            for index, rule in enumerate(self.plan.rules):
                if rule.site != site:
                    continue
                fired = self._fired.get(index, 0)
                if rule.max_triggers is not None and fired >= rule.max_triggers:
                    continue
                if self._matches(rule, index, hit) and self._claim(rule, index):
                    self._fired[index] = fired + 1
                    return rule
        return None

    def _claim(self, rule: FaultRule, index: int) -> bool:
        """May ``rule`` (plan position ``index``) fire once more?

        Over a claims directory, a ``max_triggers`` rule's budget is
        shared by every process activated over it: each firing takes one
        of the ``rule-<index>.<n>`` files, ``n < max_triggers``, by an
        exclusive create, and with every one taken the rule does not
        fire.  Other rules, and a plane without the directory, do no I/O.
        """
        if rule.max_triggers is None or self.claims_dir is None:
            return True
        for n in range(rule.max_triggers):
            try:   # O_CREAT | O_EXCL: one process wins each slot
                (self.claims_dir / f"rule-{index}.{n}").touch(exist_ok=False)
                return True
            except FileExistsError:
                continue
        return False

    def _matches(self, rule: FaultRule, index: int, hit: int) -> bool:
        if rule.hits:
            return hit in rule.hits
        if rule.every is not None:
            return hit % rule.every == 0
        rng = self._rngs.get(index)
        if rng is None:
            rng = self._rngs[index] = random.Random(
                _derive_seed(self.plan.seed, rule.site)
            )
        return rng.random() < rule.probability


_plane: "FaultPlane | None" = None
_state_lock = threading.Lock()


def activate(
    plan: FaultPlan, claims_dir: "str | Path | None" = None
) -> FaultPlane:
    """Install ``plan`` as this process's fault plane (replacing any);
    ``claims_dir`` shares its ``max_triggers`` budgets across processes."""
    global _plane
    with _state_lock:
        _plane = FaultPlane(plan, claims_dir)
        return _plane


def deactivate() -> None:
    """Remove any active plane."""
    global _plane
    with _state_lock:
        _plane = None


def active_plane() -> "FaultPlane | None":
    """The current plane, if any."""
    return _plane


def trip(site: str) -> "FaultRule | None":
    """Count a hit of ``site``; the triggered rule (for cooperative
    effects like ``torn``) or ``None``.  Fast no-op without a plane."""
    plane = active_plane()
    if plane is None:
        return None
    return plane.trip(site)


def fire(site: str) -> None:
    """The standard injection-site call: trip, then apply the effect."""
    rule = trip(site)
    if rule is None:
        return
    if rule.effect == "delay":
        if rule.seconds > 0:
            time.sleep(rule.seconds)
        return
    if rule.effect == "error":
        raise _make_error(rule)
    # crash — and torn at a site that does not implement cooperative
    # truncation degrades to the same thing: sudden process death.
    hard_exit(rule.exit_code)


def _make_error(rule: FaultRule) -> BaseException:
    message = f"injected fault at {rule.site}"
    if rule.error == "URLError":
        import urllib.error

        return urllib.error.URLError(message)
    classes = {
        "OSError": OSError,
        "ConnectionResetError": ConnectionResetError,
        "TimeoutError": TimeoutError,
    }
    return classes[rule.error](message)
