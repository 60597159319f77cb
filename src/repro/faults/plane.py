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

Activation is explicit (:func:`activate`) or inherited: a process whose
environment carries ``REPRO_FAULT_PLAN=<path.json|.toml>`` activates
that plan lazily on the first ``fire``/``trip`` — which is how a
supervisor injects faults into the ``repro worker`` subprocesses it
spawns without touching their command line.

Hit counting is per process and thread-safe; the per-rule probability
RNG derives from the plan seed and the site name, so for a given plan
the *hit numbers* that trigger are the same every run, regardless of
which thread happens to reach the site.
"""

from __future__ import annotations

import hashlib
import os
import random
import threading
import time

from repro.faults.plan import FAULT_SITES, FaultError, FaultPlan, FaultRule, load_fault_plan

__all__ = [
    "ENV_FAULT_PLAN",
    "FaultPlane",
    "activate",
    "active_plane",
    "deactivate",
    "fire",
    "hard_exit",
    "trip",
]

#: Environment variable naming a fault-plan file to activate lazily.
ENV_FAULT_PLAN = "REPRO_FAULT_PLAN"


def _derive_seed(seed: int, site: str) -> int:
    digest = hashlib.sha1(f"{seed}:{site}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def hard_exit(code: int) -> None:  # pragma: no cover — exits the process
    """Terminate immediately, skipping atexit/finally — a crash, not an
    exit.  A module-level indirection so tests can intercept it."""
    os._exit(code)


class FaultPlane:
    """One activated :class:`FaultPlan`: per-site counters and RNGs."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
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
                if self._matches(rule, index, hit):
                    self._fired[index] = fired + 1
                    return rule
        return None

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
_env_consulted = False
_state_lock = threading.Lock()


def activate(plan: FaultPlan) -> FaultPlane:
    """Install ``plan`` as this process's fault plane (replacing any)."""
    global _plane, _env_consulted
    with _state_lock:
        _plane = FaultPlane(plan)
        _env_consulted = True
        return _plane


def deactivate() -> None:
    """Remove any active plane; the environment is *not* re-consulted."""
    global _plane, _env_consulted
    with _state_lock:
        _plane = None
        _env_consulted = True


def active_plane() -> "FaultPlane | None":
    """The current plane, activating from the environment on first use."""
    global _plane, _env_consulted
    if _plane is not None or _env_consulted:
        return _plane
    with _state_lock:
        if _plane is None and not _env_consulted:
            _env_consulted = True
            path = os.environ.get(ENV_FAULT_PLAN)
            if path:
                _plane = FaultPlane(load_fault_plan(path))
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
