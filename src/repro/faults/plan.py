"""The frozen, seeded fault schedule: which failpoint fires, and when.

A :class:`FaultPlan` is to failure injection what
:class:`~repro.scenarios.TraceSpec` is to workloads and
:class:`~repro.scenarios.ChaosSpec` is to engine misbehaviour: a frozen
value object that validates eagerly with targeted errors and pins every
run-affecting choice to a seed — so a fault schedule that surfaced a bug
is replayable bit-for-bit, attached to a CI job, or handed to a
colleague as one small file.  A plan is only ever *loaded* (from a dict,
or a JSON/TOML file via :func:`load_fault_plan`); nothing writes one
back.

A plan is a list of :class:`FaultRule`\\ s.  Each rule names one
*injection site* from :data:`FAULT_SITES` — a ``fire()`` call compiled
into the production code path (spool claims, lease heartbeats, ledger
writes, worker execution, daemon sockets) — plus a *trigger* (which
visits of the site fire) and an *effect* (what happens when it does):

``delay``
    sleep ``seconds`` at the site — slow filesystems, claim races;
``error``
    raise the named exception class — transient faults the retry
    machinery must absorb (``OSError`` for spool paths, ``URLError``
    for the daemon client, ``ConnectionResetError`` for stream drops);
``crash``
    terminate the process immediately with ``exit_code`` — SIGKILL-like
    worker death at a precise code location;
``torn``
    honoured by the ledger writer: persist only a prefix of the line,
    then die — a torn final write, the exact artifact a power loss
    leaves behind.

Triggers count *hits*: the n-th time execution reaches the site (1-based,
per process).  Exactly one of ``hits`` (explicit ordinals), ``every``
(periodic) or ``probability`` (seeded Bernoulli per hit — the RNG
derives from the plan seed and the site name, so the same plan trips the
same hit numbers every run) must be given.

``max_triggers`` caps a rule's firings per *spool*, not per process:
``repro worker`` activates its plan over its spool's ``fault-claims``
directory, and each firing claims one of the rule's ``max_triggers``
slots there.  So a ``worker.execute.crash`` rule with ``max_triggers =
1`` crashes one worker once, not every respawned worker again, and a
kept ``--spool-dir`` spends the budget once across episodes.  A plane
activated without the directory counts firings per process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "FAULT_SITES",
    "FaultError",
    "FaultPlan",
    "FaultRule",
    "load_fault_plan",
]


class FaultError(ValueError):
    """A fault plan or failpoint usage is invalid; the message says why."""


#: Every compiled-in injection site, with what firing there simulates.
#: ``fire()``/``trip()`` on a name outside this registry is a
#: :class:`FaultError` — a typo'd site would otherwise never fire.
FAULT_SITES: dict[str, str] = {
    "spool.claim.race-delay":
        "pause between preparing a claim and linking it into place — "
        "widens the claim race window so steals and double-claim "
        "defences actually get exercised",
    "spool.heartbeat.stall":
        "fail (OSError) or delay a lease heartbeat refresh — drives the "
        "worker's retry/deadline path and, held long enough, a reclaim",
    "ledger.write.torn-tail":
        "die mid-line while appending an event: the ledger keeps a "
        "truncated final line, exactly like a crash during write()",
    "ledger.fsync.crash-before":
        "die after a ledger line reaches the page cache but before "
        "fsync returns — the line a power loss would eat",
    "worker.execute.crash":
        "kill the worker process right after it claims a cell, before "
        "any event is recorded",
    "coordinator.poll.delay":
        "slow the coordinator's completion-polling loop (a laggy "
        "shared filesystem on the coordinator's host)",
    "daemon.client.conn-drop":
        "drop the client's connection before the request leaves "
        "(URLError — the retryable kind)",
    "daemon.server.stream.drop":
        "sever a follow stream mid-flight; the follower sees a "
        "truncated chunked body",
}

_EFFECTS = ("delay", "error", "crash", "torn")
_ERRORS = ("OSError", "URLError", "ConnectionResetError", "TimeoutError")


def _check_int(value, what: str, *, minimum: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise FaultError(
            f"fault rule: {what} must be an integer >= {minimum}, got {value!r}"
        )


@dataclass(frozen=True)
class FaultRule:
    """One site, one trigger, one effect."""

    site: str
    effect: str = "error"
    #: Explicit 1-based hit ordinals at which the rule fires.
    hits: tuple = ()
    #: Fire on every ``every``-th hit of the site.
    every: int | None = None
    #: Fire each hit with this probability, drawn from a per-site RNG
    #: seeded by the plan — deterministic hit numbers for a given plan.
    probability: float | None = None
    #: Stop after this many firings (unbounded when ``None``).
    max_triggers: int | None = None
    #: ``delay`` effect: how long to sleep.
    seconds: float = 0.05
    #: ``error`` effect: which exception class to raise.
    error: str = "OSError"
    #: ``crash``/``torn`` effects: the process exit status.
    exit_code: int = 137

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise FaultError(
                f"unknown failpoint site {self.site!r} (known: "
                f"{', '.join(sorted(FAULT_SITES))})"
            )
        if self.effect not in _EFFECTS:
            raise FaultError(
                f"fault rule at {self.site}: effect must be one of "
                f"{', '.join(_EFFECTS)}, got {self.effect!r}"
            )
        hits = self.hits
        if isinstance(hits, list):
            hits = tuple(hits)
            object.__setattr__(self, "hits", hits)
        if not isinstance(hits, tuple):
            raise FaultError(
                f"fault rule at {self.site}: hits must be a list of 1-based "
                f"hit ordinals, got {self.hits!r}"
            )
        for hit in hits:
            _check_int(hit, "every hits entry", minimum=1)
        triggers = sum(
            1 for given in (hits or None, self.every, self.probability)
            if given is not None
        )
        if triggers != 1:
            raise FaultError(
                f"fault rule at {self.site}: exactly one trigger of hits, "
                f"every, probability must be set (got {triggers})"
            )
        if self.every is not None:
            _check_int(self.every, "every", minimum=1)
        if self.probability is not None:
            probability = self.probability
            if isinstance(probability, int) and not isinstance(probability, bool):
                probability = float(probability)
                object.__setattr__(self, "probability", probability)
            if not isinstance(probability, float) or not 0.0 < probability <= 1.0:
                raise FaultError(
                    f"fault rule at {self.site}: probability must be in "
                    f"(0, 1], got {self.probability!r}"
                )
        if self.max_triggers is not None:
            _check_int(self.max_triggers, "max_triggers", minimum=1)
        seconds = self.seconds
        if isinstance(seconds, int) and not isinstance(seconds, bool):
            seconds = float(seconds)
            object.__setattr__(self, "seconds", seconds)
        if not isinstance(seconds, float) or seconds < 0:
            raise FaultError(
                f"fault rule at {self.site}: seconds must be a non-negative "
                f"number, got {self.seconds!r}"
            )
        if self.error not in _ERRORS:
            raise FaultError(
                f"fault rule at {self.site}: error must be one of "
                f"{', '.join(_ERRORS)}, got {self.error!r}"
            )
        _check_int(self.exit_code, "exit_code", minimum=1)
        if self.exit_code > 255:
            raise FaultError(
                f"fault rule at {self.site}: exit_code must fit a process "
                f"status (1..255), got {self.exit_code}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "FaultRule":
        if not isinstance(data, dict):
            raise FaultError(
                f"a fault rule must be a mapping, got {type(data).__name__}"
            )
        known = {spec.name for spec in cls.__dataclass_fields__.values()}
        unknown = sorted(set(data) - known)
        if unknown:
            raise FaultError(
                f"fault rule does not understand field(s) "
                f"{', '.join(map(repr, unknown))} (valid: "
                f"{', '.join(sorted(known))})"
            )
        if "site" not in data:
            raise FaultError("every fault rule needs a 'site'")
        return cls(**data)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, replayable schedule of failpoint firings."""

    rules: tuple = field(default=())
    seed: int = 0

    def __post_init__(self) -> None:
        rules = self.rules
        if isinstance(rules, (str, bytes)) or not isinstance(rules, (list, tuple)):
            raise FaultError(
                f"fault plan rules must be a list of rule tables, got {rules!r}"
            )
        entries = []
        for rule in rules:
            if isinstance(rule, FaultRule):
                entries.append(rule)
            else:
                entries.append(FaultRule.from_dict(rule))
        object.__setattr__(self, "rules", tuple(entries))
        _check_int(self.seed, "plan seed", minimum=0)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict):
            raise FaultError(
                f"a fault plan must be a mapping, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - {"seed", "rules"})
        if unknown:
            raise FaultError(
                f"fault plan does not understand field(s) "
                f"{', '.join(map(repr, unknown))} (valid: rules, seed)"
            )
        return cls(rules=data.get("rules", ()), seed=data.get("seed", 0))


def load_fault_plan(path: "str | Path") -> FaultPlan:
    """Load a :class:`FaultPlan` from a ``.json`` or ``.toml`` file."""
    # Imported here: this package's root imports the stdlib only, so that
    # repro.api.events and the spool can mark their sites without a cycle.
    from repro.api.plans import read_config

    return FaultPlan.from_dict(read_config(path, FaultError, "fault plan"))
