"""The trace library: named, seeded source-rate trace families.

The paper evaluates on one load shape — the §V-A periodic pattern.  Real
deployments also see flash crowds, and an adaptive tuner must be
stress-tested against them.  This module turns "a rate trace" from an
anonymous float list into a named, reproducible artifact:

* :data:`TRACES` — a :class:`~repro.api.registry.Registry` of trace
  *families* (the same machinery as ENGINES/TUNERS): each family is a
  deterministic generator ``(rng, **params) -> multipliers`` whose
  parameter surface is declared as typed :class:`ParamSpec` rows;
* :class:`TraceSpec` — a frozen ``{family, params, seed}`` value that
  round-trips dict/JSON/TOML and :meth:`~TraceSpec.materialize`\\ s into
  the concrete multiplier tuple, bit-identically for the same spec.

Every family emits multipliers in units of Wu (the Table II rate units),
finite and strictly positive, typically in the paper's 1..10 band.  All
randomness flows through one :func:`~repro.utils.rng.seeded_rng`
generator derived from the spec's seed, so a spec *is* its trace.

A spec table decodes through :mod:`repro.utils.config` (unknown and
missing fields, the int / float / name rules); its ``params`` are typed
by the family's :class:`ParamSpec` rows, whose scalar rules are the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.api.registry import ParamSpec, Registry, RegistryError, UnknownComponentError
from repro.utils.config import check_float, check_int, check_name, decode_table
from repro.utils.rng import seeded_rng

__all__ = [
    "BASIC_CYCLE",
    "TRACES",
    "ScenarioError",
    "TraceSpec",
    "periodic_multipliers",
]


class ScenarioError(ValueError):
    """A trace or chaos spec failed validation or materialization."""


#: §V-A basic cycle of source-rate multipliers (x Wu).
BASIC_CYCLE: tuple[int, ...] = (3, 7, 4, 2, 1, 10, 8, 5, 6, 9)

#: The registry of named trace families.
TRACES = Registry("trace family")

#: The most rate changes a family may generate.  The paper's longest
#: trace is 120 changes (§V-A); a trace spec arrives from a plan file or
#: a ``POST /v1/plans`` body and is materialised while it is decoded, so
#: an unbounded count would hold the decoder for minutes and allocate
#: gigabytes.  10 000 leaves two orders of magnitude above the paper.
MAX_TRACE_STEPS = 10_000


def periodic_multipliers(
    n_permutations: int = 6,
    cycle: tuple[int, ...] = BASIC_CYCLE,
    seed: int | None = None,
) -> list[int]:
    """The §V-A rate-multiplier sequence.

    Each permutation of the basic cycle is replicated once (20 entries);
    ``n_permutations`` permutations concatenate to ``20 * n`` multipliers
    (120 at the paper's scale).  The first permutation is the identity so
    small campaigns still start with the canonical cycle.
    """
    return TRACES.create(
        "periodic", seeded_rng(seed), n_permutations=n_permutations, cycle=cycle
    )


# ----------------------------------------------------------------------
# the families
# ----------------------------------------------------------------------

_N_STEPS = ParamSpec("n_steps", int, None, help="trace length in rate changes")


def _check_steps(n_steps: int, family: str, name: str = "n_steps") -> None:
    if not 1 <= n_steps <= MAX_TRACE_STEPS:
        raise ScenarioError(
            f"trace family {family!r}: {name} must be in 1..{MAX_TRACE_STEPS}, "
            f"got {n_steps}"
        )


@TRACES.register(
    "periodic",
    params=(
        ParamSpec("n_permutations", int, 6, help="permutations of the basic cycle"),
        ParamSpec("cycle", tuple, None, help="base cycle (default: the §V-A cycle)"),
        _N_STEPS,
    ),
)
def _periodic_family(rng, n_permutations=6, cycle=None, n_steps=None):
    """The paper's §V-A periodic pattern (permuted, replicated cycles)."""
    if n_permutations < 1:
        raise ScenarioError("trace family 'periodic': n_permutations must be >= 1")
    cycle = list(cycle) if cycle is not None else list(BASIC_CYCLE)
    where = "trace family 'periodic': cycle entry"
    if not all(math.isfinite(check_float(value, ScenarioError, where)) for value in cycle):
        raise ScenarioError(f"{where} must be finite, got {cycle!r}")
    if not cycle:
        raise ScenarioError("trace family 'periodic': cycle must not be empty")
    _check_steps(n_permutations * 2 * len(cycle), "periodic",
                 "n_permutations * 2 * len(cycle)")
    if n_steps is not None:
        _check_steps(n_steps, "periodic")
    sequence: list[int] = []
    for index in range(n_permutations):
        if index == 0:
            perm = cycle
        else:
            perm = [int(x) for x in rng.permutation(np.asarray(cycle))]
        sequence.extend(perm + perm)
    if n_steps is not None:
        sequence = sequence[:n_steps]
    return sequence


@TRACES.register(
    "bursty",
    params=(
        _N_STEPS,
        ParamSpec("base", float, 2.0, help="steady-state rate between bursts"),
        ParamSpec("spike", float, 9.0, help="flash-crowd rate during a burst"),
        ParamSpec("p_burst", float, 0.2, help="per-step burst start probability"),
        ParamSpec("burst_length", int, 2, help="steps a burst lasts"),
    ),
)
def _bursty(rng, n_steps=None, base=2.0, spike=9.0, p_burst=0.2, burst_length=2):
    """Flash crowds: a steady base rate with seeded multi-step spikes."""
    n_steps = 16 if n_steps is None else n_steps
    _check_steps(n_steps, "bursty")
    if not (math.isfinite(base) and base > 0):
        raise ScenarioError("trace family 'bursty': base must be a positive finite number")
    if not (math.isfinite(spike) and spike > base):
        raise ScenarioError("trace family 'bursty': spike must be finite and > base")
    if not 0.0 <= p_burst <= 1.0:
        raise ScenarioError("trace family 'bursty': p_burst must be in [0, 1]")
    if burst_length < 1:
        raise ScenarioError("trace family 'bursty': burst_length must be >= 1")
    values = []
    remaining = 0
    any_burst = False
    for _ in range(n_steps):
        if remaining == 0 and rng.random() < p_burst:
            remaining = burst_length
            any_burst = True
        if remaining > 0:
            values.append(spike)
            remaining -= 1
        else:
            values.append(base)
    if not any_burst and n_steps > 1:
        # A flash-crowd trace with no crowd tests nothing: guarantee one
        # burst mid-trace (deterministic — the draws above already ran).
        for offset in range(min(burst_length, n_steps - n_steps // 2)):
            values[n_steps // 2 + offset] = spike
    return values


# ----------------------------------------------------------------------
# the spec
# ----------------------------------------------------------------------

def _freeze(value):
    """Canonicalize a param value for hashable, order-stable storage."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, (int, float, str)):
        return value
    raise ScenarioError(
        f"trace params must be numbers, strings, booleans or lists of "
        f"those, got {type(value).__name__} ({value!r})"
    )


def _thaw(value):
    """The JSON-facing view of a canonical param value."""
    if isinstance(value, tuple):
        return [_thaw(item) for item in value]
    return value


@dataclass(frozen=True)
class TraceSpec:
    """A named, seeded rate trace: ``{family, params, seed}`` as a value.

    ``params`` accepts a dict at construction and is stored canonically
    (sorted key/value pairs, lists frozen to tuples), so two specs built
    from differently ordered dicts compare — and hash — equal.  The spec
    is the identity: :meth:`materialize` always returns the same
    multipliers for an equal spec.
    """

    family: str
    params: tuple = field(default=())
    seed: int | None = None

    def __post_init__(self) -> None:
        check_name(self.family, ScenarioError, "trace family")
        try:
            entry = TRACES.entry(self.family)
        except UnknownComponentError as error:
            raise ScenarioError(
                f"{error}; a literal trace is no family: give the raw "
                "multiplier list itself"
            ) from None
        object.__setattr__(self, "family", entry.name)
        params = self.params
        if isinstance(params, dict):
            items = params.items()
        elif isinstance(params, tuple):     # the canonical frozen form
            items = [tuple(pair) for pair in params]
        else:
            raise ScenarioError(
                f"trace params must be a mapping, got {type(params).__name__}"
            )
        frozen = {str(key): _freeze(value) for key, value in items}
        try:
            validated = TRACES.validate_kwargs(entry.name, frozen)
        except (RegistryError, UnknownComponentError) as error:
            raise ScenarioError(str(error)) from None
        object.__setattr__(
            self, "params", tuple(sorted((k, _freeze(v)) for k, v in validated.items()))
        )
        if self.seed is not None:
            # The generator takes no negative seed.
            check_int(self.seed, ScenarioError, "trace seed", minimum=0)

    def materialize(self) -> tuple[float, ...]:
        """The concrete multiplier tuple (bit-identical per equal spec)."""
        try:
            values = TRACES.create(self.family, seeded_rng(self.seed), **dict(self.params))
        except ScenarioError:
            raise
        except (RegistryError, UnknownComponentError) as error:
            raise ScenarioError(str(error)) from None
        rates = tuple(float(value) for value in values)
        if not rates:
            raise ScenarioError(
                f"trace family {self.family!r} produced an empty trace"
            )
        for rate in rates:
            if not (math.isfinite(rate) and rate > 0):
                raise ScenarioError(
                    f"trace family {self.family!r} produced a non-positive or "
                    f"non-finite rate ({rate!r}); fix the family's parameters"
                )
        return rates

    def label(self) -> str:
        """A short, unique, human-scannable identity for scenario labels."""
        import hashlib

        digest = hashlib.sha1(
            repr((self.family, self.params, self.seed)).encode("utf-8")
        ).hexdigest()[:6]
        seed_note = f"s{self.seed}." if self.seed is not None else ""
        return f"{self.family}#{seed_note}{digest}"

    def to_dict(self) -> dict:
        data: dict = {"family": self.family}
        if self.params:
            data["params"] = {key: _thaw(value) for key, value in self.params}
        if self.seed is not None:
            data["seed"] = self.seed
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TraceSpec":
        return decode_table(cls, data, ScenarioError, "trace spec")
