"""Named component registries with typed parameter specs.

Engines, tuning methods and prediction models are built by name
(PDSP-Bench names its engines the same way): a component registers under
one name — one spelling, so one ``cell_key`` — together with the typed
:class:`ParamSpec` rows of what a caller can set, and every consumer
resolves it through :meth:`Registry.create`, which validates arguments
*before* construction and turns an unknown name into an error that lists
the alternatives.  A row exists only for a parameter some caller sets;
the same machinery type-checks the ``params`` table a plan file hands a
trace family (:data:`repro.scenarios.TRACES`), by the scalar rules of
:mod:`repro.utils.config` (a bool is no int, an int may stand for a float).

Built-in components are registered by :mod:`repro.api.components`, which
``repro.api`` imports eagerly — ``from repro.api import ENGINES`` always
sees a populated registry.  Third parties extend the system the same way::

    from repro.api import ENGINES, ParamSpec

    ENGINES.register("myengine", params=(ParamSpec("seed", int, None),))(MyEngineCluster)
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.utils.config import check_float, fits

#: Sentinel for "parameter has no default" (``None`` is a valid default).
REQUIRED = object()


class RegistryError(ValueError):
    """A component was invoked with invalid parameters."""


class UnknownComponentError(KeyError, ValueError):
    """A name did not resolve in a registry.

    Subclasses both :class:`KeyError` and :class:`ValueError` so legacy
    call sites (and their tests) that caught either exception from the
    old if/else ladders keep working, but the message is actionable: it
    names the registry, suggests the closest match, and lists every
    alternative.
    """

    def __init__(self, kind: str, name: str, known: tuple[str, ...]) -> None:
        suggestions = difflib.get_close_matches(name, known, n=1)
        hint = f"; did you mean {suggestions[0]!r}?" if suggestions else ""
        message = (
            f"unknown {kind} {name!r}{hint} "
            f"(available: {', '.join(known) if known else 'none registered'})"
        )
        super().__init__(message)
        self.kind = kind
        self.name = name
        self.known = known
        self.message = message

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.message


@dataclass(frozen=True)
class ParamSpec:
    """One typed, documented parameter of a registered component."""

    name: str
    annotation: type
    default: Any = REQUIRED
    help: str = ""

    @property
    def required(self) -> bool:
        return self.default is REQUIRED

    def validate(self, value, kind: str, component: str):
        """Coerce ``value`` to the spec; raise an actionable error if unfit."""
        if value is None and self.default is None:
            # None means "use the component's internal default" where the
            # declared default is None; elsewhere the component would be
            # handed a None it never expects.
            return value
        if self.annotation is not Any and not fits(value, self.annotation):
            raise RegistryError(
                f"{kind} {component!r}: parameter {self.name!r} expects "
                f"{self.annotation.__name__}, got {type(value).__name__} ({value!r})"
            )
        if self.annotation is float:
            return check_float(value, RegistryError, self.name)
        return value


@dataclass(frozen=True)
class ComponentEntry:
    """A registered factory plus its metadata."""

    name: str
    factory: Callable
    params: tuple[ParamSpec, ...] = ()
    #: True for tuners whose factory pulls an execution history from its
    #: resources; such methods cannot run as service campaigns (plan
    #: validation consults this flag instead of hardcoding names).
    needs_history: bool = False
    #: Base family this component is a variant of ("" means it is its own
    #: family).  Engine variants declare the engine whose rate units,
    #: corpora and pretrained artifacts they share, so lookups never need
    #: a hand-maintained fallback map.
    family: str = ""
    #: Capability tags (e.g. "faults") consumed by plan validation — a
    #: chaos schedule checks the engine it targets actually supports the
    #: scheduled effects.
    traits: tuple[str, ...] = ()

    def param(self, name: str) -> ParamSpec | None:
        for spec in self.params:
            if spec.name == name:
                return spec
        return None


class Registry:
    """A name -> factory table with typed construction."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: dict[str, ComponentEntry] = {}

    # -- registration ---------------------------------------------------

    def register(
        self,
        name: str,
        *,
        params: tuple[ParamSpec, ...] = (),
        needs_history: bool = False,
        family: str = "",
        traits: tuple[str, ...] = (),
    ):
        """Decorator: register ``factory`` (a function or a class) under ``name``."""

        def decorate(factory: Callable) -> Callable:
            if name in self._entries:
                raise RegistryError(f"{self.kind} {name!r} is already registered")
            self._entries[name] = ComponentEntry(
                name=name,
                factory=factory,
                params=tuple(params),
                needs_history=needs_history,
                family=family,
                traits=tuple(traits),
            )
            return factory

        return decorate

    # -- resolution -----------------------------------------------------

    def names(self) -> tuple[str, ...]:
        """Registered component names, sorted."""
        return tuple(sorted(self._entries))

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._entries

    def entry(self, name: str) -> ComponentEntry:
        try:
            return self._entries[name.lower()]
        except KeyError:
            raise UnknownComponentError(self.kind, name, self.names()) from None

    def validate_kwargs(self, name: str, kwargs: dict) -> dict:
        """Type-check ``kwargs`` against the entry's specs (no construction)."""
        entry = self.entry(name)
        validated = {}
        for key, value in kwargs.items():
            spec = entry.param(key)
            if spec is None:
                accepted = ", ".join(s.name for s in entry.params) or "none"
                raise RegistryError(
                    f"{self.kind} {entry.name!r} does not accept parameter "
                    f"{key!r} (accepted: {accepted})"
                )
            validated[key] = spec.validate(value, self.kind, entry.name)
        for spec in entry.params:
            if spec.required and spec.name not in validated:
                raise RegistryError(
                    f"{self.kind} {entry.name!r} requires parameter {spec.name!r}"
                )
        return validated

    def create(self, name: str, /, *args, **kwargs):
        """Build the component: positional context + validated keywords.

        Positional ``args`` carry contextual objects the caller always
        supplies (the engine a tuner binds to, for example); ``kwargs``
        are the declarative surface validated against the entry's
        :class:`ParamSpec` list.
        """
        entry = self.entry(name)
        return entry.factory(*args, **self.validate_kwargs(name, kwargs))


#: The three component families of the paper's pipeline that are built
#: by name (query tokens are a fixed grammar:
#: :func:`repro.api.components.parse_query_token`).
ENGINES = Registry("engine")
TUNERS = Registry("tuner")
MODELS = Registry("prediction model")
