"""The one edge between the program and the tables handed to it.

Every experiment reaches this repository as a file or a request body: a
plan (:mod:`repro.api.plans`), a named rate trace
(:mod:`repro.scenarios.library`), a chaos schedule
(:mod:`repro.scenarios.chaos`) or a failpoint plan
(:mod:`repro.faults.plan`).  Each of them becomes a value here, in three
steps written once:

* **text** — :func:`decode_text` turns JSON or TOML text into plain
  values, keyed by syntax: :func:`read_config` picks it from a file's
  suffix, the daemon's ``POST /v1/plans`` from the body's content type;
* **tables** — :func:`decode_table` builds a dataclass from one table and
  :func:`decode_tables` a tuple of them from a list of tables: a
  non-mapping, a field the class does not have (the message lists the
  valid ones) and a missing required field are each an error naming
  where the table sits;
* **scalars** — :func:`fits`, :func:`check_int`, :func:`check_float` and
  :func:`check_name`: a bool is never a number, an int may stand for a
  float, and a name is a string.

Every function takes the caller's error class, so a bad file is that
module's ``PlanError``, ``ScenarioError`` or ``FaultError`` naming the
field — never a ``TypeError`` from deep inside.  What a field *means*
(a registry name, a positive rate, a known failpoint site) stays with
the class that owns it.  Stdlib only: :mod:`repro.faults`, whose root
imports nothing but the stdlib, decodes its plans here too.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, fields
from pathlib import Path

_SUFFIXES = {".json": "JSON", ".toml": "TOML"}


# ----------------------------------------------------------------------
# text
# ----------------------------------------------------------------------

def decode_text(text: "bytes | str", syntax: str, error, source: str):
    """``text`` in ``syntax`` (``"JSON"`` or ``"TOML"``) as plain values.

    Undecodable text (bad UTF-8 included) and a missing TOML parser are
    each an ``error`` naming ``source``, never a traceback.
    """
    if syntax == "TOML":
        try:
            import tomllib
        except ModuleNotFoundError:     # Python 3.10: the tomli backport
            try:
                import tomli as tomllib
            except ModuleNotFoundError:
                raise error(
                    f"reading {source} as TOML needs Python 3.11+ (tomllib) or "
                    "the 'tomli' package; on this interpreter write it as JSON"
                ) from None
        loads = tomllib.loads
    else:
        loads = json.loads
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return loads(text)
    # JSONDecodeError, TOMLDecodeError, bad UTF-8, nesting past the stack
    except (ValueError, RecursionError) as decode_error:
        raise error(f"{source} is not valid {syntax}: {decode_error}") from None


def read_config(path: "str | Path", error, what: str):
    """Decode the ``.json`` or ``.toml`` file a user handed us.  A missing
    file and an unknown suffix are an ``error`` naming the file, as is
    everything :func:`decode_text` refuses."""
    path = Path(path)
    if not path.exists():
        raise error(f"{what} file {path} does not exist")
    syntax = _SUFFIXES.get(path.suffix.lower())
    if syntax is None:
        raise error(
            f"unsupported {what} file suffix {path.suffix.lower()!r} for {path} "
            "(expected .json or .toml)"
        )
    return decode_text(path.read_bytes(), syntax, error, f"{what} file {path}")


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------

def decode_table(cls, data, error, what: str):
    """``cls(**data)`` for a dataclass ``cls`` and a table from outside
    the program, once the table's shape is right: ``data`` is a mapping,
    names only fields of ``cls`` and gives every field without a
    default.  The values are ``cls.__post_init__``'s to check."""
    names = [spec.name for spec in fields(cls)]
    if not isinstance(data, dict):
        raise error(
            f"{what} must be a table ({', '.join(names)}), "
            f"got {type(data).__name__}"
        )
    unknown = sorted(repr(key) for key in data if key not in names)
    if unknown:
        raise error(
            f"{what} does not understand field(s) {', '.join(unknown)} "
            f"(valid fields: {', '.join(sorted(names))})"
        )
    missing = [
        spec.name for spec in fields(cls)
        if spec.default is MISSING and spec.default_factory is MISSING
        and spec.name not in data
    ]
    if missing:
        raise error(f"{what} needs the field(s) {', '.join(map(repr, missing))}")
    return cls(**data)


def decode_tables(cls, value, error, what: str, noun: str) -> tuple:
    """A list of ``cls`` tables as a tuple of ``cls``, entries already
    built passing through.  Anything but a list (a string, a table, a
    null) is an ``error``; entry ``i`` decodes as ``{what}[i]``."""
    if not isinstance(value, (list, tuple)):
        raise error(f"{what} must be a list of {noun} tables, got {value!r}")
    return tuple(
        item if isinstance(item, cls) else decode_table(cls, item, error, f"{what}[{index}]")
        for index, item in enumerate(value)
    )


# ----------------------------------------------------------------------
# scalars
# ----------------------------------------------------------------------

def fits(value, kind: type) -> bool:
    """Whether a decoded ``value`` is a ``kind``: a bool is never an int
    or a float, and any real number (an int included) is a float."""
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, numbers.Real)
    return isinstance(value, kind)


def check_int(value, error, what: str, minimum: int | None = None) -> int:
    """``value`` when it is an integer (not a bool) of at least ``minimum``."""
    if not fits(value, int) or (minimum is not None and value < minimum):
        floor = "" if minimum is None else f" >= {minimum}"
        raise error(f"{what} must be an integer{floor}, got {value!r}")
    return value


def check_float(value, error, what: str) -> float:
    """``value`` as a float: any real number but a bool.  An int past the
    float range reads as an infinity, which every range check refuses."""
    if not fits(value, float):
        raise error(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def check_name(value, error, what: str, optional: bool = False):
    """``value`` when it is a string (or, if ``optional``, ``None``): a
    name or a path from a config file is never a number, list or null."""
    if isinstance(value, str) or (optional and value is None):
        return value
    raise error(f"{what} must be a string, got {value!r}")
