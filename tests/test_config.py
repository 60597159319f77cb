"""The shared config decoder (:mod:`repro.utils.config`) and the edges
built on it: every table from outside the program either decodes or is
its module's own error, never a ``TypeError``, ``KeyError`` or
``AttributeError`` from deep inside."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import CampaignPlan, PlanError, SweepPlan, TuningPlan, plan_from_dict
from repro.api.events import EVENT_TYPES, CampaignStarted, Event, event_from_dict, read_event_log
from repro.baselines.api import TuningStep
from repro.faults import FaultError, FaultPlan, FaultRule
from repro.scenarios import TRACES, ChaosSpec, ScenarioError, TraceSpec
from repro.scenarios.chaos import OperatorLoss, TraceDropout
from repro.scenarios.library import MAX_TRACE_STEPS
from repro.utils.config import (
    check_float,
    check_int,
    decode_table,
    decode_tables,
    decode_text,
    fits,
)


@dataclass(frozen=True)
class _Point:
    x: int
    y: int = 0


class TestDecoder:
    def test_table_shape_errors_name_the_table(self):
        with pytest.raises(ValueError, match=r"point must be a table \(x, y\), got list"):
            decode_table(_Point, [1, 2], ValueError, "point")
        with pytest.raises(ValueError, match=r"'z'.*valid fields: x, y"):
            decode_table(_Point, {"x": 1, "z": 2}, ValueError, "point")
        with pytest.raises(ValueError, match=r"needs the field\(s\) 'x'"):
            decode_table(_Point, {"y": 2}, ValueError, "point")
        assert decode_table(_Point, {"x": 1}, ValueError, "point") == _Point(1)

    def test_list_of_tables(self):
        built = _Point(3)
        assert decode_tables(_Point, [{"x": 1}, built], ValueError, "ps", "point") == (
            _Point(1), built,
        )
        for value in ("x", {"x": 1}, None):
            with pytest.raises(ValueError, match="ps must be a list of point tables"):
                decode_tables(_Point, value, ValueError, "ps", "point")
        with pytest.raises(ValueError, match=r"ps\[1\] must be a table"):
            decode_tables(_Point, [{"x": 1}, 5], ValueError, "ps", "point")

    def test_scalar_rules(self):
        assert not fits(True, int) and not fits(False, float)
        assert fits(3, float) and not fits("3", float)
        assert check_float(3, ValueError, "r") == 3.0
        assert check_float(10**400, ValueError, "r") == float("inf")
        assert check_float(-(10**400), ValueError, "r") == float("-inf")
        with pytest.raises(ValueError, match="r must be an integer >= 1, got True"):
            check_int(True, ValueError, "r", minimum=1)

    def test_text(self):
        assert decode_text(b'{"a": 1}', "JSON", ValueError, "body") == {"a": 1}
        assert decode_text('a = 1', "TOML", ValueError, "body") == {"a": 1}
        with pytest.raises(ValueError, match="body is not valid JSON"):
            decode_text(b"\xff", "JSON", ValueError, "body")


# ----------------------------------------------------------------------
# the edges, fuzzed
# ----------------------------------------------------------------------

_CLASSES = (
    TuningPlan, CampaignPlan, SweepPlan, TraceSpec, ChaosSpec, OperatorLoss,
    TraceDropout, FaultPlan, FaultRule,
)
_TRACE_PARAMS = sorted({
    spec.name for name in TRACES.names() for spec in TRACES.entry(name).params
})
_NAMES = sorted(
    {spec.name for cls in _CLASSES for spec in fields(cls)} | set(_TRACE_PARAMS) | {"kind"}
)
_WORDS = (
    "q1", "q5", "2-way-join/3", "ds2", "oracle", "streamtune", "flink",
    "flink-faulty", "svm", "smoke", "thread", "sequential", "distributed",
    "tuning", "campaign", "sweep", "periodic", "bursty", "sink",
    "worker.execute.crash", "spool.claim.race-delay", "delay", "error",
    "crash", "torn", "OSError", "",
)
_names = st.sampled_from(_NAMES) | st.text(max_size=3)
# Counts reach past MAX_TRACE_STEPS: a trace family checks its length
# before it generates a step.
_scalars = (
    st.none() | st.booleans() | st.integers(-3, 40)
    | st.sampled_from((MAX_TRACE_STEPS, MAX_TRACE_STEPS + 1, 10**9, 10**30))
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(_WORDS) | st.text(max_size=4)
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_names, inner, max_size=4),
    max_leaves=10,
)
_tables = st.dictionaries(_names, _values, max_size=6)


def _near(required: dict, optional: tuple) -> st.SearchStrategy:
    """Tables that name mostly real fields, so the draws reach the value
    checks behind the shape checks."""
    return st.fixed_dictionaries(
        required, optional={name: _values for name in optional}
    )


_rules = st.lists(
    _near({"site": _values}, ("effect", "hits", "every", "probability",
                              "max_triggers", "seconds", "error", "exit_code")),
    max_size=3,
)
_chaos = _near({}, ("operator_loss", "trace_dropout")) | st.fixed_dictionaries({
    "operator_loss": st.lists(_near({"step": _values}, ("count", "operator")), max_size=2),
    "trace_dropout": st.lists(_near({"step": _values}, ("factor",)), max_size=2),
})
_traces = st.fixed_dictionaries(
    {"family": st.sampled_from(("periodic", "bursty")) | _values},
    optional={
        "params": st.dictionaries(st.sampled_from(_TRACE_PARAMS), _values, max_size=3),
        "seed": _values,
    },
)
_plan_fields = tuple(sorted(
    {spec.name for cls in (TuningPlan, CampaignPlan, SweepPlan) for spec in fields(cls)}
))
_plans = _near({}, _plan_fields + ("kind",)) | st.fixed_dictionaries(
    {"query": st.sampled_from(("q1", "q5")), "tuner": st.just("ds2")},
    optional={"rates": _values, "trace": _traces, "chaos": _chaos,
              "engine": _values, "seed": _values, "scale": _values},
) | st.fixed_dictionaries(
    {"queries": st.lists(st.sampled_from(("q1", "q5")) | _values, max_size=3),
     "tuner": st.just("ds2")},
    optional={"backend": _values, "workers": _values, "spool_dir": _values,
              "rates": _values, "chaos": _chaos, "kind": _values},
)

_EDGES = {
    # edge: (what it is fed, the one error it may raise)
    "plan": (_plans | _values, PlanError),
    "trace": (_traces | _values, ScenarioError),
    "chaos": (_chaos | _values, ScenarioError),
    "fault": (st.fixed_dictionaries({}, optional={"rules": _rules | _values,
                                                  "seed": _values}) | _values, FaultError),
    "daemon": (_plans | _values, PlanError),
}


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    """A daemon that admits jobs but never starts running them."""
    from repro.daemon.server import TuningDaemon

    return TuningDaemon(
        ledger_dir=tmp_path_factory.mktemp("ledger"), fsync=False,
        max_queue_depth=10**6,
    )


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(data=st.data(), edge=st.sampled_from(sorted(_EDGES)))
def test_every_edge_decodes_or_raises_its_own_error(daemon, data, edge):
    feed, own_error = _EDGES[edge]
    value = data.draw(feed, label=edge)
    call = {
        "plan": plan_from_dict,
        "trace": lambda table: TraceSpec.from_dict(table).materialize(),
        "chaos": ChaosSpec.from_dict,
        "fault": FaultPlan.from_dict,
        "daemon": daemon.submit,
    }[edge]
    try:
        call(value)
    except own_error:
        pass


# ----------------------------------------------------------------------
# the event-log edge: resume logs, spool ledgers, the daemon's manifest
# ----------------------------------------------------------------------

_EVENT_NAMES = sorted(
    {spec.name for cls in EVENT_TYPES.values() for spec in fields(cls)}
    | {spec.name for spec in fields(TuningStep)}
    | {"event", "result", "query_name", "method", "multipliers", "processes",
       "tuner_name", "converged", "steps"}
)
_event_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(_EVENT_NAMES) | st.text(max_size=3), inner, max_size=4
    ),
    max_leaves=10,
)


def _event_table(names) -> st.SearchStrategy:
    """Tables that hold every named field (one may be a wrong type), so
    the draws reach a result payload's rebuild, not only its key checks."""
    return st.fixed_dictionaries({name: _event_values for name in names})


_steps = st.lists(_event_table([spec.name for spec in fields(TuningStep)]), max_size=2)
_processes = st.lists(
    st.fixed_dictionaries({
        "query_name": _event_values, "tuner_name": _event_values,
        "converged": _event_values, "steps": _steps | _event_values,
    }),
    max_size=2,
)
_payloads = st.fixed_dictionaries({
    "query_name": _event_values, "method": _event_values,
    "multipliers": st.lists(_event_values, max_size=3) | _event_values,
    "processes": _processes | _event_values,
})
_event_fields = st.dictionaries(
    st.sampled_from(_EVENT_NAMES) | st.text(max_size=3), _event_values, max_size=5
)
_event_tables = st.builds(
    lambda table, kind, result: {**table, "event": kind, **result},
    _event_fields,
    st.sampled_from(sorted(EVENT_TYPES)) | _event_values,
    st.fixed_dictionaries({}, optional={"result": _payloads | _event_values}),
) | st.builds(
    lambda table, result: {**table, "event": "CampaignFinished", "result": result},
    _event_fields, _payloads,
) | _event_fields


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(table=_event_tables)
def test_an_event_table_decodes_or_raises_value_error(table):
    try:
        event = event_from_dict(table)
    except ValueError:
        return
    assert isinstance(event, Event)


_good_lines = st.builds(
    CampaignStarted, campaign=st.text(max_size=4), seq=st.integers(0, 99)
)
_lines = st.lists(
    _good_lines.map(lambda event: (event, json.dumps(event.to_dict()).encode()))
    | _event_tables.map(lambda table: (None, json.dumps(table).encode()))
    | st.binary(max_size=24).map(lambda raw: (None, raw.replace(b"\n", b"")))
    | st.sampled_from((b"[" * 200_000, b'{"event": ["x"]}')).map(lambda raw: (None, raw)),
    max_size=8,
)


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    return tmp_path_factory.mktemp("log") / "events.jsonl"


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lines=_lines)
def test_an_event_log_reads_whatever_its_lines_hold(log_path, lines):
    log_path.write_bytes(b"".join(raw + b"\n" for _, raw in lines))
    events, n_malformed = read_event_log(log_path)
    assert all(isinstance(event, Event) for event in events)
    assert len(events) + n_malformed == sum(1 for _, raw in lines if raw.strip())
    # Every well-formed line comes back, in order.
    remaining = iter(events)
    assert all(
        any(event == read for read in remaining)
        for event, _ in lines if event is not None
    )
