"""Benchmark fixtures: scale selection and shared expensive artifacts.

Benchmarks default to the ``smoke`` scale so the whole suite finishes in
minutes; set ``REPRO_SCALE=default`` (or ``paper``) for the longer
campaigns.  Campaign grids and pre-trained models are session
fixtures: the pytest-benchmark timings then measure the per-figure
computation, not artifact warm-up.

The ``bench_*.py`` assertions are the paper's shape claims; CI's
``paper-claims`` job runs them at smoke scale.  :data:`KNOWN_DEVIATIONS`
lists the claims that are known to miss their bound there, each with
the reading that missed it, so the job stays green on exactly those and
red on any other.
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import context
from repro.experiments.scale import resolve_scale

#: Smoke-scale claims known to fail: test id -> (measured reading vs. its
#: bound, first failing commit, strict).  Applied as ``xfail`` on an
#: ``AssertionError`` only.  The seeded claims are ``strict``: a fix
#: (XPASS) fails the job as a new failure would, so the row is deleted
#: by the PR that repairs the claim.  The wall-clock claim is not
#: strict — it may pass on a quiet host.  Nothing is tuned toward these
#: bounds; ROADMAP item 1 owns repairing them, and until then the
#: readings recorded here are what a re-measurement is compared with.
KNOWN_DEVIATIONS = {
    "benchmarks/bench_fig08.py::test_fig8a_final_parallelism": (
        "q5: StreamTune 24.0 > 1.4 x max(DS2 14.0, ContTune 14.0) = 19.6 "
        "(q3 13.0 <= 18.2 and q8 4.0 <= 11.2 hold)",
        "e383750 (PR 19; passes at b711015)",
        True,
    ),
    "benchmarks/bench_table3.py::test_table3_backpressure": (
        "q1: StreamTune 6 backpressure events > max(3, 8 // 2) = 4 "
        "(every other group <= 3; total 20 vs DS2 34)",
        "e383750 (PR 19; passes at b711015)",
        True,
    ),
    "benchmarks/bench_fig11.py::test_fig11b_speedup_table": (
        "20-DAG row: LSa 15.9 - 21.6 % faster than direct GED over three "
        "runs, bound > 50 % (40-DAG row 82.7 - 83.4 % holds)",
        "b711015 or earlier (wall-clock; 19.8 % there)",
        False,
    ),
}


def _scale():
    return resolve_scale(os.environ.get("REPRO_SCALE", "smoke"))


def pytest_collection_modifyitems(items):
    if _scale().name != "smoke":
        return                      # the readings above are smoke-scale ones
    for item in items:
        deviation = KNOWN_DEVIATIONS.get(item.nodeid)
        if deviation is not None:
            reading, since, strict = deviation
            item.add_marker(pytest.mark.xfail(
                reason=f"known deviation since {since}: {reading}",
                raises=AssertionError,
                strict=strict,
            ))


@pytest.fixture(scope="session")
def scale():
    return _scale()


@pytest.fixture(scope="session")
def flink_pretrained(scale):
    return context.pretrained_model("flink", scale)


@pytest.fixture(scope="session")
def timely_pretrained(scale):
    return context.pretrained_model("timely", scale)


@pytest.fixture(scope="session")
def flink_campaign_grid(scale, flink_pretrained):
    """Materialise every Flink campaign the figure benches read."""
    from repro.experiments.campaigns import campaign

    groups = ("q1", "q2", "q3", "q5", "q8", "linear", "2-way-join", "3-way-join")
    for group in groups:
        for method in ("DS2", "ContTune", "StreamTune"):
            campaign("flink", method, group, scale)
    for group in ("linear", "2-way-join", "3-way-join"):
        campaign("flink", "ZeroTune", group, scale)
    return scale


@pytest.fixture(scope="session")
def timely_campaign_grid(scale, timely_pretrained):
    from repro.experiments.campaigns import campaign

    for group in ("q3", "q5", "q8"):
        for method in ("DS2", "ContTune", "StreamTune"):
            campaign("timely", method, group, scale)
    return scale
