"""The harness's own arithmetic, checked without running a workload."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

import refkernel
import stats
import tracing
import workloads

HERE = Path(__file__).resolve().parent


# -- percentiles --------------------------------------------------------

def test_percentile_needs_ten_samples_beyond_it():
    assert stats.supports(100, 90)
    assert not stats.supports(99, 90)
    with pytest.raises(stats.UnsupportedPercentile):
        stats.percentile(range(99), 90)
    # Marked unclaimable, the same percentile is computed for the report.
    assert stats.percentile(range(99), 90, claim=False) == pytest.approx(88.2)
    assert stats.percentile(range(101), 90) == 90


def test_worse_by_follows_the_metric_direction():
    assert stats.worse_by(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert stats.worse_by(10.0, 11.0, "higher") == pytest.approx(-0.1)


def test_two_sets_disagree_whichever_of_them_is_the_better_one():
    end_to_end = [
        {"name": "throughput_per_s", "better": "higher", "bound": 0.25},
        {"name": "latency_ms_p50", "better": "lower", "bound": 0.25},
        {"name": "reconfigs_per_process", "better": "lower", "bound": 0.01},
    ]

    def runs(throughput, latency, reconfigs):
        return {"w": [
            {"throughput_per_s": throughput * scale, "latency_ms_p50": latency,
             "reconfigs_per_process": reconfigs}
            for scale in (0.99, 1.0, 1.01)
        ]}

    def disagreeing(first, second):
        rows = stats.compare_sets(first, second, end_to_end, exact=("reconfigs_per_process",))
        return [row["metric"] for row in rows if row["disagree"]]

    slow, fast = runs(10.0, 5.0, 1.5), runs(14.0, 5.0, 1.5)
    assert disagreeing(slow, slow) == []
    assert disagreeing(slow, runs(12.0, 6.0, 1.5)) == []          # inside the bound
    # The second set 40 % *better* is no more an agreement than 40 % worse.
    assert disagreeing(slow, fast) == ["throughput_per_s"]
    assert disagreeing(fast, slow) == ["throughput_per_s"]
    assert stats.compare_sets(slow, fast, end_to_end)[0]["worse_by"] == pytest.approx(-0.4)
    # A seeded, deterministic metric must repeat exactly, not within its bound.
    assert disagreeing(slow, runs(10.0, 5.0, 1.501)) == ["reconfigs_per_process"]


# -- normalisation ------------------------------------------------------

def test_reference_seconds_scale_each_chunk_by_its_own_kernel_samples():
    assert refkernel.scale_factor(0.03, 0.09) == pytest.approx(1.0)
    slow = stats.Chunk(start=0.0, end=2.0, kernel_before=0.12, kernel_after=0.12,
                       wall_start=10.0, wall_end=12.0)
    fast = stats.Chunk(start=3.0, end=4.0, kernel_before=0.06, kernel_after=0.06,
                       wall_start=13.0, wall_end=14.0)
    record = stats.PassRecord(
        chunks=[slow, fast],
        ops=[stats.Op("a", 0.5, 1.5), stats.Op("b", 3.0, 3.5)],
    )
    # The host ran at half speed during the first chunk only; the second
    # of kernel time between the chunks is in neither.
    assert record.wall_seconds() == pytest.approx(3.0)
    assert record.seconds() == pytest.approx(2.0 * 0.5 + 1.0)
    assert record.latencies() == pytest.approx([0.5, 0.5])
    assert record.kernel_samples() == [0.12, 0.12, 0.06]


def test_relay_kernel_writes_only_under_its_directory_and_leaves_no_thread(tmp_path):
    import threading

    before = threading.active_count()
    assert refkernel.RelayKernel(tmp_path).sample() > 0.0
    assert threading.active_count() == before
    assert [path.name for path in tmp_path.iterdir()] == ["relay-kernel.log"]


class _FakeClock:
    """Advances by one second per reading."""

    def __init__(self):
        self.ticks = 0

    def __call__(self):
        self.ticks += 1
        return float(self.ticks)


class _CountingKernel:
    def __init__(self):
        self.clocks = []

    def sample(self, clock):
        self.clocks.append(clock)
        return 0.06


def test_recorder_brackets_every_chunk_with_kernel_samples_on_its_clock():
    kernel, clock = _CountingKernel(), _FakeClock()
    recorder = workloads.Recorder(kernel, clock)
    recorder.boundary()
    recorder.op("x", recorder.now(), recorder.now(), output=1)
    recorder.boundary()
    recorder.op("y", recorder.now(), recorder.now(), output=2)
    record = recorder.finish()
    assert kernel.clocks == [clock] * 3 and len(record.chunks) == 2
    # Chunk and op times are readings of the workload's clock, not of wall time.
    assert [(c.start, c.end) for c in record.chunks] == [(1.0, 4.0), (5.0, 8.0)]
    assert record.latencies() == pytest.approx([1.0, 1.0])
    assert record.outputs() == [("x", 1), ("y", 2)]
    assert 0.0 <= record.wall_seconds() < 1.0


def test_failed_ops_are_raised_mismatched_or_missing():
    reference = stats.PassRecord(ops=[stats.Op(k, 0, 1, v) for k, v in (("a", 1), ("b", 2), ("c", 3))])
    record = stats.PassRecord(ops=[
        stats.Op("a", 0, 1, 1),
        stats.Op("b", 0, 1, 99),                 # differs from the reference
        stats.Op("d", 0, 1, None, ok=False),     # raised; and "c" is missing
    ])
    assert stats.failed_ops(reference, record) == {"b", "c", "d"}
    assert stats.failed_ops(reference, reference) == set()


# -- spans --------------------------------------------------------------

def _span(name, start, end, parent=None):
    return tracing.Span(
        name=name, start=start, end=end, parent=parent, intervals=[(start, end)]
    )


def test_self_time_subtracts_child_coverage_once_where_children_overlap():
    parent = _span("parent", 0.0, 10.0)
    children = [
        _span("child", 1.0, 4.0, parent),
        _span("child", 3.0, 6.0, parent),        # overlaps the first: 1..6 covered
        _span("child", 8.0, 12.0, parent),       # clipped to the parent's end
    ]
    own = tracing.self_seconds([parent, *children])
    assert own[id(parent)] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[id(children[0])] == pytest.approx(3.0)
    layers = tracing.reduce_spans([parent, *children])
    assert layers["child"]["calls"] == 3 and layers["child"]["childless"] == 3
    assert layers["parent"]["childless"] == 0


def test_a_suspended_generator_child_covers_nothing_of_its_parent():
    # The child lives from 1 to 9 but runs only 1..2 and 8..9; the parent
    # runs 0..3 and 7..10, and the consumer of both in between.
    parent = tracing.Span("outer", 0.0, 10.0, intervals=[(0.0, 3.0), (7.0, 10.0)])
    child = tracing.Span("inner", 1.0, 9.0, parent, intervals=[(1.0, 2.0), (8.0, 9.0)])
    own = tracing.self_seconds([parent, child])
    assert own[id(parent)] == pytest.approx(6.0 - 2.0)
    assert own[id(child)] == pytest.approx(2.0)
    # What no span covers of 0..10 is the consumer's 4 seconds.
    assert tracing.covered_seconds(parent.intervals, 0.0, 10.0) == pytest.approx(6.0)


class Victim:
    def work(self, value):
        if value < 0:
            raise ValueError("negative")
        return value * 2

    def stream(self, n):
        total = 0
        for index in range(n):
            total += yield index
        return total


    def count(self, n):
        yield from range(n)

    def relay(self, n):
        """A generator that re-yields another, as `TuningSession.stream`
        does with `TuningService.stream`."""
        for item in self.count(n):
            yield item


_TABLE = (
    (f"{__name__}:Victim", "work", "victim.work", {"value": lambda a, k, r: float(r)}),
    (f"{__name__}:Victim", "stream", "victim.stream", {}),
    (f"{__name__}:Victim", "count", "victim.count", {}),
    (f"{__name__}:Victim", "relay", "victim.relay", {}),
)


def test_wrappers_are_restored_after_an_exception():
    original = vars(Victim)["work"]
    tracer = tracing.Tracer()
    with pytest.raises(ValueError):
        with tracing.installed(tracer, _TABLE):
            assert vars(Victim)["work"] is not original
            assert Victim().work(3) == 6
            Victim().work(-1)
    assert vars(Victim)["work"] is original
    # The raising call still closed its span, and the stack is empty again.
    assert [span.name for span in tracer.spans] == ["victim.work", "victim.work"]
    assert tracer.spans[0].value == 6.0 and tracer._stack() == []


def test_a_generator_is_one_span_that_is_open_only_while_it_runs():
    tracer = tracing.Tracer()
    with tracing.installed(tracer, _TABLE):
        stream = Victim().stream(2)
        assert next(stream) == 0
        assert tracer._stack() == []             # suspended: the consumer runs
        assert Victim().work(1) == 2             # so this is no child of it
        assert stream.send(10) == 1
        with pytest.raises(StopIteration) as stop:
            stream.send(5)
    assert stop.value.value == 15                # the return value survives
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["victim.work"].parent is None
    assert by_name["victim.stream"].busy <= (
        by_name["victim.stream"].end - by_name["victim.stream"].start
    )


def test_nested_generators_split_their_time_and_leave_the_consumer_out():
    clock = _FakeClock()                         # every reading is a second
    tracer = tracing.Tracer(clock)
    with tracing.installed(tracer, _TABLE):
        for _ in Victim().relay(2):
            clock(), clock()                     # the consumer: 2 s per item
    by_name = {span.name: span for span in tracer.spans}
    outer, inner = by_name["victim.relay"], by_name["victim.count"]
    assert inner.parent is outer and outer.parent is None
    # Three resumptions each (two items, then exhaustion), the inner's
    # inside the outer's and 1 s long.
    assert len(outer.intervals) == len(inner.intervals) == 3
    assert inner.busy == pytest.approx(3.0) and outer.busy > inner.busy
    layers = tracing.reduce_spans(tracer.spans)
    assert layers["victim.count"]["self_s"] == pytest.approx(3.0)
    # The inner span is alive for nearly all of the outer's time, but only
    # what it ran is taken off the outer's own time ...
    assert inner.end - inner.start > outer.busy - inner.busy
    assert layers["victim.relay"]["self_s"] == pytest.approx(outer.busy - 3.0)
    # ... and the consumer's 4 s are in the outer's life, not in its cover.
    assert outer.end - outer.start >= outer.busy + 4.0
    assert tracing.covered_seconds(outer.intervals, outer.start, outer.end) == (
        pytest.approx(outer.busy)
    )


def test_trace_table_names_callables_that_exist():
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    try:
        for owner_path, attribute, _, _ in tracing.TRACE_TABLE:
            assert callable(vars(tracing._resolve(owner_path))[attribute]), (
                owner_path, attribute,
            )
    finally:
        sys.path.pop(0)


# -- inputs -------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_seed_fixes_the_op_list(name, tmp_path):
    build = workloads.WORKLOADS[name]
    assert build(7, tmp_path).order == build(7, tmp_path).order
    assert sorted(build(7, tmp_path).order) == sorted(build.pool)
    # Another seed issues the pool in another order, except where the
    # workload says order would change what is measured (fleet_thread).
    reordered = any(
        build(seed, tmp_path).order != build(7, tmp_path).order for seed in range(8, 40)
    )
    assert reordered == build.shuffle_pool


# -- the contract file --------------------------------------------------

def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [entry["name"] for entry in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in spec[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert all(len(entry["why"]) <= 200 for entry in spec["workloads"])
    assert all(0 <= entry["bound"] <= 0.25 for entry in spec["end_to_end"])
    setup = next(e for e in spec["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(entry["bound"] for entry in spec["end_to_end"])
