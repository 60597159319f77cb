"""What a run measures and how it is reduced: ops and chunks of a pass,
reference-normalised seconds, percentiles with a sample-count rule, and
the comparison of a pass's outputs with the reference pass's."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from refkernel import scale_factor

#: A percentile is claimable only with this many samples beyond it.
MIN_BEYOND = 10


class UnsupportedPercentile(ValueError):
    """Too few samples lie beyond the requested percentile to claim it."""


def supports(n_samples: int, q: float) -> bool:
    """Whether ``n_samples`` leave at least ``MIN_BEYOND`` beyond p``q``."""
    return n_samples * (100.0 - q) >= MIN_BEYOND * 100.0


def percentile(samples, q: float, *, claim: bool = True) -> float:
    """The ``q``-th percentile by linear interpolation.

    With ``claim=True`` a percentile the sample cannot support is refused;
    ``claim=False`` computes it anyway, for a report that marks it
    unclaimable.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be inside (0, 100), got {q}")
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    if claim and not supports(len(ordered), q):
        raise UnsupportedPercentile(
            f"p{q:g} of {len(ordered)} samples has fewer than "
            f"{MIN_BEYOND} samples beyond it"
        )
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


@dataclass
class Op:
    """One operation: when it ran and what it produced."""

    op_id: str
    start: float
    end: float
    output: object = None
    ok: bool = True


@dataclass
class Chunk:
    """A stretch of ops bracketed by two reference-kernel samples.

    ``start``/``end`` and the kernel samples are read off the recorder's
    clock; the wall interval is kept beside them for the spans, which are
    always on wall time, and for the un-normalised throughput.
    """

    start: float
    end: float
    kernel_before: float
    kernel_after: float
    wall_start: float = 0.0
    wall_end: float = 0.0

    @property
    def factor(self) -> float:
        return scale_factor(self.kernel_before, self.kernel_after)


@dataclass
class PassRecord:
    """Everything one pass measured.  Kernel time lies between chunks,
    so it is in no chunk and in no op."""

    chunks: list[Chunk] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    cpu_seconds: float = 0.0
    extras: dict = field(default_factory=dict)

    def wall_seconds(self) -> float:
        return sum(chunk.wall_end - chunk.wall_start for chunk in self.chunks)

    def seconds(self) -> float:
        """Reference-normalised pass time: each chunk scaled by its own factor."""
        return sum((c.end - c.start) * c.factor for c in self.chunks)

    def _factor_at(self, moment: float) -> float:
        for chunk in self.chunks:
            if chunk.start <= moment <= chunk.end:
                return chunk.factor
        raise ValueError("op ended outside every chunk of its pass")

    def latencies(self) -> list[float]:
        return [(op.end - op.start) * self._factor_at(op.end) for op in self.ops]

    def outputs(self) -> list:
        return [(op.op_id, op.output) for op in self.ops]

    def kernel_samples(self) -> list[float]:
        if not self.chunks:
            return []
        return [self.chunks[0].kernel_before] + [c.kernel_after for c in self.chunks]


def failed_ops(reference, record) -> set[str]:
    """Ops of ``record`` that raised, failed their own check, or whose
    output differs from the reference pass's."""
    expected = dict(reference.outputs())
    failing = {op.op_id for op in record.ops if not op.ok}
    produced = dict(record.outputs())
    failing |= {
        op_id for op_id in expected.keys() | produced.keys()
        if expected.get(op_id) != produced.get(op_id)
    }
    return failing


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def gap(first: float, second: float) -> float:
    """The distance between two medians of the same code as a share of
    the smaller one.  It has no direction: a second set that reads much
    *better* agrees with the first as little as one that reads much worse."""
    return abs(second - first) / min(abs(first), abs(second))


def compare_sets(first_set, second_set, end_to_end, exact=()) -> list[dict]:
    """One row per workload and end-to-end metric for two sets of runs of
    the same code (``{workload: [{metric: value}, ...]}``): both medians,
    their gap, which way the second set leans, and whether they
    ``disagree``: the gap exceeds the metric's bound or, for a metric
    named in ``exact``, the medians differ at all."""
    rows = []
    for workload in first_set:
        for entry in end_to_end:
            name = entry["name"]
            first, second = (
                statistics.median(run[name] for run in runs[workload])
                for runs in (first_set, second_set)
            )
            distance = gap(first, second)
            rows.append({
                "workload": workload, "metric": name, "first": first, "second": second,
                "gap": distance, "bound": entry["bound"],
                "worse_by": worse_by(first, second, entry["better"]),
                "disagree": first != second if name in exact else distance > entry["bound"],
            })
    return rows
