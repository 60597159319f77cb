"""Tuning campaigns: the §V-A evaluation protocol.

A campaign drives one (query, method) pair through the periodic source-rate
pattern — each rate change triggers one tuning process.  Campaign results
feed Fig. 6 (final parallelism), Fig. 7a (reconfigurations), Table III
(backpressure occurrences), Fig. 9a (recommendation time) and Fig. 10 (CPU
utilisation), so the grid is computed once per (engine, scale) and cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.api import TuningResult
from repro.experiments import context
from repro.experiments.scale import ExperimentScale
from repro.scenarios.library import periodic_multipliers
from repro.workloads.query import StreamingQuery


@dataclass
class CampaignResult:
    """All tuning processes of one (query, method) campaign."""

    query_name: str
    method: str
    multipliers: list[int] = field(default_factory=list)
    processes: list[TuningResult] = field(default_factory=list)

    @property
    def n_processes(self) -> int:
        return len(self.processes)

    @property
    def average_reconfigurations(self) -> float:
        if not self.processes:
            return 0.0
        return float(
            np.mean([process.n_reconfigurations for process in self.processes])
        )

    @property
    def total_backpressure_events(self) -> int:
        return sum(process.n_backpressure_events for process in self.processes)

    @property
    def average_recommendation_seconds(self) -> float:
        if not self.processes:
            return 0.0
        return float(
            np.mean([process.recommendation_seconds for process in self.processes])
        )

    def final_parallelism_at(self, multiplier: int) -> float:
        """Mean final total parallelism over processes targeting ``multiplier``."""
        totals = [
            process.final_total_parallelism
            for m, process in zip(self.multipliers, self.processes)
            if m == multiplier
        ]
        if not totals:
            raise ValueError(f"campaign never visited multiplier {multiplier}")
        return float(np.mean(totals))

    def final_parallelisms_at(self, multiplier: int) -> dict[str, int]:
        """Final per-operator map of the *last* process at ``multiplier``."""
        for m, process in zip(reversed(self.multipliers), reversed(self.processes)):
            if m == multiplier:
                return process.final_parallelisms
        raise ValueError(f"campaign never visited multiplier {multiplier}")

    def cpu_trace(self) -> list[float]:
        """Concatenated CPU utilisation across every reconfiguration step."""
        trace: list[float] = []
        for process in self.processes:
            trace.extend(process.cpu_trace())
        return trace

    def process_boundaries(self) -> list[int]:
        """Iteration indices where a new rate change begins (Fig. 10 marks)."""
        boundaries = []
        position = 0
        for process in self.processes:
            boundaries.append(position)
            position += len(process.steps)
        return boundaries


def iter_campaign(
    engine,
    tuner,
    query: StreamingQuery,
    multipliers: list[int],
    *,
    chaos=None,
    chaos_sink=None,
):
    """The canonical campaign loop, one tuning process at a time.

    A generator yielding ``(index, multiplier, process)`` after each
    source-rate change and returning the full :class:`CampaignResult`
    (via ``StopIteration.value``).  Both execution paths — the blocking
    :func:`run_campaign` the paper figures call, and every plan a session
    runs, through the service's
    :func:`repro.service.tuning.execute_campaign` — drive this one loop,
    so they cannot drift apart.

    ``chaos`` is an optional :class:`~repro.scenarios.ChaosSpec`: its
    scheduled effects are injected deterministically before each step's
    tuning process, and the resulting
    :class:`~repro.api.events.ChaosInjected` events go to ``chaos_sink``
    (a callable taking one event) when one is given.
    """
    result = CampaignResult(query_name=query.name, method=tuner.name)
    tuner.prepare(query)
    initial = dict.fromkeys(query.flow.operator_names, 1)
    deployment = engine.deploy(query.flow, initial, query.rates_at(multipliers[0]))
    injector = None
    if chaos is not None and not chaos.is_noop:
        from repro.scenarios.chaos import ChaosInjector

        injector = ChaosInjector(chaos)
    for index, multiplier in enumerate(multipliers):
        if injector is not None:
            for event in injector.begin_step(
                engine, deployment, index, campaign=query.name
            ):
                if chaos_sink is not None:
                    chaos_sink(event)
            # Trace dropouts rewrite the workload itself: the tuner, the
            # recorded multipliers and the events all see the post-outage
            # rate, identically on every backend.
            multiplier = chaos.effective_multiplier(index, multiplier)
        process = tuner.tune(deployment, query.rates_at(multiplier))
        result.multipliers.append(multiplier)
        result.processes.append(process)
        yield index, multiplier, process
    engine.stop(deployment)
    return result


def run_campaign(
    engine,
    tuner,
    query: StreamingQuery,
    multipliers: list[int],
) -> CampaignResult:
    """Drive ``query`` through ``multipliers``, tuning after each change."""
    iterator = iter_campaign(engine, tuner, query, multipliers)
    while True:
        try:
            next(iterator)
        except StopIteration as stop:
            return stop.value


def campaign(
    engine_name: str,
    method: str,
    group: str,
    scale: ExperimentScale,
) -> list[CampaignResult]:
    """Cached campaigns for one evaluation group (e.g. 'q5', '2-way-join').

    Returns one :class:`CampaignResult` per query in the group (PQP groups
    evaluate ``scale.queries_per_template`` queries; Nexmark groups one).
    """
    key = ("campaign", engine_name, method, group, scale.name)
    if key in context._CACHE:
        return context._CACHE[key]

    queries = context.evaluation_queries(engine_name, scale)[group]
    multipliers = periodic_multipliers(
        n_permutations=scale.n_permutations, seed=scale.seed
    )[: scale.n_rate_changes]
    results = []
    for query in queries:
        engine = context.make_engine(engine_name, scale)
        tuner = context.make_tuner(method, engine, scale)
        results.append(run_campaign(engine, tuner, query, multipliers))
    context._CACHE[key] = results
    return results


def average_reconfigurations(results: list[CampaignResult]) -> float:
    """Mean reconfigurations per tuning process across a query group."""
    return float(np.mean([result.average_reconfigurations for result in results]))


def average_recommendation_seconds(results: list[CampaignResult]) -> float:
    """Mean online recommendation time per process across a query group."""
    return float(np.mean([result.average_recommendation_seconds for result in results]))


def final_parallelism(results: list[CampaignResult]) -> float:
    """Mean final total parallelism at 10 x Wu across a query group."""
    return sum(result.final_parallelism_at(10) for result in results) / len(results)


@dataclass(frozen=True)
class GridRow:
    """One (group, method) cell of a campaign-grid figure: what this
    repository measured and, where the paper prints one, its value."""

    group: str
    method: str
    measured: float
    paper: float | None


def grid_rows(engine_name: str, cells, scale: ExperimentScale, measure, paper) -> list[GridRow]:
    """``measure(campaigns)`` for every ``(group, method)`` of ``cells``;
    ``paper`` maps the cells the paper prints a value for to that value."""
    return [
        GridRow(group, method, measure(campaign(engine_name, method, group, scale)),
                paper.get((group, method)))
        for group, method in cells
    ]
