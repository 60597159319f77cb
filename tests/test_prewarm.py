"""Resume-aware cache warming and single-flight key sharing.

Warming moves pure work ahead of dispatch; it must never change a single
recommendation (entries come from each campaign's own tuner, under the
keys only the tuner decides), and a resumed fleet must warm the caches
from its completed cells before executing the missing ones.  Concurrent
campaigns share cold keys without any warming: the cache is
single-flight, so each key is computed once.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api.events import CampaignFinished, CampaignSkipped
from repro.core.finetune import shared_structure_key, warmup_cache_key
from repro.core.tuner import DEFAULT_WARMUP_ROWS
from repro.service import CampaignSpec, TuningService, prewarm_caches
from repro.service.cache import TuningCacheSet
from repro.workloads import nexmark_query
from tests.conftest import cached_entry
from tests.conftest import resume_log_of, run_campaigns

SECTIONS = ("assign", "warmup", "distill", "embed")


def _spec(name: str, multipliers=(3, 7), seed: int = 41) -> CampaignSpec:
    return CampaignSpec(
        query=nexmark_query(name, "flink"),
        multipliers=tuple(multipliers),
        engine_seed=31,
        seed=seed,
    )


def _steps(outcome):
    return [
        [step.parallelisms for step in process.steps]
        for process in outcome.processes
    ]


def _recorded(pretrained, specs):
    """``(spec, outcome)`` pairs of a cold sequential run, and its caches."""
    caches = TuningCacheSet()
    outcomes = run_campaigns(
        TuningService(pretrained, backend="sequential", caches=caches), specs
    )
    return list(zip(specs, outcomes)), caches


def _misses(caches) -> dict[str, int]:
    return {kind: stats["misses"] for kind, stats in caches.stats().items()}


class TestPrewarmCaches:
    def test_populates_every_section(self, tiny_pretrained):
        # Warming from the recorded results computes exactly the entries
        # the campaigns themselves computed cold, section by section.
        recorded, cold = _recorded(tiny_pretrained, [_spec("q1"), _spec("q5")])
        caches = TuningCacheSet()
        stats = prewarm_caches(tiny_pretrained, caches, recorded)
        assert stats == _misses(cold)
        assert stats["distill"] >= 2 and stats["embed"] >= 2
        for kind in SECTIONS:
            assert caches.stats()[kind]["size"] == stats[kind] >= 1

    def test_second_pass_computes_nothing(self, tiny_pretrained):
        recorded, _ = _recorded(tiny_pretrained, [_spec("q1")])
        caches = TuningCacheSet()
        prewarm_caches(tiny_pretrained, caches, recorded)
        again = prewarm_caches(tiny_pretrained, caches, recorded)
        assert again == dict.fromkeys(SECTIONS, 0)

    def test_baseline_specs_are_ignored(self, tiny_pretrained):
        spec = CampaignSpec(
            query=nexmark_query("q1", "flink"),
            multipliers=(3.0,),
            engine_seed=31,
            seed=41,
            tuner="ds2",
        )
        (outcome,) = run_campaigns(TuningService(None, backend="sequential"), [spec])
        caches = TuningCacheSet()
        stats = prewarm_caches(tiny_pretrained, caches, [(spec, outcome)])
        assert stats == dict.fromkeys(SECTIONS, 0)

    def test_without_pretrained_is_a_noop(self, tiny_pretrained):
        recorded, _ = _recorded(tiny_pretrained, [_spec("q1")])
        stats = prewarm_caches(None, TuningCacheSet(), recorded)
        assert sum(stats.values()) == 0

    def test_prewarmed_entries_match_tuner_builders(self, tiny_pretrained):
        # The warmed value must be exactly what the tuner would compute.
        import numpy as np

        from repro.core.finetune import agnostic_embeddings

        spec = _spec("q1")
        recorded, _ = _recorded(tiny_pretrained, [spec])
        caches = TuningCacheSet()
        prewarm_caches(tiny_pretrained, caches, recorded)
        flow = spec.query.flow
        cluster = tiny_pretrained.assign_cluster(flow)
        rates = spec.query.rates_at(3.0)
        key = shared_structure_key(flow, cluster, rates)
        cached = cached_entry(caches, "embed", key)
        encoder = tiny_pretrained.encoders[cluster]
        np.testing.assert_array_equal(
            cached, agnostic_embeddings(tiny_pretrained, encoder, flow, rates)
        )

    def test_trace_dropout_warms_the_rate_that_arrives(self, tiny_pretrained):
        # A dropout rewrites step 1's multiplier (7 -> 1.75) before the
        # tuner sees it.  A resumed campaign warms from its recorded
        # multipliers, so the 1.75 keys — not the planned 7 — are warm:
        # 2 queries x 3 effective rates, all served to a re-run.
        from repro.scenarios import ChaosSpec

        chaos = ChaosSpec(trace_dropout=({"step": 1, "factor": 0.25},))
        specs = [
            dataclasses.replace(_spec(name, multipliers=(3, 7, 4)), chaos=chaos)
            for name in ("q1", "q5")
        ]
        recorded, _ = _recorded(tiny_pretrained, specs)
        resumed = TuningService(tiny_pretrained, backend="sequential")
        events = list(resumed.stream(specs, resume=resume_log_of(recorded)))
        assert sum(isinstance(e, CampaignSkipped) for e in events) == 2
        caches = resumed.caches
        flow = specs[0].query.flow
        cluster = tiny_pretrained.assign_cluster(flow)
        cached_entry(
            caches, "embed",
            shared_structure_key(flow, cluster, specs[0].query.rates_at(1.75)),
        )
        before = caches.stats()
        assert (before["distill"]["size"], before["embed"]["size"]) == (6, 6)
        run_campaigns(TuningService(tiny_pretrained, backend="sequential", caches=caches), specs)
        after = caches.stats()
        for kind in ("distill", "embed"):
            assert after[kind]["misses"] == before[kind]["misses"]
            assert after[kind]["size"] == 6
            assert after[kind]["hits"] > before[kind]["hits"]


class TestServicePrewarmIdentity:
    @pytest.mark.parametrize("backend", ["sequential", "thread"])
    def test_results_identical_with_and_without_prewarm(
        self, tiny_pretrained, backend
    ):
        # A fully warmed cache set against the cold reference.
        specs = [_spec("q1"), _spec("q5")]
        recorded, _ = _recorded(tiny_pretrained, specs)
        off = [outcome for _, outcome in recorded]
        caches = TuningCacheSet()
        warmed = prewarm_caches(tiny_pretrained, caches, recorded)
        assert warmed["warmup"] >= 1 and warmed["embed"] >= 2
        before = _misses(caches)
        on = run_campaigns(TuningService(tiny_pretrained, backend=backend, caches=caches), specs)
        assert [_steps(a) for a in on] == [_steps(b) for b in off]
        assert _misses(caches) == before          # every lookup was warm

    def test_thread_auto_warms_keys_two_campaigns_share(self, tiny_pretrained):
        # Two structurally identical campaigns race on every key of a cold
        # cache: single flight computes each key once — the twin adds no
        # miss to a lone campaign's — and both reproduce the sequential
        # steps.
        spec = _spec("q1", multipliers=(3, 7, 4))
        twin = dataclasses.replace(
            spec, query=dataclasses.replace(spec.query, name="q1_twin")
        )
        service = TuningService(tiny_pretrained, backend="thread", max_workers=2)
        shared = run_campaigns(service, [spec, twin])
        reference, lone = _recorded(tiny_pretrained, [spec])
        stats = service.caches.stats()
        for kind in ("warmup", "distill", "embed"):
            assert stats[kind]["misses"] == stats[kind]["size"]
            assert stats[kind]["misses"] == lone.stats()[kind]["misses"] >= 1
        assert _steps(shared[0]) == _steps(shared[1]) == _steps(reference[0][1])

    def test_sequential_auto_stays_cold(self, tiny_pretrained, monkeypatch):
        # With nothing resumed, nothing is computed ahead of dispatch.
        import repro.service.tuning as tuning

        warmed = []
        original = tuning.prewarm_caches

        def spy(*args):
            warmed.append(original(*args))
            return warmed[-1]

        monkeypatch.setattr(tuning, "prewarm_caches", spy)
        service = TuningService(tiny_pretrained, backend="sequential")
        run_campaigns(service, [_spec("q1")])
        assert warmed == [dict.fromkeys(SECTIONS, 0)]


class TestResumeAwareWarming:
    def test_resume_warms_caches_from_completed_cells(self, tiny_pretrained):
        specs = [_spec("q1"), _spec("q5")]
        full = {}
        service = TuningService(tiny_pretrained, backend="sequential")
        for event in service.stream(specs):
            if isinstance(event, CampaignFinished):
                full[event.index] = event.result
        resume = resume_log_of([(specs[0], full[0])])

        resumed_service = TuningService(tiny_pretrained, backend="sequential")
        events = list(resumed_service.stream(specs, resume=resume))
        skipped = [e for e in events if isinstance(e, CampaignSkipped)]
        assert [e.campaign for e in skipped] == [specs[0].name]

        # The resumed (not re-executed) campaign's pure entries were
        # restored into the cache set before the missing one ran...
        flow = specs[0].query.flow
        cluster = tiny_pretrained.assign_cluster(flow)
        for multiplier in specs[0].multipliers:
            key = shared_structure_key(
                flow, cluster, specs[0].query.rates_at(multiplier)
            )
            cached_entry(resumed_service.caches, "distill", key)
            cached_entry(resumed_service.caches, "embed", key)
        cached_entry(
            resumed_service.caches, "warmup",
            warmup_cache_key(
                tiny_pretrained, cluster, DEFAULT_WARMUP_ROWS, specs[0].seed
            ),
        )

        # ...and the missing campaign's results are bit-identical.
        finished = {
            e.index: e.result for e in events if isinstance(e, CampaignFinished)
        }
        assert _steps(finished[1]) == _steps(full[1])

    def test_fully_resumed_fleet_still_warms_caches(self, tiny_pretrained):
        # Every cell recorded: nothing executes (and no worker pool spins
        # up), but the completed cells' pure entries are restored so a
        # snapshot taken from this cache set recovers the crashed run's
        # paid-for computations.
        specs = [_spec("q1")]
        service = TuningService(tiny_pretrained, backend="sequential")
        full = {}
        for event in service.stream(specs):
            if isinstance(event, CampaignFinished):
                full[event.index] = event.result
        resumed = TuningService(tiny_pretrained, backend="sequential")
        events = list(
            resumed.stream(specs, resume=resume_log_of([(specs[0], full[0])]))
        )
        assert any(isinstance(e, CampaignSkipped) for e in events)
        stats = resumed.caches.stats()
        assert stats["warmup"]["misses"] == stats["warmup"]["size"] >= 1
        assert stats["embed"]["size"] == len(set(specs[0].multipliers))
