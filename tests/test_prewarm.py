"""Service-level cache pre-warming and resume-aware cache warming.

Pre-warming moves pure work ahead of dispatch; it must never change a
single recommendation (entries come from the exact builders the tuner
runs on a miss), and a resumed fleet must warm the caches from its
completed cells before executing the missing ones.
"""

from __future__ import annotations

import pytest

from repro.api.events import CampaignFinished, CampaignSkipped
from repro.core.finetune import shared_structure_key
from repro.service import CampaignSpec, TuningService, prewarm_caches
from repro.service.cache import TuningCacheSet
from repro.service.prewarm import RESUME_DEMAND
from repro.workloads import nexmark_query
from tests.conftest import cached_entry


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
        for process in outcome.result.processes
    ]


class TestPrewarmCaches:
    def test_populates_every_section(self, tiny_pretrained):
        caches = TuningCacheSet()
        specs = [_spec("q1"), _spec("q5")]
        stats = prewarm_caches(tiny_pretrained, caches, specs)
        assert stats["assign"] >= 1
        assert stats["warmup"] >= 1
        assert stats["distill"] >= 2      # one per (structure, rate)
        assert stats["embed"] >= 2
        for kind in ("assign", "warmup", "distill", "embed"):
            assert caches.stats()[kind]["size"] >= 1

    def test_second_pass_computes_nothing(self, tiny_pretrained):
        caches = TuningCacheSet()
        specs = [_spec("q1")]
        prewarm_caches(tiny_pretrained, caches, specs)
        again = prewarm_caches(tiny_pretrained, caches, specs)
        assert again == {"assign": 0, "warmup": 0, "distill": 0, "embed": 0}

    def test_min_demand_gates_expensive_sections(self, tiny_pretrained):
        caches = TuningCacheSet()
        stats = prewarm_caches(
            tiny_pretrained, caches, [_spec("q1"), _spec("q5")], min_demand=2
        )
        # Two structurally distinct campaigns share no rate-conditioned
        # key, so nothing expensive reaches the threshold; assignments are
        # still resolved (cheap, and prerequisites for the accounting).
        assert stats["distill"] == 0
        assert stats["embed"] == 0
        assert stats["assign"] >= 1

    def test_unreachable_min_demand_skips_everything(self, tiny_pretrained):
        caches = TuningCacheSet()
        stats = prewarm_caches(
            tiny_pretrained, caches, [_spec("q1")], min_demand=2
        )
        # The summed demand cannot reach the threshold: nothing is touched,
        # not even assignment.
        assert stats == {"assign": 0, "warmup": 0, "distill": 0, "embed": 0}
        assert caches.stats()["assign"]["size"] == 0

    def test_baseline_specs_are_ignored(self, tiny_pretrained):
        caches = TuningCacheSet()
        spec = CampaignSpec(
            query=nexmark_query("q1", "flink"),
            multipliers=(3.0,),
            engine_seed=31,
            seed=41,
            tuner="ds2",
        )
        stats = prewarm_caches(tiny_pretrained, caches, [spec])
        assert stats == {"assign": 0, "warmup": 0, "distill": 0, "embed": 0}

    def test_without_pretrained_is_a_noop(self):
        stats = prewarm_caches(None, TuningCacheSet(), [_spec("q1")])
        assert sum(stats.values()) == 0

    def test_demand_length_mismatch_rejected(self, tiny_pretrained):
        with pytest.raises(ValueError, match="demands"):
            prewarm_caches(
                tiny_pretrained, TuningCacheSet(), [_spec("q1")], demands=[1, 2]
            )

    def test_prewarmed_entries_match_tuner_builders(self, tiny_pretrained):
        # The warmed value must be exactly what the tuner would compute.
        import numpy as np

        from repro.core.finetune import agnostic_embeddings

        caches = TuningCacheSet()
        spec = _spec("q1")
        prewarm_caches(tiny_pretrained, caches, [spec])
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
        # tuner sees it, so that — not the planned rate — is the key the
        # campaign consults: 2 queries x 3 effective rates, all served.
        import dataclasses

        from repro.scenarios import ChaosSpec

        chaos = ChaosSpec(trace_dropout=({"step": 1, "factor": 0.25},))
        specs = [
            dataclasses.replace(_spec(name, multipliers=(3, 7, 4)), chaos=chaos)
            for name in ("q1", "q5")
        ]
        caches = TuningCacheSet()
        warmed = prewarm_caches(tiny_pretrained, caches, specs)
        assert (warmed["distill"], warmed["embed"]) == (6, 6)
        before = caches.stats()
        TuningService(tiny_pretrained, backend="sequential", caches=caches).run(specs)
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
        # A fully pre-warmed cache set against the cold reference (the
        # sequential policy warms nothing without a resume log).
        specs = [_spec("q1"), _spec("q5")]
        off = TuningService(tiny_pretrained, backend="sequential").run(specs)
        caches = TuningCacheSet()
        warmed = prewarm_caches(tiny_pretrained, caches, specs)
        assert warmed["warmup"] >= 1 and warmed["embed"] >= 2
        on = TuningService(tiny_pretrained, backend=backend, caches=caches).run(specs)
        assert [_steps(a) for a in on] == [_steps(b) for b in off]

    def test_thread_auto_warms_only_shared_keys(self, tiny_pretrained):
        # Distinct campaigns share no expensive key, so the
        # auto policy warms nothing heavy on the thread backend...
        service = TuningService(tiny_pretrained, backend="thread")
        service.run([_spec("q1"), _spec("q5")])
        assert service.last_prewarm["distill"] == 0
        assert service.last_prewarm["embed"] == 0

    def test_thread_auto_warms_keys_two_campaigns_share(self, tiny_pretrained):
        # ...but two structurally identical campaigns demand the same keys.
        import dataclasses

        spec = _spec("q1", multipliers=(3, 7, 4))
        twin = dataclasses.replace(
            spec, query=dataclasses.replace(spec.query, name="q1_twin")
        )
        service = TuningService(tiny_pretrained, backend="thread", max_workers=2)
        shared = service.run([spec, twin])
        assert service.last_prewarm["embed"] >= 1
        assert service.last_prewarm["warmup"] >= 1
        reference = TuningService(tiny_pretrained, backend="sequential").run([spec])
        assert _steps(shared[0]) == _steps(shared[1]) == _steps(reference[0])

    def test_sequential_auto_stays_cold(self, tiny_pretrained):
        service = TuningService(tiny_pretrained, backend="sequential")
        service.run([_spec("q1")])
        assert service.last_prewarm == {
            "assign": 0, "warmup": 0, "distill": 0, "embed": 0,
        }


class TestResumeAwareWarming:
    def test_resume_warms_caches_from_completed_cells(self, tiny_pretrained):
        specs = [_spec("q1"), _spec("q5")]
        full = {}
        service = TuningService(tiny_pretrained, backend="sequential")
        for event in service.stream(specs):
            if isinstance(event, CampaignFinished):
                full[event.index] = event.outcome
        resume = {specs[0].cell_key: full[0]}

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
        assert resumed_service.last_prewarm["warmup"] >= 1

        # ...and the missing campaign's results are bit-identical.
        finished = {
            e.index: e.outcome for e in events if isinstance(e, CampaignFinished)
        }
        assert _steps(finished[1]) == _steps(full[1])

    def test_resume_demand_constant_is_large(self):
        assert RESUME_DEMAND >= 1_000_000

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
                full[event.index] = event.outcome
        resumed = TuningService(tiny_pretrained, backend="sequential")
        events = list(resumed.stream(specs, resume={specs[0].cell_key: full[0]}))
        assert any(isinstance(e, CampaignSkipped) for e in events)
        assert resumed.last_prewarm["warmup"] >= 1
        assert resumed.caches.stats()["embed"]["size"] >= 1
