"""Tests for the workload definitions (Nexmark, PQP, rate patterns)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.dataflow.operators import OperatorType, WindowType
from repro.workloads.nexmark import NEXMARK_QUERY_NAMES, nexmark_queries, nexmark_query
from repro.workloads.pqp import (
    _PQP_SEED,
    PQP_TEMPLATES,
    TEMPLATE_SIZES,
    _build_template,
    pqp_queries,
    pqp_query_set,
)
from repro.scenarios.library import BASIC_CYCLE, periodic_multipliers
from repro.workloads.query import StreamingQuery
from repro.workloads.rates import rate_units


class TestRateUnits:
    @pytest.mark.parametrize(
        "query,engine,expected",
        [
            ("q1", "flink", {"src_bids": 700_000.0}),
            ("q1", "timely", {"src_bids": 9_000_000.0}),
            ("q3", "flink", {"src_auctions": 200_000.0, "src_persons": 40_000.0}),
            ("q5", "timely", {"src_bids": 10_000_000.0}),
            ("q8", "flink", {"src_auctions": 100_000.0, "src_persons": 60_000.0}),
        ],
    )
    def test_table2_nexmark_units(self, query, engine, expected):
        assert rate_units("nexmark", query, engine) == expected

    def test_table2_pqp_units(self):
        assert rate_units("pqp", "linear", "flink") == {"src": 5000.0}
        assert sum(rate_units("pqp", "2-way-join", "flink").values()) == 1000.0
        assert sum(rate_units("pqp", "3-way-join", "flink").values()) == 750.0

    def test_unknown_combination(self):
        with pytest.raises(KeyError):
            rate_units("pqp", "linear", "timely")


class TestPeriodicPattern:
    def test_basic_cycle_matches_paper(self):
        assert BASIC_CYCLE == (3, 7, 4, 2, 1, 10, 8, 5, 6, 9)

    def test_full_pattern_has_120_changes(self):
        assert len(periodic_multipliers(n_permutations=6)) == 120

    def test_each_permutation_duplicated(self):
        multipliers = periodic_multipliers(n_permutations=2, seed=1)
        assert multipliers[:10] == multipliers[10:20]       # replicated cycle
        assert sorted(multipliers[20:30]) == sorted(BASIC_CYCLE)

    def test_first_permutation_is_identity(self):
        assert tuple(periodic_multipliers(seed=5)[:10]) == BASIC_CYCLE

    def test_deterministic(self):
        assert periodic_multipliers(seed=3) == periodic_multipliers(seed=3)

    def test_invalid_permutations(self):
        with pytest.raises(ValueError):
            periodic_multipliers(n_permutations=0)

    def test_schedule_for_query(self):
        # A query's schedule is the pattern scaled by its Table II units.
        query = nexmark_query("q1", "flink")
        multipliers = periodic_multipliers(n_permutations=1)
        assert len(multipliers) == 20
        assert query.rates_at(multipliers[0]) == {"src_bids": 3 * 700_000.0}


class TestNexmark:
    def test_all_queries_build_and_validate(self):
        for engine in ("flink", "timely"):
            for query in nexmark_queries(engine):
                query.flow.validate()

    def test_query_shapes(self):
        shapes = {name: len(nexmark_query(name).flow) for name in NEXMARK_QUERY_NAMES}
        assert shapes == {"q1": 3, "q2": 3, "q3": 6, "q5": 5, "q8": 4}

    def test_q1_is_stateless_map(self):
        flow = nexmark_query("q1").flow
        assert flow.operator("map_currency").op_type is OperatorType.MAP

    def test_q3_is_incremental_join(self):
        flow = nexmark_query("q3").flow
        join = flow.operator("join_seller")
        assert join.op_type is OperatorType.JOIN
        assert set(flow.upstream("join_seller")) == {"filter_category", "filter_state"}

    def test_q5_has_sliding_windows(self):
        flow = nexmark_query("q5").flow
        assert flow.operator("win_count").window_type is WindowType.SLIDING
        assert flow.operator("win_max").window_type is WindowType.SLIDING

    def test_q8_is_tumbling_window_join(self):
        flow = nexmark_query("q8").flow
        join = flow.operator("win_join")
        assert join.op_type is OperatorType.WINDOW_JOIN
        assert join.window_type is WindowType.TUMBLING

    def test_unknown_query_rejected(self):
        with pytest.raises(KeyError):
            nexmark_query("q99")

    def test_rates_at_multiplier(self):
        query = nexmark_query("q2", "flink")
        assert query.rates_at(10) == {"src_bids": 9_000_000.0}
        with pytest.raises(ValueError):
            query.rates_at(0)


class TestPQP:
    def test_template_sizes_match_paper(self):
        queries = pqp_query_set()
        assert {t: len(qs) for t, qs in queries.items()} == TEMPLATE_SIZES

    def test_all_queries_validate(self):
        for queries in pqp_query_set().values():
            for query in queries:
                query.flow.validate()

    def test_deterministic_generation(self):
        a = pqp_queries("2-way-join")
        b = pqp_queries("2-way-join")
        for qa, qb in zip(a, b):
            assert qa.flow.structural_signature() == qb.flow.structural_signature()
            for name in qa.flow.operator_names:
                assert qa.flow.operator(name) == qb.flow.operator(name)

    def test_different_seed_changes_configs(self):
        a = pqp_queries("linear", seed=1)
        b = pqp_queries("linear", seed=2)
        assert any(
            qa.flow.operator(n).cost_factor != qb.flow.operator(n).cost_factor
            for qa, qb in zip(a, b)
            for n in qa.flow.operator_names
            if n in qb.flow
        )

    def test_corpus_distribution_matches_fig5(self):
        all_queries = nexmark_queries("flink") + [
            q for qs in pqp_query_set().values() for q in qs
        ]
        counts = Counter(len(q.flow) for q in all_queries)
        assert counts == {2: 4, 3: 5, 4: 5, 5: 7, 6: 8, 7: 10, 8: 12, 9: 8, 10: 2}

    def test_join_templates_have_window_joins(self):
        for query in pqp_queries("2-way-join"):
            kinds = {s.op_type for s in query.flow}
            assert OperatorType.WINDOW_JOIN in kinds

    def test_three_way_has_two_joins(self):
        for query in pqp_queries("3-way-join"):
            joins = [s for s in query.flow if s.op_type is OperatorType.WINDOW_JOIN]
            assert len(joins) == 2

    def test_unknown_template(self):
        with pytest.raises(KeyError):
            pqp_queries("4-way-join")


class TestPQPMemo:
    """A template is built once per process; its queries are shared."""

    def test_resolve_query_returns_the_identical_object(self):
        from repro.api import resolve_query

        query = resolve_query("3-way-join/4")
        assert resolve_query("3-way-join/4") is query
        assert pqp_queries("3-way-join")[4] is query

    def test_each_call_returns_a_new_list(self):
        first = pqp_queries("linear")
        second = pqp_queries("linear")
        assert first is not second
        assert all(a is b for a, b in zip(first, second))
        first.clear()
        first.append(None)
        again = pqp_queries("linear")
        assert len(again) == TEMPLATE_SIZES["linear"] and None not in again

    @pytest.mark.parametrize("seed", [_PQP_SEED, 4242])
    def test_memoised_queries_equal_a_fresh_build(self, seed):
        for template in PQP_TEMPLATES:
            memoised = pqp_queries(template, seed=seed)
            fresh = _build_template.__wrapped__(template, seed)
            assert not any(a is b for a, b in zip(memoised, fresh))
            assert [q.flow.tuning_signature() for q in memoised] == [
                q.flow.tuning_signature() for q in fresh
            ]
            assert [q.rate_units for q in memoised] == [q.rate_units for q in fresh]

    def test_campaigns_leave_a_memoised_query_unchanged(self, tiny_pretrained):
        from repro.api import resolve_query
        from repro.baselines import DS2Tuner
        from repro.core import StreamTuneTuner
        from repro.engines import FlinkCluster
        from repro.experiments.campaigns import run_campaign

        query = resolve_query("2-way-join/1")
        flow, units = query.flow.to_dict(), dict(query.rate_units)
        for make in (DS2Tuner, lambda e: StreamTuneTuner(e, tiny_pretrained, seed=7)):
            engine = FlinkCluster(seed=3)
            run_campaign(engine, make(engine), query, [3, 7])
        assert resolve_query("2-way-join/1") is query
        assert query.flow.to_dict() == flow
        assert query.rate_units == units


class TestStreamingQuery:
    def test_rate_units_must_match_sources(self):
        flow = nexmark_query("q1").flow
        with pytest.raises(ValueError, match="sources"):
            StreamingQuery(
                name="bad", flow=flow, rate_units={"nope": 1.0}, engine="flink"
            )
