"""PQP synthetic queries (paper §V-A, templates from ZeroTune [20]).

Three templates are used in the paper's evaluation: **Linear** (8 queries),
**2-way-join** (16 queries) and **3-way-join** (32 queries), featuring
source/filter/join/aggregate operators with tumbling and sliding windows.

Node-count design.  Fig. 5 reports the node-count distribution of the
pre-training DAGs over 61 graphs, which is exactly the five Nexmark queries
plus the 56 PQP queries (e.g. 6.56% = 4/61, 19.67% = 12/61).  The generator
therefore fixes the per-template node counts so the combined corpus
reproduces Fig. 5 *exactly*:

=========  =======  ==========================================
nodes      total    composition
=========  =======  ==========================================
2            4      4 linear
3            5      Q1, Q2 + 3 linear
4            5      Q8 + 1 linear + 3 two-way
5            7      7 two-way
6            8      Q3, Q5 + 6 two-way
7           10      10 three-way
8           12      12 three-way
9            8      8 three-way
10           2      2 three-way
=========  =======  ==========================================

PQP operators are deliberately heavyweight (large ``cost_factor``): the
ZeroTune workload pairs low source rates (Table II: 250-5000 records/s)
with expensive windowed joins, which is what pushes the paper's recommended
parallelism for 2-way/3-way joins into the 30-60 range.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.dataflow.graph import LogicalDataflow
from repro.dataflow.operators import (
    AggregateFunction,
    DataType,
    KeyClass,
    OperatorSpec,
    OperatorType,
    WindowPolicy,
    WindowType,
)
from repro.utils.rng import seeded_rng, stable_hash
from repro.workloads.query import StreamingQuery
from repro.workloads.rates import rate_units

PQP_TEMPLATES = ("linear", "2-way-join", "3-way-join")

#: Per-template query counts (paper §V-A).
TEMPLATE_SIZES = {"linear": 8, "2-way-join": 16, "3-way-join": 32}

#: Node-count plan per template (see module docstring).
_LINEAR_NODE_PLAN = [2, 2, 2, 2, 3, 3, 3, 4]
_TWO_WAY_NODE_PLAN = [4, 4, 4, 5, 5, 5, 5, 5, 5, 6, 6, 6, 6, 6, 6, 6]
_THREE_WAY_NODE_PLAN = [7] * 10 + [8] * 12 + [9] * 8 + [10] * 2

_PQP_SEED = 9_180_424


def _pick_window(rng: np.random.Generator) -> dict:
    """Random window configuration (tumbling/sliding x count/time)."""
    window_type = WindowType.SLIDING if rng.random() < 0.5 else WindowType.TUMBLING
    policy = WindowPolicy.TIME if rng.random() < 0.5 else WindowPolicy.COUNT
    length = float(rng.choice([10, 30, 60, 120, 300]))
    if window_type is WindowType.SLIDING:
        sliding = length / float(rng.choice([2, 3, 5, 6]))
    else:
        sliding = 0.0
    return {
        "window_type": window_type,
        "window_policy": policy,
        "window_length": length,
        "sliding_length": sliding,
    }


def _pqp_source(name: str, rng: np.random.Generator) -> OperatorSpec:
    width = float(rng.choice([32, 64, 128]))
    return OperatorSpec(
        name=name,
        op_type=OperatorType.SOURCE,
        tuple_width_in=width,
        tuple_width_out=width,
        tuple_data_type=DataType.GENERIC,
        cost_factor=float(rng.uniform(60, 140)),
    )


def _pqp_filter(name: str, width: float, rng: np.random.Generator) -> OperatorSpec:
    return OperatorSpec(
        name=name,
        op_type=OperatorType.FILTER,
        tuple_width_in=width,
        tuple_width_out=width,
        selectivity=float(rng.uniform(0.4, 0.9)),
        cost_factor=float(rng.uniform(250, 550)),
    )


def _pqp_map(name: str, width: float, rng: np.random.Generator) -> OperatorSpec:
    return OperatorSpec(
        name=name,
        op_type=OperatorType.MAP,
        tuple_width_in=width,
        tuple_width_out=width,
        selectivity=1.0,
        cost_factor=float(rng.uniform(200, 450)),
    )


def _pqp_window_join(name: str, width: float, rng: np.random.Generator) -> OperatorSpec:
    return OperatorSpec(
        name=name,
        op_type=OperatorType.WINDOW_JOIN,
        join_key_class=KeyClass(rng.choice([k.value for k in (KeyClass.INT, KeyClass.LONG, KeyClass.STRING)])),
        tuple_width_in=width,
        tuple_width_out=width * 1.5,
        tuple_data_type=DataType.JOINED,
        selectivity=float(rng.uniform(0.3, 0.8)),
        cost_factor=float(rng.uniform(280, 480)),
        **_pick_window(rng),
    )


def _pqp_window_aggregate(name: str, width: float, rng: np.random.Generator) -> OperatorSpec:
    function = AggregateFunction(
        rng.choice([f.value for f in AggregateFunction if f is not AggregateFunction.NONE])
    )
    return OperatorSpec(
        name=name,
        op_type=OperatorType.WINDOW_AGGREGATE,
        aggregate_class=KeyClass.INT,
        aggregate_key_class=KeyClass(rng.choice([k.value for k in (KeyClass.INT, KeyClass.LONG)])),
        aggregate_function=function,
        tuple_width_in=width,
        tuple_width_out=48.0,
        tuple_data_type=DataType.AGGREGATED,
        selectivity=float(rng.uniform(0.1, 0.4)),
        cost_factor=float(rng.uniform(80, 200)),
        **_pick_window(rng),
    )


def _pqp_sink(name: str, width: float) -> OperatorSpec:
    return OperatorSpec(
        name=name,
        op_type=OperatorType.SINK,
        tuple_width_in=width,
        tuple_width_out=width,
        cost_factor=8.0,
    )


def _build_linear(index: int, n_nodes: int, rng: np.random.Generator) -> LogicalDataflow:
    """source -> (filter|map)* -> [window_aggregate] -> [sink], n_nodes total."""
    flow = LogicalDataflow(f"pqp_linear_{index}")
    src = flow.add_operator(_pqp_source("src", rng))
    chain = [src]
    width = src.tuple_width_out
    body = n_nodes - 1
    include_sink = n_nodes >= 3
    include_agg = n_nodes >= 4
    n_middle = body - int(include_sink) - int(include_agg)
    for i in range(n_middle):
        maker = _pqp_filter if rng.random() < 0.7 else _pqp_map
        chain.append(flow.add_operator(maker(f"op_{i}", width, rng)))
    if include_agg:
        chain.append(flow.add_operator(_pqp_window_aggregate("win_agg", width, rng)))
        width = 48.0
    if include_sink:
        chain.append(flow.add_operator(_pqp_sink("sink", width)))
    for upstream, downstream in zip(chain, chain[1:]):
        flow.connect(upstream, downstream)
    return flow


def _build_two_way(index: int, n_nodes: int, rng: np.random.Generator) -> LogicalDataflow:
    """Two sources joined in a window, with 0-2 extra pre/post operators."""
    flow = LogicalDataflow(f"pqp_2way_{index}")
    left = flow.add_operator(_pqp_source("src_left", rng))
    right = flow.add_operator(_pqp_source("src_right", rng))
    width = (left.tuple_width_out + right.tuple_width_out) / 2
    join = flow.add_operator(_pqp_window_join("win_join", width, rng))
    out = flow.add_operator(_pqp_sink("sink", join.tuple_width_out))

    extras = n_nodes - 4
    left_head: OperatorSpec = left
    right_head: OperatorSpec = right
    post: list[OperatorSpec] = []
    if extras >= 1:
        if rng.random() < 0.5:
            left_head = flow.add_operator(_pqp_filter("filter_left", left.tuple_width_out, rng))
            flow.connect(left, left_head)
        else:
            post.append(flow.add_operator(_pqp_window_aggregate("win_agg", join.tuple_width_out, rng)))
    if extras >= 2:
        right_head = flow.add_operator(_pqp_filter("filter_right", right.tuple_width_out, rng))
        flow.connect(right, right_head)

    flow.connect(left_head, join)
    flow.connect(right_head, join)
    tail: OperatorSpec = join
    for op in post:
        flow.connect(tail, op)
        tail = op
    flow.connect(tail, out)
    return flow


def _build_three_way(index: int, n_nodes: int, rng: np.random.Generator) -> LogicalDataflow:
    """Three sources, two cascaded window joins, aggregate, sink, + filters."""
    flow = LogicalDataflow(f"pqp_3way_{index}")
    srcs = [flow.add_operator(_pqp_source(f"src_{tag}", rng)) for tag in "abc"]
    width = float(np.mean([s.tuple_width_out for s in srcs]))
    join_ab = flow.add_operator(_pqp_window_join("join_ab", width, rng))
    join_abc = flow.add_operator(_pqp_window_join("join_abc", width * 1.25, rng))
    agg = flow.add_operator(_pqp_window_aggregate("win_agg", join_abc.tuple_width_out, rng))
    out = flow.add_operator(_pqp_sink("sink", 48.0))

    n_filters = n_nodes - 7
    heads = list(srcs)
    for i in range(n_filters):
        filt = flow.add_operator(_pqp_filter(f"filter_{'abc'[i]}", srcs[i].tuple_width_out, rng))
        flow.connect(srcs[i], filt)
        heads[i] = filt

    flow.connect(heads[0], join_ab)
    flow.connect(heads[1], join_ab)
    flow.connect(join_ab, join_abc)
    flow.connect(heads[2], join_abc)
    flow.connect(join_abc, agg)
    flow.connect(agg, out)
    return flow


_NODE_PLANS = {
    "linear": _LINEAR_NODE_PLAN,
    "2-way-join": _TWO_WAY_NODE_PLAN,
    "3-way-join": _THREE_WAY_NODE_PLAN,
}


def pqp_template_size(template: str) -> int:
    """How many queries :func:`pqp_queries` generates for ``template``
    (without building them — cheap enough for eager plan validation)."""
    if template not in _NODE_PLANS:
        raise KeyError(f"unknown PQP template {template!r}; have {PQP_TEMPLATES}")
    return len(_NODE_PLANS[template])


def pqp_queries(template: str, seed: int = _PQP_SEED) -> list[StreamingQuery]:
    """Generate the paper's query set for one PQP template (Flink only).

    Each ``(template, seed)`` is built once per process: the list is new
    on every call, the queries in it are shared.  That is safe because a
    validated flow is never mutated and nothing writes a query's
    ``rate_units``; a caller that wants to change either copies it first
    (``flow.copy()``, ``dict(rate_units)``).  The template's flows share
    one seeded RNG stream, so one index cannot be built alone.
    """
    if template not in PQP_TEMPLATES:
        raise KeyError(f"unknown PQP template {template!r}; have {PQP_TEMPLATES}")
    return list(_build_template(template, seed))


@functools.lru_cache(maxsize=None)
def _build_template(template: str, seed: int) -> tuple[StreamingQuery, ...]:
    units = rate_units("pqp", template, "flink")
    rng = seeded_rng(seed + stable_hash(template, 10_000))
    queries: list[StreamingQuery] = []
    if template == "linear":
        plan, builder = _LINEAR_NODE_PLAN, _build_linear
    elif template == "2-way-join":
        plan, builder = _TWO_WAY_NODE_PLAN, _build_two_way
    else:
        plan, builder = _THREE_WAY_NODE_PLAN, _build_three_way
    for index, n_nodes in enumerate(plan):
        flow = builder(index, n_nodes, rng)
        queries.append(
            StreamingQuery(
                name=flow.name,
                flow=flow,
                rate_units=dict(units),
                engine="flink",
            )
        )
    return tuple(queries)


def pqp_query_set(seed: int = _PQP_SEED) -> dict[str, list[StreamingQuery]]:
    """All 56 PQP queries, keyed by template."""
    return {template: pqp_queries(template, seed=seed) for template in PQP_TEMPLATES}
