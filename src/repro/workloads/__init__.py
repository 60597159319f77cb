"""Benchmark workloads: Nexmark queries, PQP synthetic queries, rate patterns.

Implements the paper's §V-A workload setup: Nexmark Q1/Q2/Q3/Q5/Q8, the PQP
query templates of ZeroTune (Linear, 2-way-join, 3-way-join) and the
Table II source-rate units (the periodic source-rate pattern itself is
:mod:`repro.scenarios.library`'s ``periodic`` trace family).
"""

from repro.workloads.rates import rate_units
from repro.workloads.nexmark import nexmark_queries, nexmark_query
from repro.workloads.pqp import pqp_queries, pqp_query_set
from repro.workloads.query import StreamingQuery

__all__ = [
    "StreamingQuery",
    "nexmark_queries",
    "nexmark_query",
    "pqp_queries",
    "pqp_query_set",
    "rate_units",
]
