"""Source-rate units (Table II) and the periodic rate pattern (§V-A).

The paper drives every query with a periodic pattern: a basic cycle of ten
multipliers ``[3, 7, 4, 2, 1, 10, 8, 5, 6, 9]`` (in units of Wu), replicated
to a sequence of 20, with six permutations generated per query — 120 source
rate changes in total.

The pattern generator lives in :mod:`repro.scenarios.library` as the
``periodic`` family of the ``TRACES`` registry (``BASIC_CYCLE``,
``periodic_multipliers``); this module holds the Table II units.
"""

from __future__ import annotations

__all__ = ["rate_units"]

#: Table II — source rate units Wu in records/s, keyed by
#: (workload, query, engine) -> {source name: Wu}.
_RATE_UNITS: dict[tuple[str, str, str], dict[str, float]] = {
    ("nexmark", "q1", "flink"): {"src_bids": 700_000.0},
    ("nexmark", "q1", "timely"): {"src_bids": 9_000_000.0},
    ("nexmark", "q2", "flink"): {"src_bids": 900_000.0},
    ("nexmark", "q2", "timely"): {"src_bids": 9_000_000.0},
    ("nexmark", "q3", "flink"): {"src_auctions": 200_000.0, "src_persons": 40_000.0},
    ("nexmark", "q3", "timely"): {"src_auctions": 5_000_000.0, "src_persons": 5_000_000.0},
    ("nexmark", "q5", "flink"): {"src_bids": 80_000.0},
    ("nexmark", "q5", "timely"): {"src_bids": 10_000_000.0},
    ("nexmark", "q8", "flink"): {"src_auctions": 100_000.0, "src_persons": 60_000.0},
    ("nexmark", "q8", "timely"): {"src_auctions": 4_000_000.0, "src_persons": 4_000_000.0},
    ("pqp", "linear", "flink"): {"src": 5_000.0},
    ("pqp", "2-way-join", "flink"): {"src_left": 500.0, "src_right": 500.0},
    ("pqp", "3-way-join", "flink"): {"src_a": 250.0, "src_b": 250.0, "src_c": 250.0},
}


def rate_units(workload: str, query: str, engine: str) -> dict[str, float]:
    """Look up the Table II rate units for a query on an engine."""
    try:
        return dict(_RATE_UNITS[(workload, query, engine)])
    except KeyError:
        raise KeyError(
            f"no Table II rate units for {workload}/{query} on {engine}"
        ) from None
