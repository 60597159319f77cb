"""Shared utilities: randomness, timing, tables, and retry/backoff."""

from repro.utils.rng import seeded_rng
from repro.utils.timer import Timer
from repro.utils.tables import format_table
from repro.utils.retry import backoff_delays, with_retries

__all__ = [
    "seeded_rng",
    "Timer",
    "format_table",
    "backoff_delays",
    "with_retries",
]
