"""Experiment scale presets.

The paper's campaigns are long (120 source-rate changes per query, up to
15k pre-training DAGs).  The harness reproduces shape, not wall-clock, so
each experiment accepts an :class:`ExperimentScale`:

* ``smoke``   — seconds per campaign; what CI's ``paper-claims`` job runs,
* ``default`` — minutes on a laptop,
* ``paper``   — the §V-A numbers (hours in this simulator).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

_ENV_VAR = "REPRO_SCALE"


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs shared by all experiments."""

    name: str
    n_history_records: int        # pre-training dataset size
    gnn_epochs: int               # per-cluster encoder training epochs
    n_clusters: int | None        # None = elbow method
    n_permutations: int           # rate pattern: 20 changes per permutation
    n_rate_changes: int           # campaign length (<= 20 * n_permutations)
    queries_per_template: int     # PQP queries evaluated per template
    n_latency_epochs: int         # Timely per-epoch latency samples
    zerotune_epochs: int          # ZeroTune cost-model training epochs
    zerotune_history: int         # records for ZeroTune's cost model
    seed: int = 20250711

    def __post_init__(self) -> None:
        if self.n_history_records < 10:
            raise ValueError("n_history_records must be >= 10")
        if self.n_permutations < 1:
            raise ValueError("n_permutations must be >= 1")
        if not 1 <= self.n_rate_changes <= 20 * self.n_permutations:
            raise ValueError("n_rate_changes must fit inside the pattern")


SMOKE = ExperimentScale(
    name="smoke",
    n_history_records=2500,
    gnn_epochs=25,
    n_clusters=3,
    n_permutations=1,
    n_rate_changes=8,
    queries_per_template=1,
    n_latency_epochs=60,
    zerotune_epochs=4,
    zerotune_history=250,
)

DEFAULT = ExperimentScale(
    name="default",
    n_history_records=6000,
    gnn_epochs=40,
    n_clusters=4,
    n_permutations=1,
    n_rate_changes=20,
    queries_per_template=2,
    n_latency_epochs=200,
    zerotune_epochs=8,
    zerotune_history=1200,
)

PAPER = ExperimentScale(
    name="paper",
    n_history_records=15000,
    gnn_epochs=60,
    n_clusters=None,
    n_permutations=6,
    n_rate_changes=120,
    queries_per_template=8,
    n_latency_epochs=500,
    zerotune_epochs=15,
    zerotune_history=4000,
)

_PRESETS = {scale.name: scale for scale in (SMOKE, DEFAULT, PAPER)}


def resolve_scale(name: str | None = None) -> ExperimentScale:
    """Resolve a preset by name, falling back to ``$REPRO_SCALE``/default."""
    if name is None:
        name = os.environ.get(_ENV_VAR, "default")
    key = name.lower()
    if key not in _PRESETS:
        raise KeyError(f"unknown scale {name!r}; have {sorted(_PRESETS)}")
    return _PRESETS[key]
