"""StreamTune reproduction — adaptive parallelism tuning for stream
processing systems (ICDE 2025).

Public API quick map — start at :mod:`repro.api`, the declarative front
door:

* declare what to tune            — :class:`repro.api.TuningPlan` (one query),
                                    :class:`repro.api.CampaignPlan` (a fleet);
                                    both round-trip through dicts/JSON/TOML
                                    (:func:`repro.api.load_plan`)
* execute a plan                  — :class:`repro.api.TuningSession`
* extend by name                  — the :data:`repro.api.ENGINES` /
                                    :data:`repro.api.TUNERS` /
                                    :data:`repro.api.MODELS` registries

The building blocks underneath (importable directly when you need them):

* dataflows / queries             — :mod:`repro.dataflow`, :mod:`repro.workloads`
* simulated engines               — :mod:`repro.engines`
* histories + pre-training        — :mod:`repro.core`
* online tuning methods           — :mod:`repro.core.tuner`, :mod:`repro.baselines`
* concurrent tuning service       — :mod:`repro.service`
* paper experiments               — :mod:`repro.experiments`

See ``examples/quickstart.py`` for the 60-second tour.
"""

from repro.api import (
    CampaignPlan,
    EventBus,
    SessionResult,
    SweepPlan,
    SweepResult,
    TuningPlan,
    TuningSession,
    load_plan,
)

__version__ = "2.1.0"

__all__ = [
    "CampaignPlan",
    "EventBus",
    "SessionResult",
    "SweepPlan",
    "SweepResult",
    "TuningPlan",
    "TuningSession",
    "__version__",
    "load_plan",
]

