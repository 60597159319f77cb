"""Campaign scheduling for the tuning service.

A service run receives many ``(query, rate-trace)`` campaigns at once.
Workers are a scarce resource, so ordering matters: a query already
drowning in backpressure bleeds SLO for every second it waits, while an
over-provisioned query merely wastes cores.  The scheduler probes each
campaign's *initial* deployment at its first target rates (on a throwaway
engine, so campaign execution RNG streams are untouched) and dispatches
backpressured campaigns first, hottest ones leading.

Priorities only reorder dispatch — per-campaign results are independent of
execution order (each campaign owns its engine and tuner; shared caches
return bit-identical values regardless of which worker filled them), so
scheduling stays a pure latency decision.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engines.base import EngineCluster
from repro.workloads.query import StreamingQuery


@dataclass(frozen=True)
class CampaignSpec:
    """One tuning campaign: a query driven through a source-rate trace."""

    query: StreamingQuery
    multipliers: tuple[float, ...]
    engine: str = "flink"
    engine_seed: int = 20250711
    seed: int = 17
    #: Tuning method by registry name.  ``streamtune`` (the default) runs
    #: the paper's system through the shared caches; any other registered
    #: method that needs no execution history (ds2, conttune, oracle) is
    #: built per campaign from the registry.
    tuner: str = "streamtune"
    #: StreamTune's prediction layer by registry name (a plan's ``layer``).
    model_kind: str = "svm"
    #: Optional :class:`~repro.scenarios.ChaosSpec` executed alongside
    #: the campaign (``None`` = clean run).  Frozen and hashable, so it
    #: participates in spec identity.
    chaos: object = None

    def __post_init__(self) -> None:
        if not self.multipliers:
            raise ValueError(f"{self.query.name}: campaign needs >= 1 multiplier")

    @property
    def is_streamtune(self) -> bool:
        return self.tuner == "streamtune"

    @property
    def layer(self) -> "str | None":
        """The prediction layer this campaign tunes with: ``model_kind``
        for StreamTune, ``None`` for the baselines, which carry no model."""
        return self.model_kind if self.is_streamtune else None

    @property
    def name(self) -> str:
        return self.query.name

    @property
    def cell_key(self) -> str:
        """Deterministic campaign identity stamped on this campaign's
        events; a resumed run matches recorded campaigns by this key."""
        from repro.api.events import campaign_cell_key

        return campaign_cell_key(
            self.query.name,
            self.engine,
            self.tuner,
            self.multipliers,
            self.seed,
            # The prediction layer changes streamtune results, so it is
            # part of their identity; baseline keys stay layer-free.
            layer=self.layer,
            engine_seed=self.engine_seed,
            chaos=self.chaos.label() if self.chaos is not None else None,
        )

    def make_engine(self) -> EngineCluster:
        # Resolved through the engine registry (imported lazily: the
        # registry population should happen on first use, not at import).
        from repro.api.components import build_engine

        return build_engine(self.engine, seed=self.engine_seed)


@dataclass(frozen=True)
class CampaignPriority:
    """Probe outcome for one campaign (larger sorts earlier)."""

    backpressured: bool
    severity: float          # peak operator busy share at the initial deployment
    name: str                # deterministic tie-break

    @property
    def sort_key(self) -> tuple:
        return (self.backpressured, self.severity, self.name)


class BackpressureScheduler:
    """Order campaigns so backpressured queries are tuned first."""

    def probe(self, spec: CampaignSpec) -> CampaignPriority:
        """Deploy the campaign's starting point once and observe it.

        Uses a dedicated engine instance seeded like the campaign's, so the
        campaign's own measurement noise stream is not consumed; the single
        probe measurement costs milliseconds against a campaign of many
        model fits.
        """
        engine = spec.make_engine()
        flow = spec.query.flow
        deployment = engine.deploy(
            flow,
            dict.fromkeys(flow.operator_names, 1),
            spec.query.rates_at(spec.multipliers[0]),
        )
        telemetry = engine.measure(deployment)
        severity = max(
            (m.busy_ms_per_second / 1000.0 for m in telemetry.operators.values()),
            default=0.0,
        )
        engine.stop(deployment)
        return CampaignPriority(
            backpressured=telemetry.has_backpressure,
            severity=float(severity),
            name=spec.name,
        )

    def order(self, specs: list[CampaignSpec]) -> list[int]:
        """Indices of ``specs`` in dispatch order (most urgent first)."""
        priorities = [self.probe(spec) for spec in specs]
        return sorted(
            range(len(specs)),
            key=lambda index: priorities[index].sort_key,
            reverse=True,
        )
