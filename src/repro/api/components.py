"""Built-in component registrations for the four registries.

Everything the repo can construct by name lives here: the simulated
engine clusters, the tuning methods (StreamTune plus every baseline),
the workload families, and the monotone prediction-layer models.  Each
entry declares its parameter surface as :class:`~repro.api.registry.ParamSpec`
rows, so a plan file (or a CLI flag) is validated before anything is
built and an unknown name fails with the full list of alternatives.

Tuner factories receive ``(engine, resources, **params)``:``resources``
is a :class:`TunerResources` that lazily supplies the shared artifacts a
method may need — the pre-trained StreamTune model, slices of the
execution history, and the experiment scale whose seed conventions the
legacy ``make_tuner`` ladder encoded.  Methods that need none of it
(DS2, ContTune, Oracle) simply ignore the argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.api.registry import ENGINES, MODELS, TUNERS, WORKLOADS, ParamSpec, REQUIRED
from repro.baselines.conttune import ContTuneTuner
from repro.baselines.ds2 import DS2Tuner
from repro.baselines.oracle import OracleTuner
from repro.baselines.zerotune import ZeroTuneTuner
from repro.core.tuner import StreamTuneTuner
from repro.engines.faults import FaultInjectingFlink
from repro.engines.flink import FlinkCluster
from repro.engines.paced import DEFAULT_TELEMETRY_SECONDS, PacedFlink
from repro.engines.scheduler import SchedulingAwareTimely
from repro.engines.timely import TimelyCluster
from repro.workloads.nexmark import NEXMARK_QUERY_NAMES, nexmark_query
from repro.workloads.pqp import PQP_TEMPLATES, pqp_queries


# ----------------------------------------------------------------------
# engines
# ----------------------------------------------------------------------

_SEED = ParamSpec("seed", int, None, help="engine RNG seed (None = unseeded)")
_NOISE = ParamSpec("noise_std", float, None, help="measurement noise std fraction")


def _flink_kwargs(seed, task_managers, slots_per_task_manager, noise_std) -> dict:
    kwargs = {"seed": seed}
    if task_managers is not None:
        kwargs["task_managers"] = task_managers
    if slots_per_task_manager is not None:
        kwargs["slots_per_task_manager"] = slots_per_task_manager
    if noise_std is not None:
        kwargs["noise_std"] = noise_std
    return kwargs


@ENGINES.register(
    "flink",
    params=(
        _SEED,
        ParamSpec("task_managers", int, None, help="TaskManagers in the cluster"),
        ParamSpec("slots_per_task_manager", int, None, help="slots per TaskManager"),
        _NOISE,
    ),
)
def _build_flink(
    seed=None, task_managers=None, slots_per_task_manager=None, noise_std=None
):
    """Simulated Apache Flink cluster (50 TaskManagers x 2 slots)."""
    return FlinkCluster(**_flink_kwargs(seed, task_managers, slots_per_task_manager, noise_std))


@ENGINES.register(
    "flink-faulty",
    aliases=("faulty-flink",),
    family="flink",
    traits=("faults",),
    params=(
        _SEED,
        ParamSpec("task_managers", int, None),
        ParamSpec("slots_per_task_manager", int, None),
        _NOISE,
    ),
)
def _build_faulty_flink(
    seed=None, task_managers=None, slots_per_task_manager=None, noise_std=None
):
    """Flink cluster whose operator instances can be failed and healed."""
    return FaultInjectingFlink(
        **_flink_kwargs(seed, task_managers, slots_per_task_manager, noise_std)
    )


@ENGINES.register(
    "flink-paced",
    aliases=("paced-flink",),
    family="flink",
    traits=("paced",),
    params=(
        _SEED,
        ParamSpec("task_managers", int, None),
        ParamSpec("slots_per_task_manager", int, None),
        _NOISE,
        ParamSpec(
            "telemetry_seconds",
            float,
            DEFAULT_TELEMETRY_SECONDS,
            help="wall-clock metric-window latency per measurement",
        ),
    ),
)
def _build_paced_flink(
    seed=None,
    task_managers=None,
    slots_per_task_manager=None,
    noise_std=None,
    telemetry_seconds=DEFAULT_TELEMETRY_SECONDS,
):
    """Flink whose telemetry costs wall-clock time (bit-identical results)."""
    return PacedFlink(
        telemetry_seconds=telemetry_seconds,
        **_flink_kwargs(seed, task_managers, slots_per_task_manager, noise_std),
    )


def _timely_kwargs(seed, workers, max_parallelism, noise_std) -> dict:
    kwargs = {"seed": seed}
    if workers is not None:
        kwargs["workers"] = workers
    if max_parallelism is not None:
        kwargs["max_parallelism"] = max_parallelism
    if noise_std is not None:
        kwargs["noise_std"] = noise_std
    return kwargs


@ENGINES.register(
    "timely",
    params=(
        _SEED,
        ParamSpec("workers", int, None, help="Timely worker threads"),
        ParamSpec("max_parallelism", int, None, help="per-operator degree ceiling"),
        _NOISE,
    ),
)
def _build_timely(seed=None, workers=None, max_parallelism=None, noise_std=None):
    """Simulated Timely Dataflow deployment (ten workers)."""
    return TimelyCluster(**_timely_kwargs(seed, workers, max_parallelism, noise_std))


@ENGINES.register(
    "timely-scheduled",
    aliases=("scheduling-timely",),
    family="timely",
    params=(
        _SEED,
        ParamSpec("workers", int, None),
        ParamSpec("max_parallelism", int, None),
        _NOISE,
        ParamSpec(
            "strategy",
            str,
            "spread",
            help="task placement strategy",
            choices=("spread", "pack"),
        ),
    ),
)
def _build_timely_scheduled(
    seed=None, workers=None, max_parallelism=None, noise_std=None, strategy="spread"
):
    """Timely cluster whose processing ability reflects task placement."""
    return SchedulingAwareTimely(
        strategy=strategy, **_timely_kwargs(seed, workers, max_parallelism, noise_std)
    )


def build_engine(name: str, **params):
    """Resolve + construct an engine cluster by registry name."""
    return ENGINES.create(name, **params)


def engine_family(name: str) -> str:
    """The workload family of an engine name (aliases resolved).

    Each engine variant declares the base engine whose Table II rate
    units, query corpus and pretrained artifacts it serves via its
    registry entry's ``family`` attribute — a new variant registered
    with ``family="flink"`` is covered with no map to update.  Engines
    that declare no family (third-party or base engines) are their own.
    """
    entry = ENGINES.entry(name)
    return entry.family or entry.name


# ----------------------------------------------------------------------
# tuners
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TunerResources:
    """Lazy artifact access handed to tuner factories.

    ``pretrained`` returns the shared :class:`PretrainedStreamTune`
    artifact; ``history`` returns the first ``n`` execution records;
    ``scale`` carries the experiment preset whose seed offsets the
    legacy construction ladder hard-coded (StreamTune ``scale.seed + 4``,
    ZeroTune ``scale.seed + 3``).  Factories pull only what they need, so
    building a DS2 baseline never triggers a pre-training run.
    """

    scale: object = None
    pretrained: Callable[[], object] | None = None
    history: Callable[[int], list] | None = None

    def require_pretrained(self, method: str):
        if self.pretrained is None:
            raise ValueError(
                f"tuner {method!r} needs a pre-trained StreamTune artifact, but "
                "these resources supply none (pass `pretrained=` or a model path)"
            )
        return self.pretrained()

    def require_history(self, method: str, limit: int) -> list:
        if self.history is None:
            raise ValueError(
                f"tuner {method!r} needs an execution history, but these "
                "resources supply none"
            )
        return self.history(limit)

    def _scale_attr(self, attribute: str, fallback):
        if self.scale is None:
            return fallback
        return getattr(self.scale, attribute)


@TUNERS.register(
    "streamtune",
    params=(
        ParamSpec("model_kind", str, "svm", help="prediction-layer model name"),
        ParamSpec("seed", int, None, help="tuner seed (None = scale.seed + 4)"),
        ParamSpec("max_iterations", int, None),
        ParamSpec("warmup_rows", int, None),
    ),
    allow_extra=True,
)
def _build_streamtune(
    engine, resources: TunerResources, model_kind="svm", seed=None,
    max_iterations=None, warmup_rows=None, **overrides
):
    """The paper's system: pre-trained encoder + monotone fine-tuned layer."""
    MODELS.entry(model_kind)  # fail fast with the model alternatives listed
    kwargs = dict(overrides)
    if max_iterations is not None:
        kwargs["max_iterations"] = max_iterations
    if warmup_rows is not None:
        kwargs["warmup_rows"] = warmup_rows
    if seed is None:
        seed = resources._scale_attr("seed", 20250711) + 4
    return StreamTuneTuner(
        engine,
        resources.require_pretrained("streamtune"),
        model_kind=model_kind,
        seed=seed,
        **kwargs,
    )


@TUNERS.register(
    "ds2", params=(ParamSpec("max_iterations", int, None),)
)
def _build_ds2(engine, resources=None, max_iterations=None):
    """DS2 rate-based scaling controller (OSDI'18 baseline)."""
    del resources
    if max_iterations is None:
        return DS2Tuner(engine)
    return DS2Tuner(engine, max_iterations=max_iterations)


@TUNERS.register(
    "conttune",
    params=(
        ParamSpec("alpha", float, None, help="GP exploration padding"),
        ParamSpec("max_iterations", int, None),
    ),
)
def _build_conttune(engine, resources=None, alpha=None, max_iterations=None):
    """ContTune Big-Small GP tuner (VLDB'23 baseline)."""
    del resources
    kwargs = {}
    if alpha is not None:
        kwargs["alpha"] = alpha
    if max_iterations is not None:
        kwargs["max_iterations"] = max_iterations
    return ContTuneTuner(engine, **kwargs)


@TUNERS.register("oracle")
def _build_oracle(engine, resources=None):
    """Ground-truth optimal parallelism (upper bound, sees the simulator)."""
    del resources
    return OracleTuner(engine)


@TUNERS.register(
    "zerotune",
    needs_history=True,
    params=(
        ParamSpec("epochs", int, None, help="cost-model epochs (None = scale preset)"),
        ParamSpec("n_history", int, None, help="history records (None = scale preset)"),
        ParamSpec("seed", int, None, help="tuner seed (None = scale.seed + 3)"),
    ),
)
def _build_zerotune(engine, resources: TunerResources, epochs=None, n_history=None, seed=None):
    """ZeroTune zero-shot cost model (ICDE'24 baseline)."""
    if epochs is None:
        epochs = resources._scale_attr("zerotune_epochs", 8)
    if n_history is None:
        n_history = resources._scale_attr("zerotune_history", 1200)
    if seed is None:
        seed = resources._scale_attr("seed", 20250711) + 3
    records = resources.require_history("zerotune", n_history)
    return ZeroTuneTuner(engine, records, epochs=epochs, seed=seed)


def streamtune_variant(method: str) -> "tuple[bool, str | None]":
    """Parse a tuner name's StreamTune spelling, case-insensitively.

    The single source of truth for the naming convention: returns
    ``(True, None)`` for the plain name, ``(True, '<model>')`` for the
    legacy ``streamtune-<model>`` ablation spelling (suffix
    lower-cased), and ``(False, None)`` for every other method — including
    names that merely *start* with "streamtune" ("streamtune2" is not a
    StreamTune variant).
    """
    base, _, suffix = method.partition("-")
    if base.lower() != "streamtune":
        return False, None
    return True, (suffix.lower() or None)


def build_tuner(method: str, engine, resources: TunerResources | None = None, **params):
    """Resolve + construct a tuning method bound to ``engine``.

    ``method`` accepts the legacy ``StreamTune-<model>`` spelling for the
    Fig. 11a prediction-layer ablation; the suffix becomes the
    ``model_kind`` parameter.
    """
    key = method.lower()
    is_streamtune, model_suffix = streamtune_variant(method)
    if is_streamtune and model_suffix is not None:
        params.setdefault("model_kind", model_suffix)
        key = "streamtune"
    return TUNERS.create(key, engine, resources or TunerResources(), **params)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

@WORKLOADS.register(
    "nexmark",
    params=(
        ParamSpec("name", str, REQUIRED, help="query name, q1..q8", choices=NEXMARK_QUERY_NAMES),
        ParamSpec("engine", str, "flink", help="engine whose rate units to bind"),
    ),
)
def _build_nexmark(name, engine="flink"):
    """Nexmark benchmark queries bound to Table II rate units."""
    return nexmark_query(name, engine)


@WORKLOADS.register(
    "pqp",
    params=(
        ParamSpec("template", str, REQUIRED, help="PQP template", choices=PQP_TEMPLATES),
        ParamSpec("index", int, 0, help="query index within the template"),
    ),
)
def _build_pqp(template, index=0):
    """ZeroTune's parallel-query-plan synthetic workload (Flink only)."""
    queries = pqp_queries(template)
    if not 0 <= index < len(queries):
        raise ValueError(
            f"workload 'pqp': template {template!r} has {len(queries)} queries, "
            f"index {index} is out of range"
        )
    return queries[index]


def resolve_query(token: str, engine: str = "flink"):
    """Resolve a CLI/plan query token into a :class:`StreamingQuery`.

    Two spellings, matching the original CLI: a Nexmark name (``q5``) or
    a PQP ``<template>/<index>`` pair (``2-way-join/3``).  Unknown names
    raise :class:`~repro.api.registry.UnknownComponentError` listing the
    alternatives.
    """
    token = token.strip()
    if "/" in token:
        template, _, index = token.rpartition("/")
        try:
            index_value = int(index)
        except ValueError:
            raise ValueError(
                f"malformed PQP query token {token!r}: expected '<template>/<index>' "
                f"with an integer index (templates: {', '.join(PQP_TEMPLATES)})"
            ) from None
        return WORKLOADS.create("pqp", template=template, index=index_value)
    return WORKLOADS.create("nexmark", name=token.lower(), engine=engine_family(engine))


# ----------------------------------------------------------------------
# prediction models (the monotone fine-tuning layer M_f)
# ----------------------------------------------------------------------

_MODEL_SEED = ParamSpec("seed", int, 11, help="model RNG seed")


@MODELS.register("svm", params=(_MODEL_SEED,))
def _build_svm(seed=11):
    """Monotonic SVM over random Fourier features (the paper's M_f)."""
    from repro.models.svm import MonotonicSVM

    return MonotonicSVM(seed=seed)


@MODELS.register("xgboost", aliases=("gbdt",), params=(_MODEL_SEED,))
def _build_gbdt(seed=11):
    """Gradient-boosted trees with a monotone constraint on p."""
    from repro.models.gbdt import MonotonicGBDT

    return MonotonicGBDT(seed=seed)


@MODELS.register("isotonic", aliases=("knn",), params=(_MODEL_SEED,))
def _build_isotonic(seed=11):
    """k-NN probabilities made monotone by isotonic regression."""
    from repro.models.isotonic import IsotonicKNN

    return IsotonicKNN(seed=seed)


@MODELS.register("nn", aliases=("mlp",), params=(_MODEL_SEED,))
def _build_mlp(seed=11):
    """Plain MLP without the monotone constraint (Fig. 11a ablation)."""
    from repro.models.mlp import MLPClassifier

    return MLPClassifier(seed=seed)

