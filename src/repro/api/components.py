"""Built-in component registrations for the three registries.

Everything the repo constructs by name lives here: the simulated engine
clusters, the tuning methods (StreamTune plus every baseline) and the
monotone prediction-layer models — the names a plan's ``engine``,
``tuner`` and ``layer`` fields carry, so an unknown one fails at load
time with the full list of alternatives.  Each entry declares as
:class:`~repro.api.registry.ParamSpec` rows only what a caller sets
(``seed``, and StreamTune's ``model_kind``); a component's other
constructor arguments are the constants its class defaults to.  Query
tokens are not a registry but a fixed grammar, written once in
:func:`parse_query_token`.

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

from repro.api.registry import ENGINES, MODELS, TUNERS, ParamSpec, UnknownComponentError
from repro.baselines.conttune import ContTuneTuner
from repro.baselines.ds2 import DS2Tuner
from repro.baselines.oracle import OracleTuner
from repro.baselines.zerotune import ZeroTuneTuner
from repro.core.tuner import StreamTuneTuner
from repro.engines.faults import FaultInjectingFlink
from repro.engines.flink import FlinkCluster
from repro.engines.paced import PacedFlink
from repro.engines.timely import TimelyCluster
from repro.workloads.nexmark import NEXMARK_QUERY_NAMES, nexmark_query
from repro.workloads.pqp import PQP_TEMPLATES, pqp_queries, pqp_template_size


# ----------------------------------------------------------------------
# engines
# ----------------------------------------------------------------------

# The cluster classes are their own factories: every one takes ``seed=``.
_SEED = (ParamSpec("seed", int, None, help="engine RNG seed (None = unseeded)"),)

ENGINES.register("flink", params=_SEED)(FlinkCluster)
ENGINES.register(
    "flink-faulty", params=_SEED, family="flink", traits=("faults",)
)(FaultInjectingFlink)
ENGINES.register("flink-paced", params=_SEED, family="flink")(PacedFlink)
ENGINES.register("timely", params=_SEED)(TimelyCluster)


def build_engine(name: str, **params):
    """Resolve + construct an engine cluster by registry name."""
    return ENGINES.create(name, **params)


def engine_family(name: str) -> str:
    """The workload family of an engine name.

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
    ZeroTune ``scale.seed + 3``) and ZeroTune's epoch / history-size
    presets.  Factories pull only what they need, so
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

    def require_scale(self, method: str):
        if self.scale is None:
            raise ValueError(
                f"tuner {method!r} takes its seed and presets from an experiment "
                "scale, but these resources supply none"
            )
        return self.scale


@TUNERS.register(
    "streamtune",
    params=(ParamSpec("model_kind", str, "svm", help="prediction-layer model name"),),
)
def _build_streamtune(engine, resources: TunerResources, model_kind="svm"):
    """The paper's system: pre-trained encoder + monotone fine-tuned layer."""
    MODELS.entry(model_kind)  # fail fast with the model alternatives listed
    return StreamTuneTuner(
        engine,
        resources.require_pretrained("streamtune"),
        model_kind=model_kind,
        seed=resources.require_scale("streamtune").seed + 4,
    )


@TUNERS.register("ds2")
def _build_ds2(engine, resources):
    """DS2 rate-based scaling controller (OSDI'18 baseline)."""
    return DS2Tuner(engine)


@TUNERS.register("conttune")
def _build_conttune(engine, resources):
    """ContTune Big-Small GP tuner (VLDB'23 baseline)."""
    return ContTuneTuner(engine)


@TUNERS.register("oracle")
def _build_oracle(engine, resources):
    """Ground-truth optimal parallelism (upper bound, sees the simulator)."""
    return OracleTuner(engine)


@TUNERS.register("zerotune", needs_history=True)
def _build_zerotune(engine, resources: TunerResources):
    """ZeroTune zero-shot cost model (ICDE'24 baseline), at the scale's presets."""
    scale = resources.require_scale("zerotune")
    records = resources.require_history("zerotune", scale.zerotune_history)
    return ZeroTuneTuner(
        engine, records, epochs=scale.zerotune_epochs, seed=scale.seed + 3
    )


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
# query tokens
# ----------------------------------------------------------------------

def parse_query_token(token) -> "tuple[str | None, str | int]":
    """The query-token grammar of plans and the CLI, written once.

    Two spellings: a Nexmark name (``q5``, any case) parses to ``(None,
    name)``, a PQP ``<template>/<index>`` pair (``2-way-join/3``) to
    ``(template, index)``.  Builds nothing, so plan validation calls it
    eagerly.  An unknown name raises
    :class:`~repro.api.registry.UnknownComponentError` listing the
    alternatives; anything else malformed a :class:`ValueError`.
    """
    if not isinstance(token, str) or not token.strip():
        raise ValueError(f"query tokens must be non-empty strings, got {token!r}")
    token = token.strip()
    if "/" not in token:
        if token.lower() not in NEXMARK_QUERY_NAMES:
            raise UnknownComponentError(
                "query token",
                token,
                NEXMARK_QUERY_NAMES + tuple(f"{name}/<index>" for name in PQP_TEMPLATES),
            )
        return None, token.lower()
    template, _, index = token.rpartition("/")
    if template not in PQP_TEMPLATES:
        raise UnknownComponentError("PQP template", template, PQP_TEMPLATES)
    try:
        index = int(index)
    except ValueError:
        raise ValueError(
            f"malformed query token {token!r}: expected '<template>/<index>' "
            "with an integer index"
        ) from None
    size = pqp_template_size(template)
    if not 0 <= index < size:
        raise ValueError(
            f"query token {token!r}: index {index} is out of range, template "
            f"{template!r} has {size} queries (0..{size - 1})"
        )
    return template, index


def resolve_query(token: str, engine: str = "flink"):
    """Build the :class:`StreamingQuery` a CLI/plan query token names
    (:func:`parse_query_token` is the grammar); a Nexmark query binds the
    rate units of ``engine``'s family."""
    template, name_or_index = parse_query_token(token)
    if template is None:
        return nexmark_query(name_or_index, engine_family(engine))
    return pqp_queries(template)[name_or_index]


# ----------------------------------------------------------------------
# prediction models (the monotone fine-tuning layer M_f)
# ----------------------------------------------------------------------

_MODEL_SEED = ParamSpec("seed", int, 11, help="model RNG seed")


@MODELS.register("svm", params=(_MODEL_SEED,))
def _build_svm(seed=11):
    """Monotonic SVM over random Fourier features (the paper's M_f)."""
    from repro.models.svm import MonotonicSVM

    return MonotonicSVM(seed=seed)


@MODELS.register("xgboost", params=(_MODEL_SEED,))
def _build_gbdt(seed=11):
    """Gradient-boosted trees with a monotone constraint on p (no RNG, so
    the seed has nothing to draw)."""
    from repro.models.gbdt import MonotonicGBDT

    return MonotonicGBDT()


@MODELS.register("isotonic", params=(_MODEL_SEED,))
def _build_isotonic(seed=11):
    """k-NN probabilities made monotone by isotonic regression."""
    from repro.models.isotonic import IsotonicKNN

    return IsotonicKNN(seed=seed)


@MODELS.register("nn", params=(_MODEL_SEED,))
def _build_mlp(seed=11):
    """Plain MLP without the monotone constraint (Fig. 11a ablation)."""
    from repro.models.mlp import MLPClassifier

    return MLPClassifier(seed=seed)

