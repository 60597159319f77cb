"""Shared fixtures: small dataflows, engines, and a tiny pre-trained model.

Expensive artifacts (history, pre-training) are session-scoped and sized
for speed; correctness-critical behaviour is exercised by the unit tests,
while these fixtures support integration tests.

Isolation: the suite must pass under ``-p no:randomly`` (any collection
order) and under ``-n auto``-style parallel collection.  Two module-level
singletons could leak state between tests — ``repro.experiments.context``'s
artifact cache and the ``REPRO_SCALE`` environment variable — so autouse
fixtures below restore both around every test.  Legitimate artifact cache
entries (keyed by ``(kind, engine, scale, ...)`` tuples) are deliberately
*kept* across tests: they are deterministic pure values shared for speed,
and each ``-n`` worker process builds its own copy.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.core import HistoryGenerator, pretrain
from repro.dataflow.graph import LogicalDataflow
from repro.dataflow.operators import (
    AggregateFunction,
    KeyClass,
    OperatorSpec,
    OperatorType,
    WindowPolicy,
    WindowType,
)
from repro.engines import FlinkCluster, TimelyCluster
from repro.workloads import nexmark_queries, pqp_query_set


def build_linear_flow(name: str = "linear_flow", selectivity: float = 0.5) -> LogicalDataflow:
    """source -> filter -> sink."""
    flow = LogicalDataflow(name)
    flow.chain(
        OperatorSpec(name="src", op_type=OperatorType.SOURCE),
        OperatorSpec(name="filter", op_type=OperatorType.FILTER, selectivity=selectivity),
        OperatorSpec(name="sink", op_type=OperatorType.SINK),
    )
    flow.validate()
    return flow


def build_diamond_flow(name: str = "diamond_flow") -> LogicalDataflow:
    """source fans out to two filters that join back (Fig. 3 shape)."""
    flow = LogicalDataflow(name)
    src = flow.add_operator(OperatorSpec(name="src", op_type=OperatorType.SOURCE))
    left = flow.add_operator(
        OperatorSpec(name="left", op_type=OperatorType.FILTER, selectivity=0.6)
    )
    right = flow.add_operator(
        OperatorSpec(name="right", op_type=OperatorType.FILTER, selectivity=0.4)
    )
    join = flow.add_operator(
        OperatorSpec(
            name="join",
            op_type=OperatorType.JOIN,
            join_key_class=KeyClass.INT,
            selectivity=0.5,
        )
    )
    sink = flow.add_operator(OperatorSpec(name="sink", op_type=OperatorType.SINK))
    flow.connect(src, left)
    flow.connect(src, right)
    flow.connect(left, join)
    flow.connect(right, join)
    flow.connect(join, sink)
    flow.validate()
    return flow


def build_window_flow(name: str = "window_flow") -> LogicalDataflow:
    """source -> sliding window aggregate -> sink."""
    flow = LogicalDataflow(name)
    flow.chain(
        OperatorSpec(name="src", op_type=OperatorType.SOURCE),
        OperatorSpec(
            name="window",
            op_type=OperatorType.WINDOW_AGGREGATE,
            window_type=WindowType.SLIDING,
            window_policy=WindowPolicy.TIME,
            window_length=60.0,
            sliding_length=12.0,
            aggregate_class=KeyClass.INT,
            aggregate_key_class=KeyClass.LONG,
            aggregate_function=AggregateFunction.SUM,
            selectivity=0.25,
        ),
        OperatorSpec(name="sink", op_type=OperatorType.SINK),
    )
    flow.validate()
    return flow


def feature_dimension(encoder) -> int:
    """The length of ``encoder``'s feature vector, counted block by block:
    categorical one-hots (the semantic encoder swaps the operator-type
    block for its property vector), four numeric features, and the source
    rate with its sinusoids."""
    from repro.dataflow.embeddings import PROPERTY_DIMENSION, SemanticFeatureEncoder
    from repro.dataflow.features import RATE_ENCODING_FREQUENCIES

    operator_block = len(encoder._OPERATOR_TYPES)
    if isinstance(encoder, SemanticFeatureEncoder):
        operator_block = PROPERTY_DIMENSION
    categorical = (
        operator_block
        + len(encoder._WINDOW_TYPES)
        + len(encoder._WINDOW_POLICIES)
        + 3 * len(encoder._KEY_CLASSES)     # join key, aggregate class, aggregate key
        + len(encoder._AGG_FUNCTIONS)
        + len(encoder._DATA_TYPES)
    )
    return categorical + 4 + 1 + 2 * len(RATE_ENCODING_FREQUENCIES)


def check_monotonicity(model, base_features, parallelism_grid=None, tolerance=1e-9):
    """Probe ``model`` for violations of the monotonic constraint: sweep
    each row's last (parallelism) feature over the grid (21 points of
    [0, 1] by default) and count increases of the predicted bottleneck
    probability."""
    grid = np.linspace(0.0, 1.0, 21) if parallelism_grid is None else parallelism_grid
    n_probes = n_violations = 0
    for row in base_features:
        swept = np.tile(row, (len(grid), 1))
        swept[:, -1] = grid
        deltas = np.diff(model.predict_proba(swept))
        n_probes += len(deltas)
        n_violations += int((deltas > tolerance).sum())
    return MonotonicityReport(n_probes, n_violations)


@dataclass(frozen=True)
class MonotonicityReport:
    n_probes: int
    n_violations: int

    @property
    def is_monotone(self) -> bool:
        return self.n_violations == 0


def strict_min_feasible_parallelism(model, embedding, norms, probability_threshold):
    """:func:`repro.models.search.min_feasible_parallelism` at
    ``probability_threshold``, after checking that its bottleneck verdict
    (probability at or above the threshold) is monotone along the
    parallelism axis: raises :class:`ValueError` when a bottleneck verdict
    reappears after a non-bottleneck one, instead of returning
    bisection's answer."""
    from repro.models.search import min_feasible_parallelism

    rows = np.empty((len(norms), len(embedding) + 1))
    rows[:, :-1] = embedding
    rows[:, -1] = norms
    bottleneck = model.predict_proba(rows) >= probability_threshold
    if np.any(bottleneck[1:] & ~bottleneck[:-1]):
        raise ValueError(
            "model is not monotone along the parallelism axis: a bottleneck "
            "verdict reappears after a non-bottleneck one"
        )
    return min_feasible_parallelism(model, embedding, norms, probability_threshold)


def save_plan(plan, path) -> None:
    """Write a plan to ``.json`` or ``.toml`` — the files ``load_plan``
    reads (``None`` fields are omitted from TOML)."""
    path = Path(path)
    if path.suffix == ".json":
        path.write_text(json.dumps(plan.to_dict(), indent=2) + "\n")
        return
    lines = [
        f"{key} = {_toml_value(value)}"
        for key, value in plan.to_dict().items()
        if value is not None
    ]
    path.write_text("\n".join(lines) + "\n")


def run_campaigns(service, specs, resume=None) -> list:
    """Every spec's ``CampaignResult``, in spec order, from
    ``service.stream(specs, resume=resume)``; a failed campaign fails the
    test with its traceback."""
    events = list(service.stream(specs, resume=resume))
    failed = [event for event in events if event.kind == "CampaignFailed"]
    assert not failed, failed[0].traceback
    finished = {
        event.index: event.result
        for event in events if event.kind == "CampaignFinished"
    }
    return [finished[index] for index in range(len(specs))]


def resume_log_of(recorded):
    """A :class:`~repro.api.resume.ResumeLog` holding one finished event
    per ``(spec, outcome)`` pair — what a ``--record`` log of those
    campaigns parses to."""
    from repro.api.events import campaign_finished
    from repro.api.resume import ResumeLog

    return ResumeLog("recorded.jsonl", [
        campaign_finished(spec.name, index, "sequential", outcome, spec.cell_key)
        for index, (spec, outcome) in enumerate(recorded)
    ])


def cached_entry(caches, kind: str, key):
    """The entry ``caches`` holds under ``kind``/``key``; a miss fails the
    test instead of computing anything."""
    def missed():
        raise AssertionError(f"no {kind} entry cached under {key!r}")

    return caches.get_or_compute(kind, key, missed)


def rows_from_record(pretrained, encoder, record):
    """One record's M_f training rows (labelled operators only), encoded
    on its own — the per-record reference for the batched warm-up."""
    from repro.core.finetune import _labelled_rows

    sample = pretrained.sample_for(record)
    embeddings = encoder.encode(sample, parallelism_aware=False)
    return _labelled_rows(pretrained, record, sample, embeddings)


class ReferenceAdam:
    """Adam updated one array at a time, in the operation order the
    whole-buffer :class:`repro.gnn.optim.Adam` must reproduce bit for bit.
    Works on plain arrays, updated in place."""

    def __init__(self, values, learning_rate, weight_decay=0.0,
                 beta1=0.9, beta2=0.999, epsilon=1e-8):
        self.values = values
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self._step = 0
        self._m = [np.zeros_like(v) for v in values]
        self._v = [np.zeros_like(v) for v in values]

    def step(self, grads) -> None:
        self._step += 1
        bias1 = 1.0 - self.beta1 ** self._step
        bias2 = 1.0 - self.beta2 ** self._step
        for i, (value, grad) in enumerate(zip(self.values, grads)):
            if self.weight_decay > 0:
                value *= 1.0 - self.learning_rate * self.weight_decay
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * grad * grad
            m_hat = self._m[i] / bias1
            v_hat = self._v[i] / bias2
            value -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)


def masked_sigmoid(z):
    """The logistic function evaluated branch by branch on boolean masks:
    the form :func:`repro.gnn.loss.sigmoid` must reproduce byte for byte."""
    out = np.empty_like(z, dtype=np.float64)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    expz = np.exp(z[~positive])
    out[~positive] = expz / (1.0 + expz)
    return out


def svm_projected_gradient(model, features, labels, sample_weight=None):
    """The largest projected-gradient entry of Eq. 5's primal at a fitted
    :class:`repro.models.MonotonicSVM`'s ``solution_theta``, computed the
    straightforward way: every row lifted, its objective written out, the
    ``w_p <= 0`` bound applied.  0 exactly at the optimum."""
    from repro.models import svm

    dim = svm.N_FOURIER_FEATURES
    features = np.asarray(features, dtype=np.float64)
    counts = np.ones(len(labels)) if sample_weight is None else np.asarray(sample_weight, float)
    lifted = model._lift((features[:, :-1] - model._feature_mean) / model._feature_scale)
    theta = model.solution_theta
    y = 2.0 * np.asarray(labels, float) - 1.0
    n = counts.sum()
    weight = counts * np.where(
        y > 0, n / (2.0 * max(1.0, counts[y > 0].sum())),
        n / (2.0 * max(1.0, counts[y < 0].sum())),
    )
    scores = lifted @ theta[:dim] + theta[dim] * features[:, -1] + theta[dim + 1]
    hinge = np.maximum(1.0 - y * scores, 0.0)
    coeff = -2.0 * weight * hinge * y / n
    lam = 1.0 / (svm.C * n)
    grad = np.concatenate([
        lam * theta[:dim] + coeff @ lifted,
        [lam * theta[dim] + coeff @ features[:, -1], coeff.sum()],
    ])
    assert theta[dim] <= 0.0
    if theta[dim] == 0.0:
        grad[dim] = max(grad[dim], 0.0)
    return float(np.abs(grad).max())


def reference_fit_platt(self, margins, labels, counts):
    """``MonotonicSVM._fit_platt`` as one allocating expression per step,
    through :func:`repro.gnn.loss.sigmoid`: the arithmetic the buffered
    loop must reproduce byte for byte."""
    from repro.gnn.loss import sigmoid

    n = float(counts.sum())
    a, b0 = 1.0, 0.0
    for _ in range(120):
        residual = sigmoid(a * margins + b0) - labels
        residual *= counts
        grad_a = float((residual * margins).sum()) / n
        grad_b = float(residual.sum()) / n
        a -= 0.5 * grad_a
        b0 -= 0.5 * grad_b
        a = max(a, 1e-2)
    self._platt_scale = a
    self._platt_offset = b0


def reference_newton_step(problem, grad, active, pinned):
    """``models.svm._newton_step`` grouping the active rows by embedding
    with ``np.unique`` instead of a run-boundary ``cumsum``; the same step
    byte for byte."""
    from repro.models import svm

    lifted, inverse, parallelism, _, cost, lam = problem
    dim = lifted.shape[1]
    rows = np.flatnonzero(active)
    step = np.zeros(dim + 2)
    if len(rows) == 0:
        step[:dim + 1] = -grad[:dim + 1] / lam
    elif len(rows) > svm.DUAL_ROWS:
        curvature = np.where(active, 2.0 * cost, 0.0)
        tail = np.stack((parallelism, np.ones(len(parallelism))))
        sums = np.stack([np.bincount(inverse, curvature * column, len(lifted)) for column in tail])
        hessian = np.empty((dim + 2, dim + 2))
        hessian[:dim, :dim] = (lifted.T * sums[1]) @ lifted
        hessian[:dim, dim:] = lifted.T @ sums.T
        hessian[dim:, :dim] = hessian[:dim, dim:].T
        hessian[dim:, dim:] = (tail * curvature) @ tail.T
        hessian[np.arange(dim + 1), np.arange(dim + 1)] += lam
        free = np.arange(dim + 2) != dim if pinned else np.ones(dim + 2, bool)
        step[free] = -np.linalg.solve(hessian[np.ix_(free, free)], grad[free])
    else:
        embeddings, local = np.unique(inverse[rows], return_inverse=True)
        sub = lifted[embeddings]
        p = parallelism[rows] if not pinned else np.zeros(len(rows))
        k = len(rows)
        system = np.zeros((k + 1, k + 1))
        system[:k, :k] = (sub @ sub.T)[np.ix_(local, local)] + np.outer(p, p)
        system[np.arange(k), np.arange(k)] += lam / (2.0 * cost[rows])
        system[k, :k] = system[:k, k] = 1.0
        rhs = np.append((sub @ grad[:dim])[local] + p * grad[dim], grad[dim + 1])
        u = np.linalg.solve(system, -rhs)
        step[:dim] = -(grad[:dim] + np.bincount(local, u[:k], len(embeddings)) @ sub) / lam
        step[dim] = -(grad[dim] + u[:k] @ p) / lam if not pinned else 0.0
        step[dim + 1] = -u[k] / lam
    return step


def reference_t_assembly(operating_point, feedback, warmup, prior_weight, observed_weight):
    """The tuner's T as weighted unique rows, assembled one row at a time
    through a dict keyed by ``(row bytes, label)`` in insertion order
    (prior, feedback, warm-up), then reweighted to at most
    ``MAX_CLASS_IMBALANCE``:1: ``(rows, labels, weights)``, or ``None``
    for a single-class T."""
    from repro.core.tuner import MAX_CLASS_IMBALANCE

    index_of, rows, labels, weights = {}, [], [], []
    for dataset, multiplicity in (
        (operating_point, float(prior_weight)),
        (feedback, float(observed_weight)),
        (warmup, 1.0),
    ):
        for row, label in zip(dataset.features, dataset.labels):
            key = (row.tobytes(), label)
            if key not in index_of:
                index_of[key] = len(rows)
                rows.append(row)
                labels.append(label)
                weights.append(multiplicity)
            else:
                weights[index_of[key]] += multiplicity
    label_array = np.asarray(labels, dtype=np.int64)
    weight_array = np.asarray(weights, dtype=np.float64)
    positive = label_array == 1
    w_pos = float(weight_array[positive].sum())
    w_neg = float(weight_array[~positive].sum())
    if w_pos == 0.0 or w_neg == 0.0:
        return None
    major, minor = max(w_pos, w_neg), min(w_pos, w_neg)
    if major / minor > MAX_CLASS_IMBALANCE:
        factor = (major / MAX_CLASS_IMBALANCE) / minor
        minority = positive if w_pos < w_neg else ~positive
        weight_array = np.where(minority, weight_array * factor, weight_array)
    return np.stack(rows), label_array, weight_array


def reference_find_best_split(
    self, features, gradients, hessians, grad_sum, hess_sum, lower, upper
):
    """``MonotonicGBDT._find_best_split`` as a loop over every threshold of
    every feature, keeping a split only when its gain is strictly larger:
    the choice the vectorised scan must reproduce."""
    from repro.models import gbdt

    parent_score = grad_sum * grad_sum / (hess_sum + gbdt.REG_LAMBDA)
    best_gain, best = gbdt.MIN_GAIN, None
    for feature in range(features.shape[1]):
        column = features[:, feature]
        order = np.argsort(column, kind="stable")
        sorted_values = column[order]
        grad_prefix = np.cumsum(gradients[order])
        hess_prefix = np.cumsum(hessians[order])
        for i in range(len(sorted_values) - 1):
            if sorted_values[i] == sorted_values[i + 1]:
                continue
            left_grad, left_hess = float(grad_prefix[i]), float(hess_prefix[i])
            right_grad, right_hess = grad_sum - left_grad, hess_sum - left_hess
            if left_hess < gbdt.MIN_CHILD_WEIGHT or right_hess < gbdt.MIN_CHILD_WEIGHT:
                continue
            gain = (
                left_grad * left_grad / (left_hess + gbdt.REG_LAMBDA)
                + right_grad * right_grad / (right_hess + gbdt.REG_LAMBDA)
                - parent_score
            )
            if feature == self._monotone_feature:
                left_value = np.clip(-left_grad / (left_hess + gbdt.REG_LAMBDA), lower, upper)
                right_value = np.clip(-right_grad / (right_hess + gbdt.REG_LAMBDA), lower, upper)
                if left_value < right_value:
                    gain = -np.inf
            if gain > best_gain:
                best_gain = gain
                threshold = 0.5 * (sorted_values[i] + sorted_values[i + 1])
                best = (feature, float(threshold), float(gain))
    return best


def apply_bce(logits, target):
    """Weighted mean BCE of ``logits`` against a prepared
    :func:`repro.gnn.loss.loss_target`, and its gradient w.r.t. the logits
    (shaped like ``logits``): one graph's loss, as the per-graph reference
    loop scores it."""
    from repro.gnn.loss import bce_terms

    flat = logits.reshape(-1)
    grad = np.zeros_like(flat)
    if target.n_labelled == 0:
        return 0.0, grad.reshape(logits.shape)
    terms, grad[target.index] = bce_terms(
        flat[target.index], target.targets, target.weights, target.total_weight
    )
    return float(terms.sum() / target.total_weight), grad.reshape(logits.shape)


def reference_gnn_train(samples, config=None, epochs=40, seed=7):
    """Pre-train the straightforward way: forward -> loss -> backward one
    graph at a time, each graph's gradients added by ``+=`` into the
    minibatch's buffers.  This is the operation order the padded-minibatch
    :func:`repro.gnn.train.train_bottleneck_gnn` must reproduce byte for
    byte.  Returns ``(model, report)``."""
    from repro.gnn.loss import loss_target
    from repro.gnn.model import BottleneckGNN, EncoderConfig
    from repro.gnn.optim import Adam
    from repro.gnn.train import (
        BATCH_SIZE,
        LEARNING_RATE,
        MAX_POS_WEIGHT,
        WEIGHT_DECAY,
        TrainingReport,
    )
    from repro.utils.rng import seeded_rng

    labelled = [s for s in samples if s.n_labelled > 0]
    if not labelled:
        raise ValueError("no labelled samples to train on")
    n_pos = sum(int((s.labels[s.mask] == 1).sum()) for s in labelled)
    n_neg = sum(int((s.labels[s.mask] == 0).sum()) for s in labelled)
    if n_pos == 0:
        pos_weight = 1.0
    else:
        pos_weight = float(min(max(n_neg / n_pos, 1.0), MAX_POS_WEIGHT))
    targets = [loss_target(s.labels, s.mask, pos_weight) for s in labelled]
    n_total = sum(target.n_labelled for target in targets)
    if config is None:
        config = EncoderConfig(input_dim=labelled[0].features.shape[1], seed=seed)
    model = BottleneckGNN(config)
    optimizer = Adam(model.parameters(), learning_rate=LEARNING_RATE, weight_decay=WEIGHT_DECAY)
    rng = seeded_rng(seed + 99)
    report = TrainingReport()

    for _ in range(epochs):
        order = rng.permutation(len(labelled))
        epoch_loss = 0.0
        n_correct = 0
        for start in range(0, len(order), BATCH_SIZE):
            batch = order[start : start + BATCH_SIZE]
            optimizer.zero_grad()
            for sample_index in batch:
                target = targets[sample_index]
                logits = model.forward(labelled[sample_index], parallelism_aware=True)
                loss, grad = apply_bce(logits, target)
                model.backward(grad)
                epoch_loss += loss * target.n_labelled
                predictions = logits.reshape(-1)[target.index] > 0
                n_correct += int((predictions == (target.targets == 1.0)).sum())
            optimizer.scale_gradients(1.0 / len(batch))
            optimizer.step()
        report.losses.append(epoch_loss / n_total)
        report.accuracies.append(n_correct / n_total)
    return model, report


def _toml_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)   # JSON string escaping is valid TOML
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(item) for item in value) + "]"
    items = ", ".join(
        f"{key} = {_toml_value(item)}" for key, item in value.items() if item is not None
    )
    return "{" + items + "}"   # inline table (trace / chaos specs)


#: Cache-key kinds the experiment context legitimately persists between
#: tests (deterministic artifacts rebuilt identically on a miss).
_ARTIFACT_KINDS = {"history", "pretrained", "campaign", "service-campaign"}


@pytest.fixture(autouse=True)
def _isolate_module_singletons():
    """Keep module-level singletons from leaking state across tests.

    * ``REPRO_SCALE`` is restored (the CLI's ``experiments`` command and
      scale-resolution tests write it).
    * Any key a test adds to ``repro.experiments.context._CACHE`` that is
      *not* a well-formed artifact key is dropped afterwards, so probe
      entries can never alias a later test's lookup.
    """
    from repro.experiments import context

    saved_scale = os.environ.get("REPRO_SCALE")
    before = set(context._CACHE)
    yield
    if saved_scale is None:
        os.environ.pop("REPRO_SCALE", None)
    else:
        os.environ["REPRO_SCALE"] = saved_scale
    for key in set(context._CACHE) - before:
        well_formed = (
            isinstance(key, tuple) and len(key) >= 2 and key[0] in _ARTIFACT_KINDS
        )
        if not well_formed:
            del context._CACHE[key]


@pytest.fixture
def noiseless(monkeypatch):
    """Engines built inside the test observe their metrics without noise."""
    from repro.engines import metrics

    monkeypatch.setattr(metrics, "DEFAULT_NOISE_STD", 0.0)


@pytest.fixture
def linear_flow() -> LogicalDataflow:
    return build_linear_flow()


@pytest.fixture
def diamond_flow() -> LogicalDataflow:
    return build_diamond_flow()


@pytest.fixture
def window_flow() -> LogicalDataflow:
    return build_window_flow()


@pytest.fixture
def flink() -> FlinkCluster:
    return FlinkCluster(seed=1234)


@pytest.fixture
def timely() -> TimelyCluster:
    return TimelyCluster(seed=1234)


@pytest.fixture(scope="session")
def corpus():
    """The full 61-query Flink corpus."""
    return nexmark_queries("flink") + [
        q for qs in pqp_query_set().values() for q in qs
    ]


@pytest.fixture(scope="session")
def tiny_history(corpus):
    """A small labelled execution history (session-scoped)."""
    engine = FlinkCluster(seed=77)
    return HistoryGenerator(engine, seed=78).generate(corpus, 400)


@pytest.fixture(scope="session")
def tiny_pretrained(tiny_history):
    """A fast pre-trained StreamTune artifact (session-scoped)."""
    return pretrain(
        tiny_history,
        max_parallelism=100,
        n_clusters=2,
        epochs=8,
        seed=5,
    )
