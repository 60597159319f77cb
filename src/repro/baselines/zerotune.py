"""ZeroTune (Agnihotri et al., ICDE'24) — zero-shot job-level cost model.

ZeroTune pre-trains a GNN on execution histories to predict a *job-level*
performance metric from the dataflow DAG, operator features, and the
candidate parallelism degrees.  It is zero-shot: the same model serves
unseen queries without fine-tuning.  The paper notes it "does not specify a
parallelism tuning strategy", so — as in the paper's evaluation — the
recommendation samples candidate parallelism assignments and picks the one
with the lowest predicted cost (end-to-end latency here).

Because the objective is performance only, with no resource term, lower
latency almost always means more parallelism; ZeroTune therefore recommends
by far the largest degrees of all methods (Fig. 6) while never causing
backpressure (Table III).  It reconfigures exactly once per rate change.

Architecturally the cost model reuses the bottleneck encoder (parallelism-
aware path, so FUSE injects the candidate degrees) with a mean-pooled
regression head — precisely the "aggregate operator embeddings into a
summary vector, regress a job-level metric" design §IV-A contrasts
StreamTune against.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.api import ParallelismTuner, TuningProcess
from repro.dataflow.features import FeatureEncoder
from repro.engines.base import EngineCluster
from repro.gnn.data import GraphSample, build_sample
from repro.gnn.model import BottleneckEncoder, EncoderConfig, PredictionHead
from repro.gnn.optim import Adam
from repro.utils.rng import seeded_rng


class PooledRegressionGNN:
    """Encoder + mean-pool + the bottleneck model's MLP head, regressing a
    job-level metric."""

    def __init__(self, config: EncoderConfig) -> None:
        self.encoder = BottleneckEncoder(config)
        self.head = PredictionHead(
            seeded_rng(config.seed + 2), config.embedding_dim, config.head_hidden_dim
        )

    def forward(self, sample: GraphSample) -> float:
        h = self.encoder.forward(sample, parallelism_aware=True)
        pooled = h.mean(axis=0, keepdims=True)
        self._n_nodes = h.shape[0]
        return float(self.head.forward(pooled)[0, 0])

    def backward(self, grad_output: float) -> None:
        grad = np.array([[grad_output]])
        grad_pooled = self.head.backward(grad)
        grad_h = np.repeat(grad_pooled / self._n_nodes, self._n_nodes, axis=0)
        self.encoder.backward(grad_h)

    def parameters(self):
        return self.encoder.parameters() + self.head.parameters()


#: Hidden width of the cost model's encoder.
HIDDEN_DIM = 32

#: Random configurations scored per recommendation.
N_CANDIDATES = 96

#: Largest per-operator degree a candidate samples (capped by the engine).
MAX_SAMPLED_PARALLELISM = 16


class ZeroTuneTuner(ParallelismTuner):
    """Zero-shot cost model + candidate sampling."""

    name = "ZeroTune"

    def __init__(
        self,
        engine: EngineCluster,
        records: list,
        feature_encoder: FeatureEncoder | None = None,
        epochs: int = 30,
        seed: int = 23,
    ) -> None:
        super().__init__(engine)
        if not records:
            raise ValueError("ZeroTune needs a non-empty execution history")
        self.records = records
        self.feature_encoder = feature_encoder or FeatureEncoder()
        self.epochs = epochs
        self.max_sampled_parallelism = min(MAX_SAMPLED_PARALLELISM, engine.max_parallelism)
        self.seed = seed
        self._rng = seeded_rng(seed)
        self._model: PooledRegressionGNN | None = None

    # ------------------------------------------------------------------
    # offline training (zero-shot: once, on the global history)
    # ------------------------------------------------------------------

    def fit(self) -> None:
        """Train the cost model on the execution history (idempotent)."""
        if self._model is not None:
            return
        samples, targets = self._training_set()
        config = EncoderConfig(
            input_dim=samples[0].features.shape[1],
            hidden_dim=HIDDEN_DIM,
            seed=self.seed,
        )
        model = PooledRegressionGNN(config)
        optimizer = Adam(model.parameters(), learning_rate=5e-3, weight_decay=1e-4)
        rng = seeded_rng(self.seed + 5)
        for _ in range(self.epochs):
            for index in rng.permutation(len(samples)):
                optimizer.zero_grad()
                prediction = model.forward(samples[index])
                error = prediction - targets[index]
                model.backward(2.0 * error)
                optimizer.step()
        self._model = model

    def _training_set(self) -> tuple[list[GraphSample], np.ndarray]:
        samples = []
        targets = []
        for record in self.records:
            samples.append(
                build_sample(
                    record.flow,
                    record.source_rates,
                    record.parallelisms,
                    labels={},
                    encoder=self.feature_encoder,
                    max_parallelism=self.engine.max_parallelism,
                )
            )
            targets.append(np.log1p(record.job_latency_seconds))
        return samples, np.asarray(targets)

    # ------------------------------------------------------------------
    # online recommendation: sample configs, pick the cheapest
    # ------------------------------------------------------------------

    def begin(self, process: TuningProcess) -> None:
        self.fit()

    def decide(self, process: TuningProcess) -> dict[str, int]:
        assert self._model is not None
        flow = process.deployment.flow
        names = flow.operator_names
        best_config = dict(process.deployment.parallelisms)
        best_cost = np.inf
        for _ in range(N_CANDIDATES):
            candidate = {
                name: int(self._rng.integers(1, self.max_sampled_parallelism + 1))
                for name in names
            }
            sample = build_sample(
                flow,
                process.target_rates,
                candidate,
                labels={},
                encoder=self.feature_encoder,
                max_parallelism=self.engine.max_parallelism,
            )
            cost = self._model.forward(sample)
            if cost < best_cost:
                best_cost = cost
                best_config = candidate
        return best_config
