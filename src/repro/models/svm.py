"""Monotonic SVM (paper Eq. 5).

The paper's formulation separates the embedding features from the
parallelism degree:

    f(x) = w_e^T phi(h) + w_p * p + b,       subject to  w_p <= 0,

with a kernel lift ``phi`` on the embedding part only, hinge loss with
regularisation C, and the sign constraint enforcing that a larger
parallelism can only lower the decision score (hence the bottleneck
probability).

Offline substitution: scikit-learn is unavailable, so the kernel trick is
realised with **random Fourier features** (Rahimi & Recht) approximating an
RBF kernel on ``h``, and the primal — squared hinge, so it is smooth — is
solved by L-BFGS-B with ``w_p <= 0`` as a box bound.  ``EPOCHS`` is the
solver's ``maxiter``: a fit that exhausts it returns that iterate, not an
optimum, and ``n_iterations_`` / ``stop_message_`` say which happened.
Probabilities come from Platt-style scaling of the margin with a
positivity-constrained slope, which preserves monotonicity in p.

A fit pays its fixed costs once per distinct embedding, and its result is
byte-identical to lifting every row.  The embedding h is
parallelism-agnostic, so most training rows repeat another row's h with a
different p.  Standardising and lifting are row-wise (one matrix product,
then an elementwise ``cos``), so lifting only the distinct rows and
gathering the result yields the same bytes.  The scores ``lifted @ w_e``
and the gradient ``coeff @ lifted`` still run over every row, in the
original order: a matrix-vector product's rounding depends on where a row
sits, so scoring the distinct rows and gathering would move the last bit
of the solution.

:func:`_lbfgsb` drives L-BFGS-B in place of ``scipy.optimize.minimize``.
It runs ``_minimize_lbfgsb``'s loop over the same reverse-communication
routine (``scipy.optimize._lbfgsb.setulb``) with the same memory (10
corrections), line-search limit (20), ``factr = ftol / eps``, box and
start, and it evaluates the objective at exactly the points ``setulb``
asks for, so the solution, the iteration count and the message are
byte-identical.  What it drops is per-fit bounds parsing (``minimize``
converts and loops over 258 bound tuples) and per-evaluation
``ScalarFunction``/``MemoizeJac`` bookkeeping, which ran under the GIL.
It has no evaluation-budget check: ``minimize``'s 15000 evaluations are
never reached, because ``EPOCHS`` iterations of at most 20 line-search
steps each stop first.  ``setulb`` is a private symbol (its signature is
scipy >= 1.15's), so ``tests/conftest.py::reference_svm_fit``, which
still calls ``minimize``, checks the driver against scipy byte for byte.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import validate_training_inputs
from repro.gnn.loss import sigmoid
from repro.utils.rng import seeded_rng

#: The regularisation C of Eq. 5, the RBF kernel's gamma (per typical
#: pairwise distance) and the random Fourier feature count.
C = 16.0
GAMMA = 1.5
N_FOURIER_FEATURES = 256
#: The L-BFGS-B ``maxiter`` of one fit.
EPOCHS = 200
#: The solver options a fit accepts, at scipy's L-BFGS-B defaults.
SOLVER_DEFAULTS = {"ftol": 2.2204460492503131e-09, "gtol": 1e-5}


def _lbfgsb(objective, x: np.ndarray, ftol: float, gtol: float) -> tuple[int, str]:
    """Minimise ``objective`` (returning value and gradient) from ``x``, in
    place, subject to ``x[-2] <= 0``, as ``minimize(method="L-BFGS-B")``
    does; see the module docstring.  Returns the iteration count and
    L-BFGS-B's stop message."""
    from scipy.optimize._lbfgsb import setulb
    from scipy.optimize._lbfgsb_py import status_messages, task_messages

    n, m = len(x), 10
    f, g, box, dsave = np.array(0.0), np.zeros(n), np.zeros(n), np.zeros(29)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    nbd, iwa, task, ln_task, lsave, isave = (
        np.zeros(k, np.int32) for k in (n, 3 * n, 2, 2, 4, 44)
    )
    # Code 3 bounds x[-2] above by box[-2]; the zero vector serves as both
    # bounds because code 0 (free) reads neither.
    nbd[n - 2] = 3
    factr, iterations = ftol / np.finfo(float).eps, 0
    while True:
        setulb(m, x, box, box, nbd, f, g, factr, gtol, wa, iwa, task,
               lsave, isave, dsave, 20, ln_task)
        if task[0] == 3:                   # FG: evaluate at x
            f, g = objective(x)
        elif task[0] == 1:                 # NEW_X: one iteration done
            iterations += 1
            if iterations >= EPOCHS:
                task[:] = 5, 504           # STOP: iteration limit
        else:
            break
    return iterations, f"{status_messages[task[0]]}: {task_messages[task[1]]}"


class MonotonicSVM:
    """Kernelised hinge-loss classifier, monotone non-increasing in p."""

    def __init__(self, seed: int = 11) -> None:
        #: ``platt_tol`` > 0 stops the Platt-scaling loop once both gradient
        #: magnitudes fall below it (deterministic early exit); the default 0
        #: keeps the historical fixed-iteration behaviour bit-for-bit.
        self.platt_tol = 0.0
        #: Optional ``ftol``/``gtol`` overriding ``SOLVER_DEFAULTS`` (e.g.
        #: ``{"ftol": 1e-7, "gtol": 1e-4}``); any other key is rejected.  The
        #: online tuning loop thresholds a calibrated probability at ~0.35,
        #: so it can trade the solver's last digits of objective precision
        #: for iterations.
        self.solver_options: dict | None = None
        self._rng = seeded_rng(seed)
        self._fitted = False
        self.solution_theta: np.ndarray | None = None
        #: How the last fit's solver stopped (its iteration count and
        #: L-BFGS-B's message); ``None`` before the first fit.
        self.n_iterations_: int | None = None
        self.stop_message_: str | None = None
        self._feature_mean: np.ndarray | None = None
        self._feature_scale: np.ndarray | None = None
        self._rff_weights: np.ndarray | None = None
        self._rff_offsets: np.ndarray | None = None
        self._w_embed: np.ndarray | None = None
        self._w_parallelism = 0.0
        self._bias = 0.0
        self._platt_scale = 1.0
        self._platt_offset = 0.0

    # ------------------------------------------------------------------
    # feature lift
    # ------------------------------------------------------------------

    def _lift(self, embeddings: np.ndarray) -> np.ndarray:
        """Random Fourier features approximating an RBF kernel on h, given
        standardised embeddings.

        The RBF kernel is distance-based: without per-column standardisation
        the GNN embedding's scale dominates gamma and the kernel saturates
        (every pair looks maximally distant), destroying generalisation.
        """
        assert self._rff_weights is not None and self._rff_offsets is not None
        projection = embeddings @ self._rff_weights + self._rff_offsets
        return np.sqrt(2.0 / N_FOURIER_FEATURES) * np.cos(projection)

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------

    def fit(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        sample_weight: np.ndarray | None = None,
        theta0: np.ndarray | None = None,
    ) -> "MonotonicSVM":
        """Fit the primal SVM; ``sample_weight`` counts row multiplicities.

        A dataset with ``sample_weight=[2, 3]`` optimises the same objective
        as the expanded dataset repeating row 0 twice and row 1 three times
        — the fine-tuning loop exploits this to collapse its heavily
        duplicated training multiset (prior replication, feedback
        replication, minority oversampling) into weighted unique rows.

        ``theta0`` warm-starts L-BFGS from a previous solution in the same
        random-feature space (the RFF draw depends only on the model seed,
        so successive refits of a tuning loop share the feature space); the
        online loop's refits change only a few feedback rows between fits,
        which makes the previous optimum an excellent starting point.

        Every input is validated before the model is touched, so a fit
        that raises leaves an already-fitted model as it was.
        """
        features, labels = validate_training_inputs(features, labels)
        dim = N_FOURIER_FEATURES
        counts = None
        if sample_weight is not None:
            counts = np.asarray(sample_weight, dtype=np.float64).reshape(-1)
            if len(counts) != len(labels):
                raise ValueError("sample_weight and labels disagree on count")
            if not ((counts > 0) & np.isfinite(counts)).all():
                raise ValueError("sample_weight entries must be positive and finite")
        start = np.zeros(dim + 2)
        if theta0 is not None:
            start = np.array(theta0, dtype=np.float64)
            if start.shape != (dim + 2,):
                raise ValueError(
                    f"theta0 must have shape ({dim + 2},), got {start.shape}"
                )
            if not np.isfinite(start).all():
                raise ValueError("theta0 must be finite")
            # Project into the feasible box so L-BFGS-B starts legal.
            start[dim] = min(start[dim], 0.0)
        options = {**SOLVER_DEFAULTS, **(self.solver_options or {})}
        if options.keys() != SOLVER_DEFAULTS.keys():
            unknown = sorted(options.keys() - SOLVER_DEFAULTS.keys())
            raise ValueError(f"unknown solver options {unknown}; known: ftol, gtol")
        raw_embeddings = features[:, :-1]
        if counts is None:
            self._feature_mean = raw_embeddings.mean(axis=0)
            self._feature_scale = np.maximum(raw_embeddings.std(axis=0), 1e-8)
        else:
            total = counts.sum()
            mean = (counts[:, None] * raw_embeddings).sum(axis=0) / total
            var = (counts[:, None] * (raw_embeddings - mean) ** 2).sum(axis=0) / total
            self._feature_mean = mean
            self._feature_scale = np.maximum(np.sqrt(var), 1e-8)
        # Normalise the kernel bandwidth by dimensionality so gamma means
        # "per typical pairwise distance" regardless of embedding width.
        n_embed = raw_embeddings.shape[1]
        self._rff_weights = self._rng.normal(
            0.0,
            np.sqrt(2.0 * GAMMA / n_embed),
            size=(n_embed, N_FOURIER_FEATURES),
        )
        self._rff_offsets = self._rng.uniform(0.0, 2.0 * np.pi, N_FOURIER_FEATURES)
        # Lift each distinct embedding (grouped by its raw bytes) once and
        # gather a row per training row; see the module docstring.
        rows = np.ascontiguousarray(raw_embeddings)
        keys = rows.view(np.dtype((np.void, rows.itemsize * n_embed))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        distinct = (rows[first] - self._feature_mean) / self._feature_scale
        lifted = self._lift(distinct)[inverse]
        parallelism = features[:, -1]

        y = 2.0 * labels - 1.0                      # {-1, +1}
        n = len(y) if counts is None else float(counts.sum())
        # Class weights keep the minority class visible (bottleneck labels
        # are often rare once tuning converges).
        if counts is None:
            n_pos = max(1.0, float((y > 0).sum()))
            n_neg = max(1.0, float((y < 0).sum()))
        else:
            n_pos = max(1.0, float(counts[y > 0].sum()))
            n_neg = max(1.0, float(counts[y < 0].sum()))
        weight = np.where(y > 0, n / (2.0 * n_pos), n / (2.0 * n_neg))
        if counts is not None:
            weight = weight * counts
        # The hinge gradient's -2 w y, folded once: y = +-1 only flips a
        # sign, so (-2 w y) h rounds exactly as ((-2 w) h) y does.
        neg2wy = -2.0 * weight * y
        scratch = np.empty(len(y))

        # Primal smooth (squared-hinge) SVM solved by L-BFGS-B; the Eq. 5
        # sign constraint w_p <= 0 maps directly onto a box bound.  The
        # regulariser follows the usual SVM scaling lambda = 1 / (C n).
        lam = 1.0 / (C * n)

        def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
            w_e = theta[:dim]
            w_p = theta[dim]
            # max(1 - y * score, 0), in place, in the operation order of
            # 1.0 - y * (lifted @ w_e + w_p * parallelism + b).
            hinge = lifted @ w_e
            hinge += w_p * parallelism
            hinge += theta[dim + 1]
            hinge *= y
            np.subtract(1.0, hinge, out=hinge)
            np.maximum(hinge, 0.0, out=hinge)
            loss = np.multiply(hinge, hinge, out=scratch)
            loss *= weight
            value = 0.5 * lam * (w_e @ w_e + w_p * w_p) + float(loss.sum() / n)
            coeff = np.multiply(neg2wy, hinge, out=scratch)
            coeff /= n
            grad = np.empty_like(theta)
            grad[:dim] = lam * w_e + coeff @ lifted
            grad[dim] = lam * w_p + float(coeff @ parallelism)
            grad[dim + 1] = float(coeff.sum())
            return value, grad

        self.n_iterations_, self.stop_message_ = _lbfgsb(objective, start, **options)
        self.solution_theta = start.copy()
        self._w_embed = start[:dim]
        self._w_parallelism = float(min(start[dim], 0.0))
        self._bias = float(start[dim + 1])
        self._fitted = True
        margins = lifted @ self._w_embed + self._w_parallelism * parallelism + self._bias
        self._fit_platt(margins, labels, counts)
        return self

    def _fit_platt(
        self,
        margins: np.ndarray,
        labels: np.ndarray,
        counts: np.ndarray | None = None,
    ) -> None:
        """Fit p = sigmoid(a * margin + b0) with a >= 0 (keeps monotonicity)."""
        n = float(len(margins)) if counts is None else float(counts.sum())
        a, b0 = 1.0, 0.0
        for _ in range(120):
            residual = sigmoid(a * margins + b0) - labels
            if counts is not None:
                residual *= counts
            grad_a = float((residual * margins).sum()) / n
            grad_b = float(residual.sum()) / n
            if self.platt_tol > 0.0 and (
                abs(grad_a) < self.platt_tol and abs(grad_b) < self.platt_tol
            ):
                break
            a -= 0.5 * grad_a
            b0 -= 0.5 * grad_b
            a = max(a, 1e-2)
        self._platt_scale = a
        self._platt_offset = b0

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Margin f(x); positive = predicted bottleneck."""
        if not self._fitted:
            raise RuntimeError("model is not fitted")
        features = np.asarray(features, dtype=np.float64)
        lifted = self._lift((features[:, :-1] - self._feature_mean) / self._feature_scale)
        assert self._w_embed is not None
        return lifted @ self._w_embed + self._w_parallelism * features[:, -1] + self._bias

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        margins = self.decision_function(features)
        return sigmoid(self._platt_scale * margins + self._platt_offset)

    # ------------------------------------------------------------------
    # parallelism profiles (fast path for the minimum-degree search)
    # ------------------------------------------------------------------

    def margin_profile(
        self, embedding: np.ndarray, parallelism_values: np.ndarray
    ) -> np.ndarray:
        """Margins of one operator embedding across many parallelism values.

        ``f(x) = w_e^T phi(h) + w_p p + b`` touches the kernel lift through
        ``h`` only, so sweeping ``p`` needs a single lifted row rather than
        one per candidate degree — the minimum-parallelism search evaluates
        ``p_max`` candidates with one cosine transform instead of ``p_max``.
        """
        if not self._fitted:
            raise RuntimeError("model is not fitted")
        embedding = np.asarray(embedding, dtype=np.float64).reshape(1, -1)
        lifted = self._lift((embedding - self._feature_mean) / self._feature_scale)
        assert self._w_embed is not None
        base = lifted @ self._w_embed
        return base + self._w_parallelism * np.asarray(parallelism_values) + self._bias

    def proba_profile(
        self, embedding: np.ndarray, parallelism_values: np.ndarray
    ) -> np.ndarray:
        """Platt-calibrated probabilities along a parallelism sweep."""
        margins = self.margin_profile(embedding, parallelism_values)
        return sigmoid(self._platt_scale * margins + self._platt_offset)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Hard decision on the *margin* (class-weighted hinge boundary).

        Platt probabilities are calibrated to the class prior, so on
        imbalanced data the 0.5-probability surface drifts away from the
        max-margin separator; the class decision must use the margin.
        """
        return (self.decision_function(features) >= 0.0).astype(np.int64)
