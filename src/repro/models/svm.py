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
RBF kernel on ``h``.  The draw is a function of the model seed and the
embedding width alone (:func:`_random_features`), so every fit with one
seed, on one model or many, lifts into the same feature space.  The
primal uses the squared hinge, so it is smooth, convex and piecewise
quadratic, with one optimum; a fit solves it exactly (:func:`_solve`).
Probabilities come from Platt-style scaling of the margin with a
positivity-constrained slope, which preserves monotonicity in p.

A fit pays its fixed costs once per distinct embedding.  The embedding h
is parallelism-agnostic, so most training rows repeat another row's h
with a different p: a fit lifts each distinct embedding once (``L_D``)
and scores rows as ``(L_D @ w_e)[inverse] + w_p * p + b``.  Rows are put
in a canonical order first, so a fit is a function of the training
multiset: any permutation of the rows gives the same bytes.

:func:`_solve` is a projected finite Newton method (Keerthi & DeCoste,
JMLR 2005).  On the rows whose hinge is active the objective is a
quadratic; each step is that quadratic's Newton step, followed by an
exact line search on the piecewise-quadratic objective, capped inside
the box ``w_p <= 0``.  With ``k`` active rows the step comes from a
``(k+1)``-square system in the rows (Woodbury's identity with the bias
as a border), so a warm step costs a k x k Gram matrix; above
``DUAL_ROWS`` active rows, as on a cold start's first step, it comes
from the primal Newton system instead.  ``w_p`` is held at 0 while the
bound binds, and for a step that would leave the box at once.  The
solve stops once the largest projected-gradient entry is at most
``TOLERANCE``; ``MAX_ITERATIONS`` caps it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.models.base import group_rows, validate_sample_weight, validate_training_inputs
from repro.gnn.loss import sigmoid
from repro.utils.rng import seeded_rng

#: The regularisation C of Eq. 5, the RBF kernel's gamma (per typical
#: pairwise distance) and the random Fourier feature count.
C = 16.0
GAMMA = 1.5
N_FOURIER_FEATURES = 256
#: The solve stops once every projected-gradient entry is at most this.
TOLERANCE = 1e-10
#: Newton steps before a solve gives up and returns its iterate.
MAX_ITERATIONS = 50
#: Above this many active rows a Newton step solves the primal system.
DUAL_ROWS = 200


@lru_cache(maxsize=8)
def _random_features(seed: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """The random Fourier weights and offsets for ``width``-column
    embeddings: the first draws of a fresh ``seeded_rng(seed)``, read-only
    because fits share them."""
    rng = seeded_rng(seed)
    # Normalise the kernel bandwidth by dimensionality so gamma means
    # "per typical pairwise distance" regardless of embedding width.
    weights = rng.normal(0.0, np.sqrt(2.0 * GAMMA / width), size=(width, N_FOURIER_FEATURES))
    offsets = rng.uniform(0.0, 2.0 * np.pi, N_FOURIER_FEATURES)
    weights.flags.writeable = offsets.flags.writeable = False
    return weights, offsets


def _solve(problem, theta):
    """Minimise ``lam/2 |w|^2 + sum(cost * max(0, 1 - y * score)^2)`` over
    ``theta = (w_e, w_p, b)`` with ``w_p <= 0``, from a feasible ``theta``.
    ``problem`` is ``(lifted, inverse, parallelism, y, cost, lam)``, where
    ``lifted[inverse]`` are the rows' lifted embeddings and ``inverse`` is
    non-decreasing (rows sorted by embedding).  Returns the
    solution, the Newton steps taken and the largest projected-gradient
    entry there."""
    lifted, inverse, parallelism, y, cost, lam = problem
    dim = lifted.shape[1]
    for iteration in range(MAX_ITERATIONS + 1):
        slack = 1.0 - y * _scores(problem, theta)
        active = slack > 0.0
        coeff = np.where(active, -2.0 * cost * y * slack, 0.0)
        grad = lam * theta
        grad[dim + 1] = 0.0                         # b is not regularised
        grad[:dim] += np.bincount(inverse, coeff, len(lifted)) @ lifted
        grad[dim:] += (coeff @ parallelism, coeff.sum())
        # At the bound a negative w_p gradient points out of the box.
        pinned = theta[dim] == 0.0 and grad[dim] <= 0.0
        residual = float(np.abs(np.delete(grad, dim) if pinned else grad).max())
        if residual <= TOLERANCE or iteration == MAX_ITERATIONS:
            return theta, iteration, residual
        step = _newton_step(problem, grad, active, pinned)
        if theta[dim] == 0.0 and step[dim] > 0.0:
            # The step would leave the box at once: take it with w_p held.
            step = _newton_step(problem, grad, active, True)
        theta = _line_search(problem, theta, step, slack)


def _scores(problem, theta):
    lifted, inverse, parallelism = problem[:3]
    dim = lifted.shape[1]
    return (lifted @ theta[:dim])[inverse] + theta[dim] * parallelism + theta[dim + 1]


def _newton_step(problem, grad, active, pinned):
    """The Newton step for the objective with the hinge of the ``active``
    rows held quadratic (and ``w_p`` held when ``pinned``).  It solves
    ``H d = -grad`` for the current gradient, so a step from a point that
    round-off left off the optimum corrects it."""
    lifted, inverse, parallelism, _, cost, lam = problem
    dim = lifted.shape[1]
    rows = np.flatnonzero(active)
    step = np.zeros(dim + 2)
    if len(rows) == 0:
        # Only the regulariser is left: w goes to 0, b has no curvature.
        step[:dim + 1] = -grad[:dim + 1] / lam
    elif len(rows) > DUAL_ROWS:
        # The primal Hessian, its w_e rows summed per distinct embedding.
        curvature = np.where(active, 2.0 * cost, 0.0)
        tail = np.stack((parallelism, np.ones(len(parallelism))))     # w_p, b
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
        # Through the active rows: with z_i = (phi_i, p_i), D = diag(2 cost)
        # and u = D (Z d_w + d_b), the Newton equations become
        #     [Z Z^T + lam D^-1   1] [   u    ]   [-Z g_w]
        #     [1^T                0] [-lam d_b] = [ -g_b ],
        # and d_w = -(g_w + Z^T u) / lam.
        # ``inverse`` is sorted, so each embedding's active rows are one run.
        grouped = inverse[rows]
        first = np.concatenate(([True], grouped[1:] != grouped[:-1]))
        local = np.cumsum(first) - 1
        sub = lifted[grouped[first]]
        p = parallelism[rows] if not pinned else np.zeros(len(rows))
        k = len(rows)
        system = np.zeros((k + 1, k + 1))
        system[:k, :k] = (sub @ sub.T)[np.ix_(local, local)] + np.outer(p, p)
        system[np.arange(k), np.arange(k)] += lam / (2.0 * cost[rows])
        system[k, :k] = system[:k, k] = 1.0
        rhs = np.append((sub @ grad[:dim])[local] + p * grad[dim], grad[dim + 1])
        u = np.linalg.solve(system, -rhs)
        step[:dim] = -(grad[:dim] + np.bincount(local, u[:k], len(sub)) @ sub) / lam
        step[dim] = -(grad[dim] + u[:k] @ p) / lam if not pinned else 0.0
        step[dim + 1] = -u[k] / lam
    return step


def _line_search(problem, theta, step, slack):
    """The exact minimiser of the objective on ``theta + t * step`` for
    ``t >= 0``, cut where ``w_p`` reaches 0."""
    lifted, _, _, y, cost, lam = problem
    dim = lifted.shape[1]
    limit = -theta[dim] / step[dim] if step[dim] > 0.0 else np.inf
    # Along the step row i's slack is slack_i - t * rate_i; its hinge
    # switches where the slack crosses 0.
    rate = y * _scores(problem, step)
    now = slack > 0.0
    moving = (rate != 0.0) & (now == (rate > 0.0))
    where = slack[moving] / rate[moving]
    if limit >= 1.0 and not (where < 1.0).any():
        return theta + step             # no hinge switches before the full step
    # Between switches the derivative is slope + t * bend, with sums over
    # the rows active there.
    terms = np.stack((-2.0 * cost * rate * slack, 2.0 * cost * rate * rate))
    start = lam * np.array((theta[:dim + 1] @ step[:dim + 1], step[:dim + 1] @ step[:dim + 1]))
    start += terms[:, now].sum(axis=1)
    order = np.argsort(where, kind="stable")
    changes = (terms[:, moving] * np.where(now[moving], -1.0, 1.0))[:, order]
    slope, bend = np.cumsum(np.column_stack((start, changes)), axis=1)
    where = where[order]
    # The derivative is continuous and non-decreasing: the minimiser lies
    # on the first piece at whose right end it is non-negative.
    reached = slope[:-1] + bend[:-1] * where >= 0.0
    piece = int(np.argmax(reached)) if reached.any() else len(where)
    ends = np.concatenate(([0.0], where, [np.inf]))
    low, high = ends[piece], ends[piece + 1]
    t = np.clip(-slope[piece] / bend[piece], low, high) if bend[piece] > 0.0 else low
    theta = theta + min(t, limit) * step
    if t >= limit:
        theta[dim] = 0.0                # exactly on the bound
    return theta


class MonotonicSVM:
    """Kernelised hinge-loss classifier, monotone non-increasing in p."""

    def __init__(self, seed: int = 11) -> None:
        self.seed = seed
        #: ``(w_e, w_p, b)`` of the last fit; ``None`` before the first.
        self.solution_theta: np.ndarray | None = None
        #: How the last fit's solve ended: its Newton steps and its largest
        #: projected-gradient entry (``None`` before the first fit).  A
        #: residual above ``TOLERANCE`` means ``MAX_ITERATIONS`` stopped it.
        self.n_iterations_: int | None = None
        self.projected_gradient_: float | None = None
        self._feature_mean: np.ndarray | None = None
        self._feature_scale: np.ndarray | None = None
        self._rff_weights: np.ndarray | None = None
        self._rff_offsets: np.ndarray | None = None
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
        # In place: one buffer the size of the lift instead of three.
        lifted = embeddings @ self._rff_weights
        lifted += self._rff_offsets
        np.cos(lifted, out=lifted)
        lifted *= np.sqrt(2.0 / N_FOURIER_FEATURES)
        return lifted

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
        (the contract of :mod:`repro.models.base`).

        ``theta0`` warm-starts the solve from a previous solution in the same
        random-feature space (the RFF draw is a function of the model seed
        and the embedding width, so every refit of a tuning loop, and every
        refit of one model, lifts into the same space); the
        online loop's refits change only a few feedback rows between fits,
        which makes the previous optimum an excellent starting point.

        Every input is validated before the model is touched, so a fit
        that raises leaves an already-fitted model as it was.
        """
        features, labels = validate_training_inputs(features, labels)
        dim = N_FOURIER_FEATURES
        counts = validate_sample_weight(sample_weight, len(labels))
        start = np.zeros(dim + 2)
        if theta0 is not None:
            start = np.array(theta0, dtype=np.float64)
            if start.shape != (dim + 2,):
                raise ValueError(
                    f"theta0 must have shape ({dim + 2},), got {start.shape}"
                )
            if not np.isfinite(start).all():
                raise ValueError("theta0 must be finite")
            # Project into the feasible box so the solve starts legal.
            start[dim] = min(start[dim], 0.0)
        # Group the rows by the bytes of their raw embedding and sort them
        # by (embedding, p, label, count): the canonical order that makes a
        # fit independent of the order of its rows.
        rows = features[:, :-1]
        first, inverse = group_rows(rows)
        order = np.lexsort((counts, labels, features[:, -1], inverse))
        features, labels, inverse, counts = (
            array[order] for array in (features, labels, inverse, counts)
        )
        n = float(counts.sum())
        self._feature_mean = (counts[:, None] * features[:, :-1]).sum(axis=0) / n
        var = (counts[:, None] * (features[:, :-1] - self._feature_mean) ** 2).sum(axis=0) / n
        self._feature_scale = np.maximum(np.sqrt(var), 1e-8)
        self._rff_weights, self._rff_offsets = _random_features(self.seed, rows.shape[1])
        lifted = self._lift((rows[first] - self._feature_mean) / self._feature_scale)

        y = 2.0 * labels - 1.0                      # {-1, +1}
        # Class weights keep the minority class visible (bottleneck labels
        # are often rare once tuning converges).
        n_pos = max(1.0, float(counts[y > 0].sum()))
        n_neg = max(1.0, float(counts[y < 0].sum()))
        weight = counts * np.where(y > 0, n / (2.0 * n_pos), n / (2.0 * n_neg))
        # Primal smooth (squared-hinge) SVM; the Eq. 5 sign constraint
        # w_p <= 0 is a box bound.  The regulariser follows the usual SVM
        # scaling lambda = 1 / (C n).
        problem = (lifted, inverse, features[:, -1], y, weight / n, 1.0 / (C * n))
        theta, self.n_iterations_, self.projected_gradient_ = _solve(problem, start)
        self.solution_theta = theta
        self._fit_platt(_scores(problem, theta), labels, counts)
        return self

    def _fit_platt(self, margins: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> None:
        """Fit p = sigmoid(a * margin + b0) with a >= 0 (keeps monotonicity).

        The steps reuse four buffers and do :func:`sigmoid`'s IEEE
        operations in its order: ``where(z >= 0, 1, e) / d`` divides
        exactly as the selected ``1 / d`` or ``e / d`` does."""
        n = float(counts.sum())
        a, b0 = 1.0, 0.0
        z, e, d = np.empty((3, len(margins)))
        nonnegative = np.empty(len(margins), dtype=bool)
        for _ in range(120):
            np.add(np.multiply(margins, a, out=z), b0, out=z)
            np.exp(np.minimum(z, np.negative(z, out=e), out=e), out=e)
            np.add(e, 1.0, out=d)
            np.copyto(e, 1.0, where=np.greater_equal(z, 0, out=nonnegative))
            e /= d                                  # sigmoid(z)
            e -= labels
            e *= counts                             # the weighted residual
            grad_a = float(np.multiply(e, margins, out=d).sum()) / n
            grad_b = float(e.sum()) / n
            a -= 0.5 * grad_a
            b0 -= 0.5 * grad_b
            a = max(a, 1e-2)
        self._platt_scale = a
        self._platt_offset = b0

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------

    def _margins(self, embeddings: np.ndarray, parallelism) -> np.ndarray:
        """f(x) for raw embedding rows and their parallelism values."""
        if self.solution_theta is None:
            raise RuntimeError("model is not fitted")
        lifted = self._lift((embeddings - self._feature_mean) / self._feature_scale)
        theta, dim = self.solution_theta, N_FOURIER_FEATURES
        return lifted @ theta[:dim] + theta[dim] * parallelism + theta[dim + 1]

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Margin f(x); positive = predicted bottleneck."""
        features = np.asarray(features, dtype=np.float64)
        return self._margins(features[:, :-1], features[:, -1])

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        margins = self.decision_function(features)
        return sigmoid(self._platt_scale * margins + self._platt_offset)

    # ------------------------------------------------------------------
    # parallelism profiles (fast path for the minimum-degree search)
    # ------------------------------------------------------------------

    def proba_profile(
        self, embedding: np.ndarray, parallelism_values: np.ndarray
    ) -> np.ndarray:
        """Platt-calibrated probabilities of one operator embedding across
        many parallelism values.

        ``f(x) = w_e^T phi(h) + w_p p + b`` touches the kernel lift through
        ``h`` only, so sweeping ``p`` needs a single lifted row rather than
        one per candidate degree — the minimum-parallelism search evaluates
        ``p_max`` candidates with one cosine transform instead of ``p_max``.
        """
        embedding = np.asarray(embedding, dtype=np.float64).reshape(1, -1)
        margins = self._margins(embedding, np.asarray(parallelism_values))
        return sigmoid(self._platt_scale * margins + self._platt_offset)
