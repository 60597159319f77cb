"""Every M_f fit of a StreamTune campaign solves Eq. 5 to its optimum.

The fit is exact, so a warm start may change how many Newton steps it
takes but not where it ends: a campaign tuned with every fit started cold
makes the same recommendations.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.api import CampaignPlan, TuningPlan, TuningSession
from repro.models import MonotonicSVM, svm
from tests.conftest import svm_projected_gradient

PLANS = {
    "inline": TuningPlan(query="q5", rates=(3, 7, 4), scale="smoke"),
    "fleet": CampaignPlan(
        queries=("q1", "q5", "linear/0"), rates=(3, 7), backend="thread",
        workers=2, scale="smoke", seed=41,
    ),
}


def _decisions(result) -> list:
    return [
        (step.parallelisms, step.reconfigured, step.backpressure_after)
        for outcome in result.outcomes
        for process in outcome.processes
        for step in process.steps
    ]


def _run(pretrained, plan, monkeypatch, cold=False):
    """Run ``plan``; returns its decisions and, per fit, the fitted model,
    an unfitted copy taken just before the fit, and the fit's arguments."""
    fits = []
    original = MonotonicSVM.fit

    def fit(model, features, labels, sample_weight=None, theta0=None):
        unfitted = copy.deepcopy(model)
        if cold:
            theta0 = None
        original(model, features, labels, sample_weight=sample_weight, theta0=theta0)
        fits.append((model, unfitted, features, labels, sample_weight, theta0))
        return model

    with monkeypatch.context() as patch:
        patch.setattr(MonotonicSVM, "fit", fit)
        result = TuningSession(pretrained=pretrained).run(plan)
    return _decisions(result), fits


@pytest.mark.parametrize("kind", sorted(PLANS))
def test_every_fit_ends_at_the_optimum(tiny_pretrained, monkeypatch, kind):
    _, fits = _run(tiny_pretrained, PLANS[kind], monkeypatch)
    assert fits
    for model, _, features, labels, weights, _ in fits:
        assert model.n_iterations_ < svm.MAX_ITERATIONS
        assert model.projected_gradient_ <= svm.TOLERANCE
        assert svm_projected_gradient(model, features, labels, weights) <= svm.TOLERANCE


@pytest.mark.parametrize("kind", sorted(PLANS))
def test_cold_and_warm_starts_reach_the_same_optimum(tiny_pretrained, monkeypatch, kind):
    warm_decisions, fits = _run(tiny_pretrained, PLANS[kind], monkeypatch)
    warm_started = [fit for fit in fits if fit[5] is not None]
    assert warm_started
    for model, unfitted, features, labels, weights, _ in warm_started:
        cold = unfitted.fit(features, labels, sample_weight=weights)
        assert np.linalg.norm(cold.solution_theta - model.solution_theta) <= (
            1e-9 * np.linalg.norm(model.solution_theta)
        )
    cold_decisions, _ = _run(tiny_pretrained, PLANS[kind], monkeypatch, cold=True)
    assert cold_decisions == warm_decisions
