"""Property-based tests for the minimum-parallelism search.

For any *monotone* bottleneck predicate (bottleneck at low degrees, safe
from some threshold on), :func:`min_feasible_parallelism` must return the
exact threshold — the true minimum feasible degree.  For non-monotone
predictors the result must be rejected by the strict search
(``tests/conftest.py::strict_min_feasible_parallelism``) and handled
deterministically otherwise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.search import min_feasible_parallelism
from tests.conftest import strict_min_feasible_parallelism


def _degrees(p_max: int) -> np.ndarray:
    """The search's grid when degree ``p``'s feature is ``p`` itself."""
    return np.arange(1, p_max + 1, dtype=np.float64)


class GradedPredictor:
    """A predictor whose probability for degree ``p`` is ``probabilities[p - 1]``."""

    def __init__(self, probabilities: np.ndarray) -> None:
        self.probabilities = probabilities

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return self.probabilities[features[:, -1].astype(int) - 1]


class ArrayPredictor:
    """A predictor whose verdicts are read off a fixed boolean array.

    Row ``i`` of the probe matrix corresponds to parallelism ``i + 1``
    because the search probes degrees in ascending order with the
    (normalised) degree in the last column; the stub looks the verdict up
    through that column, so it behaves identically however the search
    chooses to batch its probes.
    """

    def __init__(self, bottleneck: np.ndarray) -> None:
        self.bottleneck = np.asarray(bottleneck, dtype=bool)

    def _verdicts(self, features: np.ndarray) -> np.ndarray:
        degrees = features[:, -1].astype(int)
        return self.bottleneck[degrees - 1]

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return np.where(self._verdicts(features), 0.9, 0.1)


#: The bottleneck probability threshold every search here uses; the
#: stub's probabilities (0.9 / 0.1) sit on either side of it.
THRESHOLD = 0.5


def _monotone_array(p_max: int, threshold: int) -> np.ndarray:
    """Bottleneck below ``threshold``, feasible from it on (1-indexed)."""
    degrees = np.arange(1, p_max + 1)
    return degrees < threshold


@given(
    p_max=st.integers(min_value=1, max_value=120),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_monotone_predictor_returns_true_minimum(p_max, data):
    threshold = data.draw(st.integers(min_value=1, max_value=p_max + 1))
    model = ArrayPredictor(_monotone_array(p_max, threshold))
    result = min_feasible_parallelism(
        model, np.zeros(3), _degrees(p_max), THRESHOLD
    )
    expected = min(threshold, p_max)  # all-bottleneck arrays cap at p_max
    assert result == expected
    # the strict search accepts every monotone predicate
    assert (
        strict_min_feasible_parallelism(
            model, np.zeros(3), _degrees(p_max), THRESHOLD
        )
        == expected
    )


@given(
    p_max=st.integers(min_value=1, max_value=120),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_threshold_cuts_a_graded_probability_surface(p_max, data):
    # A probability falling with the degree: the search returns the first
    # degree whose probability is under the threshold, and a higher
    # threshold never asks for more parallelism.
    probabilities = np.sort(
        data.draw(st.lists(st.floats(0.0, 1.0), min_size=p_max, max_size=p_max))
    )[::-1]
    low, high = sorted(data.draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
    model = GradedPredictor(probabilities)
    results = []
    for threshold in (low, high):
        result = min_feasible_parallelism(
            model, np.zeros(3), _degrees(p_max), threshold
        )
        below = np.flatnonzero(probabilities < threshold)
        assert result == (int(below[0]) + 1 if len(below) else p_max)
        results.append(result)
    assert results[1] <= results[0]


@given(
    bottleneck=st.lists(st.booleans(), min_size=2, max_size=80),
)
@settings(max_examples=300, deadline=None)
def test_any_predicate_is_handled_deterministically(bottleneck):
    array = np.asarray(bottleneck, dtype=bool)
    p_max = len(array)
    model = ArrayPredictor(array)
    first = min_feasible_parallelism(
        model, np.zeros(2), _degrees(p_max), THRESHOLD
    )
    second = min_feasible_parallelism(
        model, np.zeros(2), _degrees(p_max), THRESHOLD
    )
    # Deterministic and in range, monotone or not.
    assert first == second
    assert 1 <= first <= p_max
    # The returned degree is never a *detectable* lie on monotone inputs;
    # on any input, returning p_max is allowed only when p_max is flagged
    # or the predicate is non-monotone.
    rising = bool(np.any(array[1:] & ~array[:-1]))
    if not rising:
        expected = p_max if array.all() else int(np.argmin(array)) + 1
        assert first == expected


@given(
    bottleneck=st.lists(st.booleans(), min_size=2, max_size=80),
)
@settings(max_examples=300, deadline=None)
def test_strict_rejects_exactly_the_non_monotone_predicates(bottleneck):
    array = np.asarray(bottleneck, dtype=bool)
    model = ArrayPredictor(array)
    rising = bool(np.any(array[1:] & ~array[:-1]))
    if rising:
        with pytest.raises(ValueError, match="not monotone"):
            strict_min_feasible_parallelism(
                model, np.zeros(2), _degrees(len(array)), THRESHOLD
            )
    else:
        result = strict_min_feasible_parallelism(
            model, np.zeros(2), _degrees(len(array)), THRESHOLD
        )
        assert 1 <= result <= len(array)


def test_invalid_p_max_rejected():
    model = ArrayPredictor(np.array([True]))
    with pytest.raises(ValueError):
        min_feasible_parallelism(model, np.zeros(2), _degrees(0), THRESHOLD)
