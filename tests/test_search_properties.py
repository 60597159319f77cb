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


def _identity_normalize(p: int) -> float:
    return float(p)


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

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self._verdicts(features).astype(np.int64)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return np.where(self._verdicts(features), 0.9, 0.1)


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
        model, np.zeros(3), p_max, _identity_normalize
    )
    expected = min(threshold, p_max)  # all-bottleneck arrays cap at p_max
    assert result == expected
    # the strict search accepts every monotone predicate
    assert (
        strict_min_feasible_parallelism(
            model, np.zeros(3), p_max, _identity_normalize
        )
        == expected
    )


@given(
    p_max=st.integers(min_value=1, max_value=120),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_probability_threshold_path_matches_predict_path(p_max, data):
    threshold = data.draw(st.integers(min_value=1, max_value=p_max + 1))
    model = ArrayPredictor(_monotone_array(p_max, threshold))
    by_class = min_feasible_parallelism(model, np.zeros(3), p_max, _identity_normalize)
    by_probability = min_feasible_parallelism(
        model, np.zeros(3), p_max, _identity_normalize, probability_threshold=0.5
    )
    assert by_class == by_probability


@given(
    bottleneck=st.lists(st.booleans(), min_size=2, max_size=80),
)
@settings(max_examples=300, deadline=None)
def test_any_predicate_is_handled_deterministically(bottleneck):
    array = np.asarray(bottleneck, dtype=bool)
    p_max = len(array)
    model = ArrayPredictor(array)
    first = min_feasible_parallelism(model, np.zeros(2), p_max, _identity_normalize)
    second = min_feasible_parallelism(model, np.zeros(2), p_max, _identity_normalize)
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
                model, np.zeros(2), len(array), _identity_normalize
            )
    else:
        result = strict_min_feasible_parallelism(
            model, np.zeros(2), len(array), _identity_normalize
        )
        assert 1 <= result <= len(array)


def test_invalid_p_max_rejected():
    model = ArrayPredictor(np.array([True]))
    with pytest.raises(ValueError):
        min_feasible_parallelism(model, np.zeros(2), 0, _identity_normalize)
