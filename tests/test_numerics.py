import math

import numpy as np
import pytest

from hrrpgnn.errors import NumericError
from hrrpgnn.numerics import log_softmax, softmax


def test_softmax_known_values():
    # logits ln 1 and ln 3 give probabilities 1/4 and 3/4
    out = softmax([math.log(1.0), math.log(3.0)])
    np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-15)


def test_softmax_sums_to_one_and_positive(rng):
    for _ in range(200):
        v = rng.normal(0.0, 10.0, size=rng.integers(1, 12))
        p = softmax(v)
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p > 0.0)


def test_softmax_shift_invariance(rng):
    v = rng.normal(size=7)
    np.testing.assert_allclose(softmax(v), softmax(v + 123.0), atol=1e-12)


def test_softmax_extreme_logits_stay_finite():
    p = softmax([1000.0, 0.0, -1000.0])
    assert np.all(np.isfinite(p))
    assert abs(p.sum() - 1.0) <= 1e-12
    assert p[0] > 0.999


def test_softmax_axis_rows():
    m = np.array([[0.0, 0.0], [math.log(1.0), math.log(3.0)]])
    out = softmax(m, axis=1)
    np.testing.assert_allclose(out, [[0.5, 0.5], [0.25, 0.75]], atol=1e-15)


def test_softmax_rejects_non_finite():
    with pytest.raises(NumericError):
        softmax([np.nan, 1.0])
    with pytest.raises(NumericError):
        softmax([np.inf, 1.0])
    # the message states the count and the shape, never the array
    with pytest.raises(NumericError, match=r"got 32064 non-finite entries in shape \(64, 501\)$"):
        softmax(np.full((64, 501), np.nan))


def test_log_softmax_matches_log_of_softmax(rng):
    for _ in range(100):
        v = rng.normal(0.0, 5.0, size=rng.integers(1, 10))
        np.testing.assert_allclose(log_softmax(v), np.log(softmax(v)), atol=1e-12)
    # logits near 1000 would overflow exp() without the max shift
    tail = math.log1p(math.exp(-1.0))
    np.testing.assert_allclose(log_softmax([1000.0, 999.0]), [-tail, -1.0 - tail], atol=1e-12)


def test_log_softmax_exp_sums_to_one(rng):
    v = rng.normal(0.0, 50.0, size=9)
    assert abs(np.exp(log_softmax(v)).sum() - 1.0) <= 1e-12


def test_float64_promotion_from_float32_inputs():
    out = softmax(np.array([0.0, 1.0], dtype=np.float32))
    assert out.dtype == np.float64
