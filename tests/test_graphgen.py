import numpy as np
import pytest

from hrrpgnn.errors import ShapeError
from hrrpgnn.graphgen import (
    HrrpSample,
    build_adjacency,
    factored_adjacency_batch,
    reciprocal_distance,
)


def dense_stack(h):
    """The per-sample definition, stacked: the reference for the factored form."""
    return np.stack([build_adjacency(row) for row in h])


def test_adjacency_worked_example():
    # h = [1, 3]: diagonal h^2, off-diagonal 1*3/2
    e = build_adjacency([1.0, 3.0])
    np.testing.assert_array_equal(e, [[1.0, 1.5], [1.5, 9.0]])


def test_reciprocal_distance_small():
    r = reciprocal_distance(3)
    np.testing.assert_array_equal(r, [[1, 0.5, 1 / 3], [0.5, 1, 0.5], [1 / 3, 0.5, 1]])


def test_adjacency_symmetric_exactly(rng):
    for _ in range(50):
        h = rng.normal(size=rng.integers(1, 40))
        e = build_adjacency(h)
        np.testing.assert_array_equal(e, e.T)


def test_adjacency_diagonal_is_squared_amplitude(rng):
    h = rng.normal(size=25)
    e = build_adjacency(h)
    np.testing.assert_array_equal(np.diag(e), h * h)


def test_adjacency_rank_one_after_distance_unscaling(rng):
    """e[i,j] * (|i-j|+1) recovers the outer product h h^T."""
    for _ in range(50):
        n = int(rng.integers(2, 40))
        h = rng.normal(size=n)
        e = build_adjacency(h)
        idx = np.arange(n, dtype=np.float64)
        dist = np.abs(idx[:, None] - idx[None, :]) + 1.0
        np.testing.assert_allclose(e * dist, np.outer(h, h), rtol=1e-12, atol=1e-12)


def test_adjacency_quadratic_amplitude_scaling(rng):
    for _ in range(20):
        h = rng.normal(size=17)
        c = float(rng.uniform(0.1, 4.0))
        np.testing.assert_allclose(
            build_adjacency(c * h), c * c * build_adjacency(h), rtol=1e-12, atol=1e-12
        )


def test_adjacency_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        build_adjacency(np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        build_adjacency(np.zeros(0))
    with pytest.raises(ShapeError):
        factored_adjacency_batch(np.zeros(5))


def test_batch_adjacency_matches_per_sample(rng):
    """Each sample of a batch gets its own operator: no mixing across the batch axis."""
    h = rng.normal(size=(4, 11))
    x = rng.normal(size=(4, 3, 11))
    batch = factored_adjacency_batch(h).matmul_right(x)
    assert batch.shape == (4, 3, 11)
    for b in range(4):
        alone = factored_adjacency_batch(h[b : b + 1]).matmul_right(x[b : b + 1])[0]
        np.testing.assert_array_equal(batch[b], alone)
        np.testing.assert_allclose(batch[b], x[b] @ build_adjacency(h[b]), rtol=1e-12, atol=1e-12)


def test_sample_validation():
    with pytest.raises(ShapeError):
        HrrpSample(np.zeros((2, 2)), label=0)


def test_factored_dense_matches_batch(rng):
    """I @ E recovers each explicit edge matrix from the factored form."""
    h = rng.uniform(0.0, 2.0, size=(3, 9))
    fac = factored_adjacency_batch(h)
    eye = np.broadcast_to(np.eye(9), (3, 9, 9))
    np.testing.assert_allclose(fac.matmul_right(eye), dense_stack(h), rtol=0, atol=1e-15)
    assert fac.batch_size == 3 and fac.n_nodes == 9


def test_factored_matmul_right_matches_dense_product(rng):
    h = rng.uniform(0.0, 2.0, size=(3, 9))
    x = rng.normal(size=(3, 5, 9))
    fac = factored_adjacency_batch(h)
    expected = x @ dense_stack(h)
    np.testing.assert_allclose(fac.matmul_right(x), expected, rtol=1e-12, atol=1e-12)


def test_factored_matmul_right_shape_check(rng):
    fac = factored_adjacency_batch(rng.normal(size=(2, 6)))
    with pytest.raises(ShapeError):
        fac.matmul_right(np.zeros((2, 3, 7)))
    with pytest.raises(ShapeError):
        fac.matmul_right(np.zeros((3, 3, 6)))


def test_factored_is_frozen(rng):
    fac = factored_adjacency_batch(rng.normal(size=(2, 6)))
    with pytest.raises(AttributeError):
        fac.recip = np.zeros((6, 6))
