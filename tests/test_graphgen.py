import numpy as np
import pytest

from hrrpgnn.errors import ShapeError
from hrrpgnn.graphgen import reciprocal_distance
from hrrpgnn.layers import GraphConv
from oracle_reference import build_adjacency


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


def _adjacency_product(n_features, n_nodes):
    """A graph conv whose output is X @ E read out by the mean: W1 = 0, W2 = I, zero bias."""
    gc = GraphConv(n_features, n_features, n_nodes, np.random.default_rng(0))
    gc.w1[...] = 0.0
    gc.w2[...] = np.eye(n_features)
    return gc


def test_factored_matmul_right_matches_dense_product(rng):
    """GraphConv's factored ((X * h) @ R) * h equals X times the dense adjacency stack,
    and its mean readout is that product's row mean."""
    h = rng.uniform(0.0, 2.0, size=(3, 9))
    x = rng.normal(size=(3, 5, 9))
    expected = x @ np.stack([build_adjacency(a) for a in h])
    gc = _adjacency_product(5, 9)
    out = gc._times_adjacency(x, h[:, None, :])
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(gc.forward(x, h), expected.mean(axis=2), rtol=1e-12, atol=1e-12)


def test_factored_matmul_right_shape_check(rng):
    h = rng.normal(size=(2, 6))
    with pytest.raises(ShapeError, match="amplitudes"):
        # node count of X differs from the amplitudes'
        _adjacency_product(3, 7).forward(np.zeros((2, 3, 7)), h)
    with pytest.raises(ShapeError, match="amplitudes"):
        # batch of X differs from the amplitudes'
        _adjacency_product(3, 6).forward(np.zeros((3, 3, 6)), h)
