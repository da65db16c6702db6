import math

import numpy as np
import pytest

import hrrpgnn.layers
from hrrpgnn.errors import ConfigError, ShapeError, UsageError
from hrrpgnn.gradcheck import finite_diff_check
from hrrpgnn.graphgen import build_adjacency
from hrrpgnn.layers import (
    AttentionPool,
    BatchNorm1d,
    Conv1d,
    Dense,
    GraphConv,
    LeakyReLU,
    MeanPool,
    uniform_init,
)

# ---- worked examples ------------------------------------------------------------


def test_conv_worked_example():
    # single channel [1,2,3,4] against taps [1,0,-1], zero pads at both ends
    conv = Conv1d(1, 1, np.random.default_rng(0))
    conv.kernels[0, 0] = [1.0, 0.0, -1.0]
    out = conv.forward(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
    np.testing.assert_allclose(out, [[[-2.0, -2.0, -2.0, 3.0]]], atol=1e-15)


def test_conv_preserves_length(rng):
    conv = Conv1d(2, 5, rng)
    out = conv.forward(rng.normal(size=(1, 2, 33)))
    assert out.shape == (1, 5, 33)


def test_conv_needs_kernel_width_positions(rng):
    conv = Conv1d(1, 1, rng)
    with pytest.raises(ShapeError):
        conv.forward(np.zeros((1, 1, 2)))


def test_conv_channel_mismatch(rng):
    conv = Conv1d(2, 1, rng)
    with pytest.raises(ShapeError):
        conv.forward(np.zeros((1, 3, 8)))


def test_batchnorm_worked_example():
    # batch values 1 and 3: mean 2, population variance 1
    bn = BatchNorm1d(1)
    out = bn.forward(np.array([[[1.0]], [[3.0]]]), training=True)
    expected = 1.0 / math.sqrt(1.0 + 1e-5)
    np.testing.assert_allclose(out.ravel(), [-expected, expected], atol=1e-12)
    assert abs(out.ravel()[1] - 0.99999) < 1e-4


def test_batchnorm_running_stats_update():
    bn = BatchNorm1d(1)
    bn.forward(np.array([[[1.0]], [[3.0]]]), training=True)
    np.testing.assert_allclose(bn.running_mean, [0.9 * 0.0 + 0.1 * 2.0])
    np.testing.assert_allclose(bn.running_var, [0.9 * 1.0 + 0.1 * 1.0])


def test_batchnorm_eval_uses_running_stats():
    bn = BatchNorm1d(1)
    bn.running_mean[...] = 5.0
    bn.running_var[...] = 4.0
    out = bn.forward(np.array([[[7.0]]]), training=False)
    np.testing.assert_allclose(out, [[[2.0 / math.sqrt(4.0 + 1e-5)]]], atol=1e-12)


def test_batchnorm_training_rejects_single_sample():
    bn = BatchNorm1d(1)
    with pytest.raises(ConfigError):
        bn.forward(np.array([[[1.0, 2.0]]]), training=True)


def test_graphconv_worked_example(rng):
    gc = GraphConv(1, 1, 2, rng)
    gc.w1[...] = [[2.0]]
    gc.w2[...] = [[1.0]]
    out = gc.forward(np.array([[[1.0, 3.0]]]), [[1.0, 3.0]])
    np.testing.assert_allclose(out, [[[7.5, 34.5]]], atol=1e-12)


def test_graphconv_factored_matches_dense(rng):
    """Forward and backward agree with the same layer written on the dense e[i, j] stack."""
    gc = GraphConv(3, 4, 10, rng)
    gc.bias[...] = rng.normal(size=gc.bias.shape)
    amps = rng.uniform(0.0, 2.0, size=(5, 10))
    x = rng.normal(size=(5, 3, 10))
    dense = np.stack([build_adjacency(a) for a in amps])
    out = gc.forward(x, amps)
    expected = gc.w1 @ x + gc.w2 @ (x @ dense) + gc.bias
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)

    g = rng.normal(size=out.shape)
    gx = gc.backward(g)
    expected_gx = gc.w1.T @ g + (gc.w2.T @ g) @ dense.transpose(0, 2, 1)
    np.testing.assert_allclose(gx, expected_gx, rtol=1e-12, atol=1e-12)
    expected_gw2 = np.einsum("bgn,bdn->gd", g, x @ dense)
    np.testing.assert_allclose(gc.g_w2, expected_gw2, rtol=1e-12, atol=1e-12)


def _adjacency_only(n_features, n_nodes):
    """A graph conv whose output is X @ E: W1 = 0, W2 = I, zero bias."""
    gc = GraphConv(n_features, n_features, n_nodes, np.random.default_rng(0))
    gc.w1[...] = 0.0
    gc.w2[...] = np.eye(n_features)
    return gc


def test_graphconv_batch_matches_per_sample(rng):
    """Each sample of a batch gets its own adjacency: no mixing across the batch axis."""
    h = rng.normal(size=(4, 11))
    x = rng.normal(size=(4, 3, 11))
    gc = _adjacency_only(3, 11)
    batch = gc.forward(x, h)
    assert batch.shape == (4, 3, 11)
    for b in range(4):
        alone = gc.forward(x[b : b + 1], h[b : b + 1])[0]
        np.testing.assert_array_equal(batch[b], alone)
        np.testing.assert_allclose(batch[b], x[b] @ build_adjacency(h[b]), rtol=1e-12, atol=1e-12)


def test_graphconv_recovers_dense_adjacency(rng):
    """Identity node features turn X @ E into E: the factored product reproduces the definition."""
    h = rng.uniform(0.0, 2.0, size=(3, 9))
    eye = np.broadcast_to(np.eye(9), (3, 9, 9))
    dense = np.stack([build_adjacency(row) for row in h])
    np.testing.assert_allclose(_adjacency_only(9, 9).forward(eye, h), dense, rtol=0, atol=1e-15)


def test_graphconv_never_rebuilds_reciprocal_distance(rng, monkeypatch):
    """R is built once with the layer; forward and backward reuse it."""
    gc = GraphConv(2, 3, 6, rng)
    np.testing.assert_array_equal(gc.recip, hrrpgnn.layers.reciprocal_distance(6))

    def rebuilt(n_cells):
        raise AssertionError("reciprocal_distance called after construction")

    monkeypatch.setattr(hrrpgnn.layers, "reciprocal_distance", rebuilt)
    out = gc.forward(rng.normal(size=(2, 2, 6)), rng.uniform(0.5, 1.5, size=(2, 6)), training=True)
    gc.backward(rng.normal(size=out.shape))


def test_graphconv_shape_mismatches(rng):
    gc = GraphConv(1, 2, 4, rng)
    with pytest.raises(ShapeError):
        # nodes must be batched
        gc.forward(np.zeros((1, 4)), np.ones((1, 4)))
    with pytest.raises(ShapeError):
        gc.forward(np.zeros((1, 2, 4)), np.ones((1, 4)))
    with pytest.raises(ShapeError, match="amplitudes"):
        # amplitudes must be batched
        gc.forward(np.zeros((1, 1, 4)), np.ones(4))
    with pytest.raises(ShapeError, match="amplitudes"):
        # amplitudes cover a different batch
        gc.forward(np.zeros((2, 1, 4)), np.ones((1, 4)))
    with pytest.raises(ShapeError, match="amplitudes"):
        # amplitudes cover a different node count
        gc.forward(np.zeros((1, 1, 4)), np.ones((1, 3)))
    with pytest.raises(ShapeError, match="built for 4 nodes"):
        # the layer pins the node count
        gc.forward(np.zeros((1, 1, 5)), np.ones((1, 5)))


def test_attention_worked_example(rng):
    att = AttentionPool(1, rng)
    att.w[...] = math.log(3.0)
    out = att.forward(np.array([[[1.0, 3.0]]]))
    np.testing.assert_allclose(att.attention_weights(), [[0.1, 0.9]], atol=1e-12)
    np.testing.assert_allclose(out, [[2.8]], atol=1e-12)


def test_attention_weights_sum_to_one(rng):
    att = AttentionPool(4, rng)
    att.forward(rng.normal(size=(6, 4, 13)))
    alpha = att.attention_weights()
    np.testing.assert_allclose(alpha.sum(axis=1), np.ones(6), atol=1e-12)


def test_attention_output_in_coordinate_hull(rng):
    att = AttentionPool(3, rng)
    x = rng.normal(size=(5, 3, 9))
    pooled = att.forward(x)
    assert np.all(pooled >= x.min(axis=2) - 1e-12)
    assert np.all(pooled <= x.max(axis=2) + 1e-12)


def test_mean_pool_is_column_mean(rng):
    x = rng.normal(size=(2, 3, 7))
    np.testing.assert_allclose(MeanPool().forward(x), x.mean(axis=2), atol=1e-15)


def test_dense_worked_example(rng):
    fc = Dense(2, 2, rng)
    fc.w[...] = [[1.0, 1.0], [0.0, 2.0]]
    fc.b[...] = [0.0, 1.0]
    np.testing.assert_array_equal(fc.forward(np.array([[3.0, 4.0]])), [[7.0, 9.0]])


def test_leaky_relu_layer_roundtrip(rng):
    act = LeakyReLU()
    x = rng.normal(size=(3, 4))
    out = act.forward(x)
    np.testing.assert_array_equal(out, np.where(x >= 0, x, LeakyReLU.SLOPE * x))
    g = rng.normal(size=x.shape)
    np.testing.assert_array_equal(act.backward(g), np.where(x >= 0, g, LeakyReLU.SLOPE * g))


def test_leaky_relu_values():
    out = LeakyReLU().forward([-2.0, 0.0, 3.0])
    np.testing.assert_array_equal(out, [-2.0 * LeakyReLU.SLOPE, 0.0, 3.0])


# ---- batching, caching, gradient slots ----------------------------------------


def test_layers_reject_unbatched_input(rng):
    """Layers run on batches only; a single unbatched sample is a ShapeError."""
    cases = [
        (Conv1d(1, 1, rng), (np.zeros((1, 4)),)),
        (BatchNorm1d(1), (np.zeros((1, 4)),)),
        (GraphConv(1, 1, 4, rng), (np.zeros((1, 4)), np.ones((1, 4)))),
        (AttentionPool(1, rng), (np.zeros((1, 4)),)),
        (MeanPool(), (np.zeros((1, 4)),)),
        (Dense(1, 1, rng), (np.zeros(1),)),
    ]
    for layer, args in cases:
        with pytest.raises(ShapeError, match="batch"):
            layer.forward(*args)


def test_backward_before_forward_raises(rng):
    for layer in (Conv1d(1, 1, rng), BatchNorm1d(1), GraphConv(1, 1, 3, rng),
                  AttentionPool(1, rng), MeanPool(), Dense(1, 1, rng), LeakyReLU()):
        with pytest.raises(UsageError):
            layer.backward(np.zeros(1))


def test_gradient_slots_are_filled_in_place(rng):
    """Optimizers capture (param, grad) references once; backward must not rebind."""
    layers = {
        "conv": Conv1d(2, 3, rng),
        "bn": BatchNorm1d(2),
        "gconv": GraphConv(2, 3, 5, rng),
        "att": AttentionPool(2, rng),
        "fc": Dense(2, 3, rng),
    }
    grabbed = {
        name: [(pname, param, grad) for pname, param, grad in layer.tensors(name)]
        for name, layer in layers.items()
    }

    x = rng.normal(size=(4, 2, 5))
    layers["conv"].forward(x)
    layers["conv"].backward(rng.normal(size=(4, 3, 5)))
    layers["bn"].forward(x, training=True)
    layers["bn"].backward(rng.normal(size=x.shape))
    layers["gconv"].forward(x, rng.uniform(0.5, 1.5, size=(4, 5)))
    layers["gconv"].backward(rng.normal(size=(4, 3, 5)))
    layers["att"].forward(x)
    layers["att"].backward(rng.normal(size=(4, 2)))
    layers["fc"].forward(rng.normal(size=(4, 2)))
    layers["fc"].backward(rng.normal(size=(4, 3)))

    for name, layer in layers.items():
        for (pname, param, grad), (pname2, param2, grad2) in zip(
            grabbed[name], layer.tensors(name)
        ):
            assert pname == pname2
            assert param is param2, f"{pname} parameter was rebound"
            assert grad is grad2, f"{pname} gradient slot was rebound"
            assert np.any(grad != 0.0), f"{pname} gradient slot never written"


def test_uniform_init_bounds_and_spread(rng):
    fan_in = 48
    w = uniform_init(rng, (400, fan_in), fan_in)
    bound = math.sqrt(1.0 / fan_in)
    assert np.all(np.abs(w) <= bound)
    # uniform(-b, b) has standard deviation b / sqrt(3)
    expected = math.sqrt(1.0 / (3.0 * fan_in))
    assert abs(w.std() - expected) / expected < 0.15


# ---- finite difference harness ---------------------------------------------------


def test_finite_diff_check_accepts_correct_gradient():
    theta = np.array([3.0])
    err = finite_diff_check(lambda: float(theta[0] ** 2), theta, np.array([6.0]))
    assert err <= 1e-8


def test_finite_diff_check_flags_wrong_gradient():
    theta = np.array([3.0])
    err = finite_diff_check(lambda: float(theta[0] ** 2), theta, np.array([12.0]))
    assert abs(err - 0.5) < 1e-6


def test_finite_diff_check_restores_theta():
    theta = np.array([1.0, -2.0])
    finite_diff_check(lambda: float((theta ** 2).sum()), theta, 2.0 * theta)
    np.testing.assert_array_equal(theta, [1.0, -2.0])


def test_finite_diff_check_shape_guard():
    theta = np.array([1.0, 2.0])
    with pytest.raises(ShapeError):
        finite_diff_check(lambda: 0.0, theta, np.zeros(3))
