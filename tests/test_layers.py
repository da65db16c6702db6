import math

import numpy as np
import pytest

from hrrpgnn.errors import ConfigError, ShapeError, UsageError
from hrrpgnn.graphgen import build_adjacency, factored_adjacency_batch
from hrrpgnn.layers import (
    AttentionPool,
    BatchNorm1d,
    Conv1d,
    Dense,
    GraphConv,
    LeakyReLU,
    MeanPool,
    finite_diff_check,
    uniform_init,
)

# ---- worked examples ------------------------------------------------------------


def test_conv_worked_example():
    # single channel [1,2,3,4] against taps [1,0,-1], zero pads at both ends
    conv = Conv1d(1, 1)
    conv.kernels[0, 0] = [1.0, 0.0, -1.0]
    out = conv.forward(np.array([[[1.0, 2.0, 3.0, 4.0]]]))
    np.testing.assert_allclose(out, [[[-2.0, -2.0, -2.0, 3.0]]], atol=1e-15)


def test_conv_preserves_length(rng):
    conv = Conv1d(2, 5)
    conv.init(rng)
    out = conv.forward(rng.normal(size=(1, 2, 33)))
    assert out.shape == (1, 5, 33)


def test_conv_needs_kernel_width_positions():
    conv = Conv1d(1, 1)
    with pytest.raises(ShapeError):
        conv.forward(np.zeros((1, 1, 2)))


def test_conv_channel_mismatch():
    conv = Conv1d(2, 1)
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
    bn = BatchNorm1d(1, momentum=0.1)
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


def test_batchnorm_config_validation():
    with pytest.raises(ConfigError):
        BatchNorm1d(1, eps=0.0)
    with pytest.raises(ConfigError):
        BatchNorm1d(1, momentum=1.0)


def test_graphconv_worked_example():
    gc = GraphConv(1, 1, 2)
    gc.w1[...] = [[2.0]]
    gc.w2[...] = [[1.0]]
    out = gc.forward(np.array([[[1.0, 3.0]]]), factored_adjacency_batch([[1.0, 3.0]]))
    np.testing.assert_allclose(out, [[[7.5, 34.5]]], atol=1e-12)


def test_graphconv_factored_matches_dense(rng):
    """Forward and backward agree with the same layer written on the dense e[i, j] stack."""
    gc = GraphConv(3, 4, 10)
    gc.init(rng)
    gc.bias[...] = rng.normal(size=gc.bias.shape)
    amps = rng.uniform(0.0, 2.0, size=(5, 10))
    x = rng.normal(size=(5, 3, 10))
    dense = np.stack([build_adjacency(a) for a in amps])
    out = gc.forward(x, factored_adjacency_batch(amps))
    expected = gc.w1 @ x + gc.w2 @ (x @ dense) + gc.bias
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12)

    g = rng.normal(size=out.shape)
    gx = gc.backward(g)
    expected_gx = gc.w1.T @ g + (gc.w2.T @ g) @ dense.transpose(0, 2, 1)
    np.testing.assert_allclose(gx, expected_gx, rtol=1e-12, atol=1e-12)
    expected_gw2 = np.einsum("bgn,bdn->gd", g, x @ dense)
    np.testing.assert_allclose(gc.g_w2, expected_gw2, rtol=1e-12, atol=1e-12)


def test_graphconv_shape_mismatches(rng):
    gc = GraphConv(1, 2, 4)
    with pytest.raises(ShapeError):
        # nodes must be batched
        gc.forward(np.zeros((1, 4)), factored_adjacency_batch(np.ones((1, 4))))
    with pytest.raises(ShapeError):
        gc.forward(np.zeros((1, 2, 4)), factored_adjacency_batch(np.ones((1, 4))))
    with pytest.raises(ShapeError):
        # adjacency covers a different batch
        gc.forward(np.zeros((2, 1, 4)), factored_adjacency_batch(np.ones((1, 4))))
    with pytest.raises(ShapeError):
        # adjacency covers a different node count
        gc.forward(np.zeros((1, 1, 4)), factored_adjacency_batch(np.ones((1, 3))))
    with pytest.raises(ShapeError):
        # per-node bias pins the node count
        gc.forward(np.zeros((1, 1, 5)), factored_adjacency_batch(np.ones((1, 5))))


def test_graphconv_shared_bias_broadcasts(rng):
    gc = GraphConv(1, 2, 4, per_node_bias=False)
    assert gc.bias.shape == (2, 1)
    gc.bias[...] = [[1.0], [2.0]]
    # the node count is free: 7 nodes against a layer built for 4
    out = gc.forward(np.zeros((1, 1, 7)), factored_adjacency_batch(np.zeros((1, 7))))
    np.testing.assert_array_equal(out, [[[1.0] * 7, [2.0] * 7]])


def test_attention_worked_example():
    att = AttentionPool(1)
    att.w[...] = math.log(3.0)
    out = att.forward(np.array([[[1.0, 3.0]]]))
    np.testing.assert_allclose(att.attention_weights(), [[0.1, 0.9]], atol=1e-12)
    np.testing.assert_allclose(out, [[2.8]], atol=1e-12)


def test_attention_weights_sum_to_one(rng):
    att = AttentionPool(4)
    att.init(rng)
    att.forward(rng.normal(size=(6, 4, 13)))
    alpha = att.attention_weights()
    np.testing.assert_allclose(alpha.sum(axis=1), np.ones(6), atol=1e-12)


def test_attention_output_in_coordinate_hull(rng):
    att = AttentionPool(3)
    att.init(rng)
    x = rng.normal(size=(5, 3, 9))
    pooled = att.forward(x)
    assert np.all(pooled >= x.min(axis=2) - 1e-12)
    assert np.all(pooled <= x.max(axis=2) + 1e-12)


def test_mean_pool_is_column_mean(rng):
    x = rng.normal(size=(2, 3, 7))
    np.testing.assert_allclose(MeanPool().forward(x), x.mean(axis=2), atol=1e-15)


def test_dense_worked_example():
    fc = Dense(2, 2)
    fc.w[...] = [[1.0, 1.0], [0.0, 2.0]]
    fc.b[...] = [0.0, 1.0]
    np.testing.assert_array_equal(fc.forward(np.array([[3.0, 4.0]])), [[7.0, 9.0]])


def test_leaky_relu_layer_roundtrip(rng):
    act = LeakyReLU(0.25)
    x = rng.normal(size=(3, 4))
    out = act.forward(x)
    np.testing.assert_array_equal(out, np.where(x >= 0, x, 0.25 * x))
    g = rng.normal(size=x.shape)
    np.testing.assert_array_equal(act.backward(g), np.where(x >= 0, g, 0.25 * g))


def test_leaky_relu_values():
    out = LeakyReLU(0.1).forward([-2.0, 0.0, 3.0])
    np.testing.assert_array_equal(out, [-0.2, 0.0, 3.0])


def test_leaky_relu_slope_bounds():
    with pytest.raises(ConfigError):
        LeakyReLU(0.0)
    with pytest.raises(ConfigError):
        LeakyReLU(1.0)


# ---- batching, caching, gradient slots ----------------------------------------


def test_layers_reject_unbatched_input():
    """Layers run on batches only; a single unbatched sample is a ShapeError."""
    cases = [
        (Conv1d(1, 1), (np.zeros((1, 4)),)),
        (BatchNorm1d(1), (np.zeros((1, 4)),)),
        (GraphConv(1, 1, 4), (np.zeros((1, 4)), factored_adjacency_batch(np.ones((1, 4))))),
        (AttentionPool(1), (np.zeros((1, 4)),)),
        (MeanPool(), (np.zeros((1, 4)),)),
        (Dense(1, 1), (np.zeros(1),)),
    ]
    for layer, args in cases:
        with pytest.raises(ShapeError, match="batch"):
            layer.forward(*args)


def test_backward_before_forward_raises():
    for layer in (Conv1d(1, 1), BatchNorm1d(1), GraphConv(1, 1, 3),
                  AttentionPool(1), MeanPool(), Dense(1, 1), LeakyReLU()):
        with pytest.raises(UsageError):
            layer.backward(np.zeros(1))


def test_gradient_slots_are_filled_in_place(rng):
    """Optimizers capture (param, grad) references once; backward must not rebind."""
    layers = {
        "conv": Conv1d(2, 3),
        "bn": BatchNorm1d(2),
        "gconv": GraphConv(2, 3, 5),
        "att": AttentionPool(2),
        "fc": Dense(2, 3),
    }
    for layer in layers.values():
        if hasattr(layer, "init"):
            layer.init(rng)
    grabbed = {
        name: [(pname, param, grad) for pname, param, grad in layer.tensors(name)]
        for name, layer in layers.items()
    }

    x = rng.normal(size=(4, 2, 5))
    layers["conv"].forward(x)
    layers["conv"].backward(rng.normal(size=(4, 3, 5)))
    layers["bn"].forward(x, training=True)
    layers["bn"].backward(rng.normal(size=x.shape))
    layers["gconv"].forward(x, factored_adjacency_batch(rng.uniform(0.5, 1.5, size=(4, 5))))
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


def test_init_keeps_array_identity(rng):
    conv = Conv1d(1, 2)
    kern, bias = conv.kernels, conv.bias
    conv.init(rng)
    assert conv.kernels is kern and conv.bias is bias
    assert np.any(kern != 0.0)


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
