import math

import numpy as np
import pytest

import hrrpgnn.layers
from hrrpgnn.errors import ConfigError, ShapeError, UsageError
from hrrpgnn.gradcheck import check_layer, finite_diff_check
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
from hrrpgnn.numerics import softmax
from oracle_reference import batchnorm_eval, build_adjacency

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
    assert conv.forward(np.ones((1, 1, 3))).shape == (1, 1, 3)
    with pytest.raises(ShapeError):
        conv.forward(np.zeros((1, 1, 2)))


def test_conv_channel_mismatch(rng):
    conv = Conv1d(2, 1, rng)
    with pytest.raises(ShapeError):
        conv.forward(np.zeros((1, 3, 8)))


def test_batchnorm_worked_example():
    # batch values 1 and 3: mean 2, population variance 1
    bn = BatchNorm1d(1)
    out = bn.forward(np.array([[[1.0]], [[3.0]]]))
    expected = 1.0 / math.sqrt(1.0 + 1e-5)
    np.testing.assert_allclose(out.ravel(), [-expected, expected], atol=1e-12)
    assert abs(out.ravel()[1] - 0.99999) < 1e-4


def test_batchnorm_running_stats_update():
    bn = BatchNorm1d(1)
    bn.forward(np.array([[[1.0]], [[3.0]]]))
    np.testing.assert_allclose(bn.running_mean, [0.9 * 0.0 + 0.1 * 2.0])
    np.testing.assert_allclose(bn.running_var, [0.9 * 1.0 + 0.1 * 1.0])
    # a second step from non-trivial statistics: batch mean 4, variance 9
    bn.running_mean[...] = 0.5
    bn.running_var[...] = 2.0
    bn.forward(np.array([[[1.0]], [[7.0]]]))
    np.testing.assert_allclose(bn.running_mean, [0.9 * 0.5 + 0.1 * 4.0])
    np.testing.assert_allclose(bn.running_var, [0.9 * 2.0 + 0.1 * 9.0])


@pytest.mark.parametrize("shape", [(2, 1, 1), (3, 4, 9), (32, 16, 501), (5, 3, 128)])
def test_batchnorm_batch_variance_is_ndarray_var(shape, rng):
    """The running variance folds in a batch variance equal to x.var(axis=(0, 2)) bit for bit."""
    x = rng.normal(3.0, 2.0, size=shape)
    bn = BatchNorm1d(shape[1])
    bn.running_var[...] = 0.0
    bn.forward(x)
    np.testing.assert_array_equal(bn.running_var, BatchNorm1d.MOMENTUM * x.var(axis=(0, 2)))


def _eval_map(bn, x):
    """BatchNorm's eval-mode map, x * scale + shift per channel, from ``eval_affine``."""
    scale, shift = bn.eval_affine()
    return x * scale[None, :, None] + shift[None, :, None]


def test_batchnorm_eval_uses_running_stats():
    bn = BatchNorm1d(1)
    bn.running_mean[...] = 5.0
    bn.running_var[...] = 4.0
    out = _eval_map(bn, np.array([[[7.0]]]))
    np.testing.assert_allclose(out, [[[2.0 / math.sqrt(4.0 + 1e-5)]]], atol=1e-12)


def test_batchnorm_eval_matches_oracle_at_the_shipped_shape(rng):
    """Non-trivial affine parameters and running statistics in every channel."""
    bn = BatchNorm1d(16)
    for arr, low, high in ((bn.gamma, -2.0, 2.0), (bn.beta, -2.0, 2.0),
                           (bn.running_mean, -2.0, 2.0), (bn.running_var, 0.5, 1.5)):
        arr[...] = rng.uniform(low, high, size=16)
    x = rng.normal(size=(32, 16, 501))
    out = _eval_map(bn, x)
    args = [a.tolist() for a in (bn.gamma, bn.beta, bn.running_mean, bn.running_var)]
    for b in range(32):
        expected = batchnorm_eval(x[b].tolist(), *args, BatchNorm1d.EPS)
        np.testing.assert_allclose(out[b], expected, rtol=0, atol=1e-12)
    # the eval map leaves nothing for backward
    with pytest.raises(UsageError, match="forward has not run yet"):
        bn.backward(np.ones_like(out))


@pytest.mark.parametrize("n", [3, 9])
@pytest.mark.parametrize("in_channels", [1, 16])
def test_conv1d_folds_an_affine_map_into_its_product(in_channels, n, rng):
    """forward(x, affine=(s, b)) is s * conv(x) + b per output channel, and x is unchanged."""
    conv = Conv1d(in_channels, 16, rng)
    scale, shift = rng.uniform(-2.0, 2.0, size=16), rng.uniform(-2.0, 2.0, size=16)
    x = rng.normal(size=(5, in_channels, n))
    before = x.copy()
    got = conv.forward(x, affine=(scale, shift))
    np.testing.assert_array_equal(x, before)
    want = scale[:, None] * conv.forward(x) + shift[:, None]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_batchnorm_training_rejects_single_sample():
    """One sample of one cell leaves a single value per channel, and no batch variance."""
    bn = BatchNorm1d(3)
    with pytest.raises(ConfigError, match="at least 2 values per channel"):
        bn.forward(np.ones((1, 3, 1)))


def test_batchnorm_single_sample_standardizes_over_its_cells(rng):
    """A batch of one profile is legal: each channel is standardized over its N cells."""
    x = rng.normal(3.0, 2.0, size=(1, 4, 9))
    bn = BatchNorm1d(4)
    out = bn.forward(x)
    mean = x.mean(axis=2, keepdims=True)
    var = x.var(axis=2, keepdims=True)
    np.testing.assert_allclose(out, (x - mean) / np.sqrt(var + BatchNorm1d.EPS), atol=1e-12)
    np.testing.assert_allclose(bn.running_mean, BatchNorm1d.MOMENTUM * mean.ravel(), atol=1e-12)


def test_batchnorm_single_sample_gradients(rng):
    errs = check_layer(BatchNorm1d(4), rng.standard_normal((1, 4, 9)))
    assert set(errs) == {"gamma", "beta", "input"}
    assert max(errs.values()) < 1e-4


# ---- flat rows: the bits of the per-channel broadcast -----------------------------


def _assert_same_bits(got, want):
    """Equal values with equal signs: a -0.0 where the reference has +0.0 fails."""
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("shape", [(32, 16, 501), (2, 3, 1)])
def test_batchnorm_flat_rows_match_the_channel_broadcast_bit_for_bit(shape, rng):
    """Output, running statistics and every gradient equal, bit for bit, the same
    operations in the same order written with (1, channels, 1) broadcasts."""
    b, c, n = shape
    bn = BatchNorm1d(c)
    for arr, low, high in ((bn.gamma, -2.0, 2.0), (bn.beta, -2.0, 2.0),
                           (bn.running_mean, -2.0, 2.0), (bn.running_var, 0.5, 1.5)):
        arr[...] = rng.uniform(low, high, size=c)
    x, g = rng.normal(3.0, 2.0, size=shape), rng.normal(size=shape)
    mean = x.mean(axis=(0, 2))
    xhat = x - mean[None, :, None]
    y = xhat * xhat
    var = y.sum(axis=(0, 2)) / (b * n)
    running_mean = (1.0 - bn.MOMENTUM) * bn.running_mean + bn.MOMENTUM * mean
    running_var = (1.0 - bn.MOMENTUM) * bn.running_var + bn.MOMENTUM * var
    inv_std = 1.0 / np.sqrt(var + bn.EPS)
    xhat *= inv_std[None, :, None]
    np.multiply(bn.gamma[None, :, None], xhat, out=y)
    y += bn.beta[None, :, None]
    g_xhat = g * xhat
    g_gamma, g_beta = g_xhat.sum(axis=(0, 2)), g.sum(axis=(0, 2))
    g_x = (b * n) * g
    g_x -= g_beta[None, :, None]
    g_x -= np.multiply(xhat, g_gamma[None, :, None], out=g_xhat)
    g_x *= (bn.gamma * inv_std)[None, :, None] / (b * n)

    _assert_same_bits(bn.forward(x), y)
    _assert_same_bits(bn.running_mean, running_mean)
    _assert_same_bits(bn.running_var, running_var)
    _assert_same_bits(bn.backward(g), g_x)
    _assert_same_bits(bn.g_gamma, g_gamma)
    _assert_same_bits(bn.g_beta, g_beta)


@pytest.mark.parametrize("grad", ["normal", "edge-cells-negative-zero", "underflow"])
@pytest.mark.parametrize("n", [3, 501])
@pytest.mark.parametrize("in_channels", [1, 3])
def test_conv1d_backward_matches_the_padded_reference_bit_for_bit(in_channels, n, grad, rng):
    """Both gradients equal, bit for bit, np.pad's bordered input and the input
    gradient's shifted adds written per channel.

    With ``underflow`` every kernel-gradient product is a negative value below the
    smallest subnormal. Where BLAS accumulates with fused multiply-adds the tap
    products are then -0.0, and only a -0.0 carried across a channel boundary keeps
    the sign of the input gradient's first and last cells."""
    conv = Conv1d(in_channels, 16, rng)
    x, g = rng.normal(size=(4, in_channels, n)), rng.normal(size=(4, 16, n))
    if grad == "edge-cells-negative-zero":
        g[:, :, 0] = g[:, :, -1] = -0.0
    elif grad == "underflow":
        conv.kernels[...] = np.abs(conv.kernels) * 1e-200
        g = -np.abs(g) * 1e-200
    conv.forward(x)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1)))
    g_kernels = np.stack([np.matmul(g, xp[:, :, k : k + n].transpose(0, 2, 1)).sum(axis=0)
                          for k in range(3)], axis=2)
    g_x = np.matmul(conv.kernels[:, :, 1].T, g)
    g_x[:, :, :-1] += np.matmul(conv.kernels[:, :, 0].T, g)[:, :, 1:]
    g_x[:, :, 1:] += np.matmul(conv.kernels[:, :, 2].T, g)[:, :, :-1]

    _assert_same_bits(conv.backward(g), g_x)
    _assert_same_bits(conv.g_kernels, g_kernels)


def test_graphconv_worked_example(rng):
    # Y = W1 X + W2 X E = [7.5, 34.5]; the mean reads out 21, and scores
    # [7.5 k, 34.5 k] with 27 k = log 3 weight the nodes 1/4 and 3/4
    gc = GraphConv(1, 1, 2, rng)
    gc.w1[...] = [[2.0]]
    gc.w2[...] = [[1.0]]
    out = gc.forward(np.array([[[1.0, 3.0]]]), [[1.0, 3.0]])
    np.testing.assert_allclose(out, [[21.0]], atol=1e-12)
    gc = GraphConv(1, 1, 2, rng, attention=True)
    gc.w1[...] = [[2.0]]
    gc.w2[...] = [[1.0]]
    gc.score[...] = math.log(3.0) / 27.0
    out = gc.forward(np.array([[[1.0, 3.0]]]), [[1.0, 3.0]])
    np.testing.assert_allclose(gc.alpha, [[0.25, 0.75]], atol=1e-12)
    np.testing.assert_allclose(out, [[27.75]], atol=1e-12)


def _dense_graphconv_pool(gc, x, amps, g):
    """The graph conv and its readout written on the dense e[i, j] stack and the
    (batch, out_dim, N) output: the pooled output, then the gradients for ``g``."""
    dense = np.stack([build_adjacency(a) for a in amps])
    y = gc.w1 @ x + gc.w2 @ (x @ dense) + gc.bias
    w = gc.score
    if w is None:
        alpha = np.full(amps.shape, 1.0 / amps.shape[1])
    else:
        alpha = softmax(w @ y, axis=1)
    pooled = (y @ alpha[:, :, None])[:, :, 0]
    grad_y = g[:, :, None] * alpha[:, None, :]
    grads = {}
    if w is not None:
        u = (g[:, None, :] @ y)[:, 0, :]
        g_s = alpha * (u - (alpha * u).sum(axis=1, keepdims=True))
        grad_y += w[None, :, None] * g_s[:, None, :]
        grads["score"] = (y @ g_s[:, :, None]).sum(axis=0)[:, 0]
    grads["w1"] = (grad_y @ x.transpose(0, 2, 1)).sum(axis=0)
    grads["w2"] = (grad_y @ (x @ dense).transpose(0, 2, 1)).sum(axis=0)
    grads["bias"] = grad_y.sum(axis=0)
    grads["input"] = gc.w1.T @ grad_y + (gc.w2.T @ grad_y) @ dense.transpose(0, 2, 1)
    return pooled, grads


def test_graphconv_factored_matches_dense(rng):
    """Forward and backward agree with the same layer written on the dense e[i, j] stack
    and the (batch, out_dim, N) output, for either readout."""
    for attention in (False, True):
        gc = GraphConv(3, 4, 10, rng, attention=attention)
        gc.bias[...] = rng.normal(size=gc.bias.shape)
        amps = rng.uniform(0.0, 2.0, size=(5, 10))
        x = rng.normal(size=(5, 3, 10))
        g = rng.normal(size=(5, 4))
        expected, expected_grads = _dense_graphconv_pool(gc, x, amps, g)
        np.testing.assert_allclose(gc.forward(x, amps), expected, rtol=1e-12, atol=1e-12)
        got = {"input": gc.backward(g), "w1": gc.g_w1, "w2": gc.g_w2, "bias": gc.g_bias}
        if attention:
            got["score"] = gc.g_score
        assert got.keys() == expected_grads.keys()
        for name, value in expected_grads.items():
            np.testing.assert_allclose(got[name], value, rtol=1e-12, atol=1e-12, err_msg=name)


def _adjacency_only(n_features, n_nodes):
    """A graph conv whose output is X @ E read out by the mean: W1 = 0, W2 = I, zero bias."""
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
    assert batch.shape == (4, 3)
    for b in range(4):
        # the sample twice, as one row alone would take BLAS's matrix-vector kernel
        alone = gc.forward(x[[b, b]], h[[b, b]])
        np.testing.assert_array_equal(alone, [batch[b], batch[b]])
        expected = (x[b] @ build_adjacency(h[b])).mean(axis=1)
        np.testing.assert_allclose(batch[b], expected, rtol=1e-12, atol=1e-12)


def test_graphconv_recovers_dense_adjacency(rng):
    """Identity rows turn v @ E into E: the factored product reproduces the definition."""
    h = rng.uniform(0.0, 2.0, size=(3, 9))
    eye = np.broadcast_to(np.eye(9), (3, 9, 9))
    dense = np.stack([build_adjacency(row) for row in h])
    product = _adjacency_only(9, 9)._times_adjacency(eye, h[:, None, :])
    np.testing.assert_allclose(product, dense, rtol=0, atol=1e-15)


def test_graphconv_never_rebuilds_reciprocal_distance(rng, monkeypatch):
    """R is built once with the layer; forward and backward reuse it."""
    gc = GraphConv(2, 3, 6, rng, attention=True)
    np.testing.assert_array_equal(gc.recip, hrrpgnn.layers.reciprocal_distance(6))

    def rebuilt(n_cells):
        raise AssertionError("reciprocal_distance called after construction")

    monkeypatch.setattr(hrrpgnn.layers, "reciprocal_distance", rebuilt)
    out = gc.forward(rng.normal(size=(2, 2, 6)), rng.uniform(0.5, 1.5, size=(2, 6)))
    gc.backward(rng.normal(size=out.shape))


class _CountedRows(np.ndarray):
    """A matrix that records the row count of every product it is the right factor of."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and inputs[1] is self:
            self.rows.append(inputs[0].shape[:-1])
        inputs = tuple(np.asarray(a) if a is self else a for a in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_graphconv_products_with_r_run_on_one_row_per_sample(rng):
    """Per step, the attention readout multiplies R by 4 rows per sample (2 forward,
    2 backward), the mean readout by 1 (forward only): never by (batch, out_dim, N)."""
    for attention, forward_rows, backward_rows in ((False, 1, 0), (True, 2, 2)):
        gc = GraphConv(3, 4, 7, rng, attention=attention)
        gc.recip = gc.recip.view(_CountedRows)
        gc.recip.rows = []
        out = gc.forward(rng.normal(size=(5, 3, 7)), rng.uniform(0.5, 1.5, size=(5, 7)))
        assert gc.recip.rows == [(5,)] * forward_rows
        gc.backward(rng.normal(size=out.shape))
        assert gc.recip.rows == [(5,)] * (forward_rows + backward_rows)


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
    np.testing.assert_allclose(att.alpha, [[0.1, 0.9]], atol=1e-12)
    np.testing.assert_allclose(out, [[2.8]], atol=1e-12)


def test_attention_weights_sum_to_one(rng):
    att = AttentionPool(4, rng)
    att.forward(rng.normal(size=(6, 4, 13)))
    alpha = att.alpha
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


def test_leaky_relu_edge_values():
    """Signed zeros, NaN and infinities follow the where(x >= 0, x, SLOPE * x) definition."""
    x = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, -2.0, 3.0])
    act = LeakyReLU()
    out = act.forward(x)
    assert out.tobytes() == np.where(x >= 0, x, LeakyReLU.SLOPE * x).tobytes()
    assert np.signbit(out[0]) and not np.signbit(out[1])
    assert np.isnan(out[2])
    assert out[3] == np.inf and out[4] == -np.inf
    g = np.array([1.0, -1.0, 2.0, -0.5, 0.5, -0.0, np.nan])
    assert act.backward(g).tobytes() == np.where(x >= 0, g, LeakyReLU.SLOPE * g).tobytes()
    # SLOPE * -1e-323 rounds to -0.0, so the output is -0.0 and, the slope being read
    # from the output, the backward passes g through
    tiny = act.forward(np.array([-1e-323]))
    assert tiny[0] == 0.0 and np.signbit(tiny[0])
    assert act.backward(np.array([-0.5])).tobytes() == np.array([-0.5]).tobytes()


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


@pytest.mark.parametrize("name, make, args", [
    ("conv1d", lambda rng: Conv1d(2, 1, rng), (np.zeros((1, 3, 4)),)),
    ("batchnorm", lambda rng: BatchNorm1d(2), (np.zeros((1, 3, 4)),)),
    ("graphconv", lambda rng: GraphConv(2, 1, 4, rng), (np.zeros((1, 3, 4)), np.ones((1, 4)))),
    ("attention", lambda rng: AttentionPool(2, rng), (np.zeros((1, 3, 4)),)),
    ("dense", lambda rng: Dense(2, 1, rng), (np.zeros((1, 3)),)),
])
def test_layers_reject_a_wrong_axis_1_width(name, make, args, rng):
    """Axis 1 of a layer's input has the layer's width; the error names both widths."""
    with pytest.raises(ShapeError, match=rf"^{name}\b.*\b3\b.*\b2$"):
        make(rng).forward(*args)


def test_backward_before_forward_raises(rng):
    for layer in (Conv1d(1, 1, rng), BatchNorm1d(1), GraphConv(1, 1, 3, rng),
                  AttentionPool(1, rng), MeanPool(), Dense(1, 1, rng), LeakyReLU()):
        with pytest.raises(UsageError):
            layer.backward(np.zeros(1))


def test_gradient_slots_are_filled_in_place(rng):
    """Optimizers capture (param, grad) references once; backward must not rebind. Each
    slot is an array of its own with its parameter's shape, the conditional score's too."""
    layers = {
        "conv": Conv1d(2, 3, rng),
        "bn": BatchNorm1d(2),
        "gconv": GraphConv(2, 3, 5, rng),
        "att": AttentionPool(2, rng),
        "fc": Dense(2, 3, rng),
        "gconv_att": GraphConv(2, 3, 5, rng, attention=True),
    }
    grabbed = {
        name: [(pname, param, grad) for pname, param, grad in layer.tensors(name)]
        for name, layer in layers.items()
    }
    assert [p for p, _, _ in grabbed["gconv_att"]] == [
        f"gconv_att.{p}" for p in ("w1", "w2", "bias", "score")]
    for pname, param, grad in (t for tensors in grabbed.values() for t in tensors):
        assert grad is not param, f"{pname} gradient slot is its parameter"
        assert grad.shape == param.shape, pname

    x = rng.normal(size=(4, 2, 5))
    layers["conv"].forward(x)
    layers["conv"].backward(rng.normal(size=(4, 3, 5)))
    layers["bn"].forward(x)
    layers["bn"].backward(rng.normal(size=x.shape))
    layers["gconv"].forward(x, rng.uniform(0.5, 1.5, size=(4, 5)))
    layers["gconv"].backward(rng.normal(size=(4, 3)))
    layers["gconv_att"].forward(x, rng.uniform(0.5, 1.5, size=(4, 5)))
    layers["gconv_att"].backward(rng.normal(size=(4, 3)))
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
