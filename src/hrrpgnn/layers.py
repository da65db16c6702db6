"""The differentiable layers of the network.

Every layer follows the same contract, kept in ``_Layer``. A layer is
ready to use once constructed: the layers with weights (Conv1d, GraphConv,
AttentionPool, Dense) take the caller's generator as their last argument
and draw the weights from it with ``uniform_init``, in ``PARAMS`` order;
biases start at zero. ``PARAMS`` names the parameter arrays in checkpoint
order, and the gradient slot of parameter ``p`` is the same-shaped array
``g_p``. ``forward`` computes the
layer function and caches whatever the analytic ``backward`` needs;
``backward`` takes the upstream gradient, overwrites every gradient slot
in place (optimizers hold references to them) and returns the gradient
with respect to the layer input. Gradients are hand-derived from the
forward semantics, not traced, and ``gradcheck.finite_diff_check`` is the
oracle used to validate them.

Layers take batches only: every input, output and gradient carries a
leading batch axis in front of the per-sample shape given in each
docstring, and an input of any other rank raises ``ShapeError``. The
graph convolution also takes each sample's raw amplitudes and applies the
range-relative adjacency they define as a factored product, so it is the
only code that touches the adjacency at run time.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ShapeError, UsageError
from .graphgen import reciprocal_distance
from .numerics import softmax

KERNEL_WIDTH = 3


def _batch(x, ndim: int, what: str) -> np.ndarray:
    """``x`` as a float64 array of the batched rank ``ndim``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != ndim:
        raise ShapeError(f"{what}: expected a {ndim}-D batch, got ndim={x.ndim}")
    return x


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Weight init: uniform(-sqrt(1/fan_in), +sqrt(1/fan_in))."""
    bound = float(np.sqrt(1.0 / fan_in))
    return rng.uniform(-bound, bound, size=shape)


class _Layer:
    """What every layer shares: its named tensors and its forward cache."""

    PARAMS: tuple = ()
    _cache = None

    def tensors(self, prefix: str):
        """(name, param, grad) for each of ``PARAMS``, in checkpoint order."""
        for p in self.PARAMS:
            yield f"{prefix}.{p}", getattr(self, p), getattr(self, f"g_{p}")

    def _cached(self):
        """What the last ``forward`` stored; a UsageError before the first one."""
        if self._cache is None:
            raise UsageError(f"{type(self).__name__}: forward has not run yet")
        return self._cache


class Conv1d(_Layer):
    """Width-3 cross-correlation with zero same-padding and stride 1.

    Input (in_channels x N) maps to (out_channels x N); the node count N is
    preserved so the downstream N x N adjacency still lines up. N must be
    at least the kernel width.
    """

    PARAMS = ("kernels", "bias")

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernels = uniform_init(
            rng, (out_channels, in_channels, KERNEL_WIDTH), in_channels * KERNEL_WIDTH
        )
        self.bias = np.zeros(out_channels)
        self.g_kernels = np.zeros_like(self.kernels)
        self.g_bias = np.zeros_like(self.bias)

    def forward(self, x, training: bool = False) -> np.ndarray:
        x3 = _batch(x, 3, "conv1d")
        if x3.shape[1] != self.in_channels:
            raise ShapeError(
                f"conv1d: input has {x3.shape[1]} channels, kernels expect {self.in_channels}"
            )
        n = x3.shape[2]
        if n < KERNEL_WIDTH:
            raise ShapeError(f"conv1d: need at least {KERNEL_WIDTH} positions, got {n}")
        xp = np.pad(x3, ((0, 0), (0, 0), (1, 1)))
        windows = sliding_window_view(xp, KERNEL_WIDTH, axis=2)  # (B, C, N, 3)
        y = np.einsum("ock,bcnk->bon", self.kernels, windows, optimize=True)
        y += self.bias[None, :, None]
        self._cache = (windows, x3.shape)
        return y

    def backward(self, grad_out) -> np.ndarray:
        windows, xshape = self._cached()
        g3 = _batch(grad_out, 3, "conv1d grad")
        self.g_kernels[...] = np.einsum("bon,bcnk->ock", g3, windows, optimize=True)
        self.g_bias[...] = g3.sum(axis=(0, 2))
        b, c, n = xshape
        g_xp = np.zeros((b, c, n + 2))
        for k in range(KERNEL_WIDTH):
            g_xp[:, :, k : k + n] += np.einsum(
                "oc,bon->bcn", self.kernels[:, :, k], g3, optimize=True
            )
        return g_xp[:, :, 1 : n + 1]


class BatchNorm1d(_Layer):
    """Per-channel batch normalization over the (batch x positions) axes.

    Training mode standardizes with the batch's population statistics and
    folds them into the running estimates:

        running <- (1 - momentum) * running + momentum * batch_stat

    Eval mode standardizes with the running statistics alone. Population
    (biased) variance is used both for normalization and for the running
    update so the backward pass differentiates exactly the forward
    expression.
    """

    EPS = 1e-5
    MOMENTUM = 0.1
    PARAMS = ("gamma", "beta")

    def __init__(self, channels: int):
        self.channels = channels
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.g_gamma = np.zeros_like(self.gamma)
        self.g_beta = np.zeros_like(self.beta)

    def forward(self, x, training: bool = False) -> np.ndarray:
        x3 = _batch(x, 3, "batchnorm")
        if x3.shape[1] != self.channels:
            raise ShapeError(
                f"batchnorm: input has {x3.shape[1]} channels, layer expects {self.channels}"
            )
        if training:
            if x3.shape[0] < 2:
                raise ConfigError(
                    "batchnorm training mode needs a batch of at least 2 samples "
                    f"(got {x3.shape[0]}); per-channel batch variance is undefined otherwise"
                )
            mean = x3.mean(axis=(0, 2))
            var = x3.var(axis=(0, 2))
            self.running_mean[...] = (1.0 - self.MOMENTUM) * self.running_mean + self.MOMENTUM * mean
            self.running_var[...] = (1.0 - self.MOMENTUM) * self.running_var + self.MOMENTUM * var
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.EPS)
        xhat = (x3 - mean[None, :, None]) * inv_std[None, :, None]
        y = self.gamma[None, :, None] * xhat + self.beta[None, :, None]
        self._cache = (xhat, inv_std, training, x3.shape)
        return y

    def backward(self, grad_out) -> np.ndarray:
        xhat, inv_std, training, xshape = self._cached()
        g3 = _batch(grad_out, 3, "batchnorm grad")
        self.g_gamma[...] = (g3 * xhat).sum(axis=(0, 2))
        self.g_beta[...] = g3.sum(axis=(0, 2))
        scale = (self.gamma * inv_std)[None, :, None]
        if not training:
            return g3 * scale
        m = xshape[0] * xshape[2]
        g_sum = g3.sum(axis=(0, 2), keepdims=True)
        gx_sum = (g3 * xhat).sum(axis=(0, 2), keepdims=True)
        return (scale / m) * (m * g3 - g_sum - xhat * gx_sum)


class GraphConv(_Layer):
    """Dense graph convolution: out column i = W1 x_i + W2 (sum_j e[j,i] x_j) + B[:, i].

    In matrix form ``W1 X + W2 (X E) + B`` where E is each sample's
    symmetric range-relative edge matrix e[i, j] = h[i] h[j] / (|i - j| + 1)
    (``graphgen.build_adjacency``). ``forward`` takes the raw (batch, N)
    amplitudes h and applies E in factored form, X E = ((X * h) R) * h,
    with the N x N reciprocal-distance matrix R built once per layer, so
    the dense (batch, N, N) stack is never formed. The layer is built for
    a fixed node count N, and the bias B is per node (an out_dim x N matrix).
    """

    PARAMS = ("w1", "w2", "bias")

    def __init__(self, in_dim: int, out_dim: int, n_nodes: int, rng: np.random.Generator):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.n_nodes = n_nodes
        self.recip = reciprocal_distance(n_nodes)
        self.w1 = uniform_init(rng, (out_dim, in_dim), in_dim)
        self.w2 = uniform_init(rng, (out_dim, in_dim), in_dim)
        self.bias = np.zeros((out_dim, n_nodes))
        self.g_w1 = np.zeros_like(self.w1)
        self.g_w2 = np.zeros_like(self.w2)
        self.g_bias = np.zeros_like(self.bias)

    def _times_adjacency(self, x3: np.ndarray, h: np.ndarray) -> np.ndarray:
        """X @ E for a (batch, features, N) stack: ((X * h) @ R) * h."""
        out = (x3 * h) @ self.recip
        out *= h
        return out

    def forward(self, nodes, amplitudes, training: bool = False) -> np.ndarray:
        x3 = _batch(nodes, 3, "graphconv nodes")
        if x3.shape[1] != self.in_dim:
            raise ShapeError(f"graphconv: input has {x3.shape[1]} channels, expected {self.in_dim}")
        if x3.shape[2] != self.n_nodes:
            raise ShapeError(
                f"graphconv: layer is built for {self.n_nodes} nodes, input has {x3.shape[2]}"
            )
        amps = _batch(amplitudes, 2, "graphconv amplitudes")
        if amps.shape != (x3.shape[0], self.n_nodes):
            raise ShapeError(
                f"graphconv: amplitudes have shape {amps.shape}, "
                f"nodes need ({x3.shape[0]}, {self.n_nodes})"
            )
        h = amps[:, None, :]
        agg = self._times_adjacency(x3, h)  # agg[b, d, i] = sum_j x[b, d, j] * e[b, j, i]
        y = np.matmul(self.w1, x3)
        y += np.matmul(self.w2, agg)
        y += self.bias[None, :, :]
        self._cache = (x3, h, agg)
        return y

    def backward(self, grad_out) -> np.ndarray:
        x3, h, agg = self._cached()
        g3 = _batch(grad_out, 3, "graphconv grad")
        self.g_w1[...] = np.einsum("bgn,bdn->gd", g3, x3, optimize=True)
        self.g_w2[...] = np.einsum("bgn,bdn->gd", g3, agg, optimize=True)
        self.g_bias[...] = g3.sum(axis=0)
        g_x = np.matmul(self.w1.T, g3)
        # E is symmetric, so G @ E^T is the same factored product
        g_x += self._times_adjacency(np.matmul(self.w2.T, g3), h)
        return g_x


class AttentionPool(_Layer):
    """Score-weighted pooling of node columns into one feature vector.

    Each node gets the scalar score ``s_i = x[:, i] . w + b``; the scores
    pass through a softmax and the output is the resulting convex
    combination of node columns, so it always lies in the per-coordinate
    hull of the nodes.
    """

    PARAMS = ("w", "b")

    def __init__(self, feature_dim: int, rng: np.random.Generator):
        self.feature_dim = feature_dim
        self.w = uniform_init(rng, feature_dim, feature_dim)
        self.b = np.zeros(1)
        self.g_w = np.zeros_like(self.w)
        self.g_b = np.zeros_like(self.b)

    def forward(self, nodes, training: bool = False) -> np.ndarray:
        x3 = _batch(nodes, 3, "attention")
        if x3.shape[1] != self.feature_dim:
            raise ShapeError(
                f"attention: input has {x3.shape[1]} features, layer expects {self.feature_dim}"
            )
        scores = np.einsum("bfn,f->bn", x3, self.w, optimize=True) + self.b[0]
        alpha = softmax(scores, axis=1)
        pooled = np.einsum("bfn,bn->bf", x3, alpha, optimize=True)
        self._cache = (x3, alpha)
        return pooled

    def attention_weights(self) -> np.ndarray:
        """Softmax weights from the most recent forward call."""
        return self._cached()[1]

    def backward(self, grad_out) -> np.ndarray:
        x3, alpha = self._cached()
        g2 = _batch(grad_out, 2, "attention grad")
        u = np.einsum("bfn,bf->bn", x3, g2, optimize=True)  # dL/dalpha
        # softmax Jacobian: dL/ds_i = alpha_i * (u_i - sum_j alpha_j u_j)
        g_s = alpha * (u - (alpha * u).sum(axis=1, keepdims=True))
        self.g_w[...] = np.einsum("bfn,bn->f", x3, g_s, optimize=True)
        self.g_b[...] = g_s.sum()
        return g2[:, :, None] * alpha[:, None, :] + self.w[None, :, None] * g_s[:, None, :]


class MeanPool(_Layer):
    """Uniform-weight pooling over node columns; the attention-off stand-in."""

    def forward(self, nodes, training: bool = False) -> np.ndarray:
        x3 = _batch(nodes, 3, "meanpool")
        self._cache = x3.shape
        return x3.mean(axis=2)

    def backward(self, grad_out) -> np.ndarray:
        xshape = self._cached()
        g2 = _batch(grad_out, 2, "meanpool grad")
        return np.broadcast_to(g2[:, :, None] / xshape[2], xshape).copy()


class Dense(_Layer):
    """Affine map W v + b from a pooled feature vector to class logits."""

    PARAMS = ("w", "b")

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.w = uniform_init(rng, (out_dim, in_dim), in_dim)
        self.b = np.zeros(out_dim)
        self.g_w = np.zeros_like(self.w)
        self.g_b = np.zeros_like(self.b)

    def forward(self, v, training: bool = False) -> np.ndarray:
        v2 = _batch(v, 2, "dense")
        if v2.shape[1] != self.in_dim:
            raise ShapeError(f"dense: input has {v2.shape[1]} features, layer expects {self.in_dim}")
        self._cache = v2
        return v2 @ self.w.T + self.b[None, :]

    def backward(self, grad_out) -> np.ndarray:
        v2 = self._cached()
        g2 = _batch(grad_out, 2, "dense grad")
        self.g_w[...] = g2.T @ v2
        self.g_b[...] = g2.sum(axis=0)
        return g2 @ self.w


class LeakyReLU(_Layer):
    """Elementwise leaky rectifier; the derivative at exactly 0 is taken as 1."""

    SLOPE = 0.01

    def forward(self, x, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        mask = x >= 0.0
        self._cache = mask
        return np.where(mask, x, self.SLOPE * x)

    def backward(self, grad_out) -> np.ndarray:
        mask = self._cached()
        g = np.asarray(grad_out, dtype=np.float64)
        return np.where(mask, g, self.SLOPE * g)

