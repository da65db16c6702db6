"""The differentiable layers of the network.

Every layer follows the same contract: ``forward`` computes the layer
function and caches whatever the analytic ``backward`` needs; ``backward``
takes the upstream gradient, fills the layer's gradient slots (``g_*``
arrays mirroring each parameter) and returns the gradient with respect to
the layer input. Gradients are hand-derived from the forward semantics,
not traced, and ``finite_diff_check`` is the oracle used to validate them.

Layers take batches only: every input, output and gradient carries a
leading batch axis in front of the per-sample shape given in each
docstring, and an input of any other rank raises ``ShapeError``.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, NumericError, ShapeError, UsageError
from .graphgen import FactoredAdjacency
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


class Conv1d:
    """Width-3 cross-correlation with zero same-padding and stride 1.

    Input (in_channels x N) maps to (out_channels x N); the node count N is
    preserved so the downstream N x N adjacency still lines up. N must be
    at least the kernel width.
    """

    def __init__(self, in_channels: int, out_channels: int):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernels = np.zeros((out_channels, in_channels, KERNEL_WIDTH))
        self.bias = np.zeros(out_channels)
        self.g_kernels = np.zeros_like(self.kernels)
        self.g_bias = np.zeros_like(self.bias)
        self._cache = None

    def init(self, rng: np.random.Generator) -> None:
        # in-place so (param, grad) references held by optimizers stay valid
        self.kernels[...] = uniform_init(rng, self.kernels.shape, self.in_channels * KERNEL_WIDTH)
        self.bias[...] = 0.0

    def tensors(self, prefix: str):
        yield f"{prefix}.kernels", self.kernels, self.g_kernels
        yield f"{prefix}.bias", self.bias, self.g_bias

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
        if self._cache is None:
            raise UsageError("conv1d.backward called before forward")
        windows, xshape = self._cache
        g3 = _batch(grad_out, 3, "conv1d grad")
        # fill the slots in place: optimizers hold references to them
        self.g_kernels[...] = np.einsum("bon,bcnk->ock", g3, windows, optimize=True)
        self.g_bias[...] = g3.sum(axis=(0, 2))
        b, c, n = xshape
        g_xp = np.zeros((b, c, n + 2))
        for k in range(KERNEL_WIDTH):
            g_xp[:, :, k : k + n] += np.einsum(
                "oc,bon->bcn", self.kernels[:, :, k], g3, optimize=True
            )
        return g_xp[:, :, 1 : n + 1]


class BatchNorm1d:
    """Per-channel batch normalization over the (batch x positions) axes.

    Training mode standardizes with the batch's population statistics and
    folds them into the running estimates:

        running <- (1 - momentum) * running + momentum * batch_stat

    Eval mode standardizes with the running statistics alone. Population
    (biased) variance is used both for normalization and for the running
    update so the backward pass differentiates exactly the forward
    expression.
    """

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        if eps <= 0.0:
            raise ConfigError(f"batchnorm eps must be positive, got {eps}")
        if not 0.0 < momentum < 1.0:
            raise ConfigError(f"batchnorm momentum must lie in (0, 1), got {momentum}")
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.g_gamma = np.zeros_like(self.gamma)
        self.g_beta = np.zeros_like(self.beta)
        self._cache = None

    def init(self, rng: np.random.Generator) -> None:
        self.gamma[...] = 1.0
        self.beta[...] = 0.0
        self.running_mean[...] = 0.0
        self.running_var[...] = 1.0

    def tensors(self, prefix: str):
        yield f"{prefix}.gamma", self.gamma, self.g_gamma
        yield f"{prefix}.beta", self.beta, self.g_beta

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
            self.running_mean[...] = (1.0 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var[...] = (1.0 - self.momentum) * self.running_var + self.momentum * var
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        xhat = (x3 - mean[None, :, None]) * inv_std[None, :, None]
        y = self.gamma[None, :, None] * xhat + self.beta[None, :, None]
        self._cache = (xhat, inv_std, training, x3.shape)
        return y

    def backward(self, grad_out) -> np.ndarray:
        if self._cache is None:
            raise UsageError("batchnorm.backward called before forward")
        xhat, inv_std, training, xshape = self._cache
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


class GraphConv:
    """Dense graph convolution: out column i = W1 x_i + W2 (sum_j e[j,i] x_j) + B[:, i].

    In matrix form ``W1 X + W2 (X E) + B`` where E is the (symmetric) edge
    weight matrix, passed as a ``FactoredAdjacency`` so that ``X E`` never
    builds the dense (batch, N, N) stack. The bias is per-node (an
    out_dim x N matrix) by default; ``per_node_bias=False`` switches to a
    single shared per-channel column for node-count-agnostic experiments.
    """

    def __init__(self, in_dim: int, out_dim: int, n_nodes: int, per_node_bias: bool = True):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.n_nodes = n_nodes
        self.per_node_bias = per_node_bias
        self.w1 = np.zeros((out_dim, in_dim))
        self.w2 = np.zeros((out_dim, in_dim))
        self.bias = np.zeros((out_dim, n_nodes if per_node_bias else 1))
        self.g_w1 = np.zeros_like(self.w1)
        self.g_w2 = np.zeros_like(self.w2)
        self.g_bias = np.zeros_like(self.bias)
        self._cache = None

    def init(self, rng: np.random.Generator) -> None:
        self.w1[...] = uniform_init(rng, self.w1.shape, self.in_dim)
        self.w2[...] = uniform_init(rng, self.w2.shape, self.in_dim)
        self.bias[...] = 0.0

    def tensors(self, prefix: str):
        yield f"{prefix}.w1", self.w1, self.g_w1
        yield f"{prefix}.w2", self.w2, self.g_w2
        yield f"{prefix}.bias", self.bias, self.g_bias

    def forward(self, nodes, adjacency: FactoredAdjacency, training: bool = False) -> np.ndarray:
        x3 = _batch(nodes, 3, "graphconv nodes")
        if x3.shape[1] != self.in_dim:
            raise ShapeError(f"graphconv: input has {x3.shape[1]} channels, expected {self.in_dim}")
        n = x3.shape[2]
        agg = adjacency.matmul_right(x3)  # agg[b, d, i] = sum_j x[b, d, j] * e[b, j, i]
        if self.per_node_bias and n != self.bias.shape[1]:
            raise ShapeError(
                f"graphconv: per-node bias covers {self.bias.shape[1]} nodes, input has {n}"
            )
        y = np.matmul(self.w1, x3)
        y += np.matmul(self.w2, agg)
        y += self.bias[None, :, :]
        self._cache = (x3, adjacency, agg)
        return y

    def backward(self, grad_out) -> np.ndarray:
        if self._cache is None:
            raise UsageError("graphconv.backward called before forward")
        x3, adjacency, agg = self._cache
        g3 = _batch(grad_out, 3, "graphconv grad")
        self.g_w1[...] = np.einsum("bgn,bdn->gd", g3, x3, optimize=True)
        self.g_w2[...] = np.einsum("bgn,bdn->gd", g3, agg, optimize=True)
        if self.per_node_bias:
            self.g_bias[...] = g3.sum(axis=0)
        else:
            self.g_bias[...] = g3.sum(axis=(0, 2))[:, None]
        g_x = np.matmul(self.w1.T, g3)
        # E is symmetric, so G @ E^T is the same factored product
        g_x += adjacency.matmul_right(np.matmul(self.w2.T, g3))
        return g_x


class AttentionPool:
    """Score-weighted pooling of node columns into one feature vector.

    Each node gets the scalar score ``s_i = x[:, i] . w + b``; the scores
    pass through a softmax and the output is the resulting convex
    combination of node columns, so it always lies in the per-coordinate
    hull of the nodes.
    """

    def __init__(self, feature_dim: int):
        self.feature_dim = feature_dim
        self.w = np.zeros(feature_dim)
        self.b = np.zeros(1)
        self.g_w = np.zeros_like(self.w)
        self.g_b = np.zeros_like(self.b)
        self._cache = None

    def init(self, rng: np.random.Generator) -> None:
        self.w[...] = uniform_init(rng, self.w.shape, self.feature_dim)
        self.b[...] = 0.0

    def tensors(self, prefix: str):
        yield f"{prefix}.w", self.w, self.g_w
        yield f"{prefix}.b", self.b, self.g_b

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
        if self._cache is None:
            raise UsageError("attention_weights requested before forward")
        return self._cache[1]

    def backward(self, grad_out) -> np.ndarray:
        if self._cache is None:
            raise UsageError("attention.backward called before forward")
        x3, alpha = self._cache
        g2 = _batch(grad_out, 2, "attention grad")
        u = np.einsum("bfn,bf->bn", x3, g2, optimize=True)  # dL/dalpha
        # softmax Jacobian: dL/ds_i = alpha_i * (u_i - sum_j alpha_j u_j)
        g_s = alpha * (u - (alpha * u).sum(axis=1, keepdims=True))
        self.g_w[...] = np.einsum("bfn,bn->f", x3, g_s, optimize=True)
        self.g_b[...] = g_s.sum()
        return g2[:, :, None] * alpha[:, None, :] + self.w[None, :, None] * g_s[:, None, :]


class MeanPool:
    """Uniform-weight pooling over node columns; the attention-off stand-in."""

    def __init__(self):
        self._cache = None

    def tensors(self, prefix: str):
        return iter(())

    def forward(self, nodes, training: bool = False) -> np.ndarray:
        x3 = _batch(nodes, 3, "meanpool")
        self._cache = x3.shape
        return x3.mean(axis=2)

    def backward(self, grad_out) -> np.ndarray:
        if self._cache is None:
            raise UsageError("meanpool.backward called before forward")
        xshape = self._cache
        g2 = _batch(grad_out, 2, "meanpool grad")
        return np.broadcast_to(g2[:, :, None] / xshape[2], xshape).copy()


class Dense:
    """Affine map W v + b from a pooled feature vector to class logits."""

    def __init__(self, in_dim: int, out_dim: int):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.w = np.zeros((out_dim, in_dim))
        self.b = np.zeros(out_dim)
        self.g_w = np.zeros_like(self.w)
        self.g_b = np.zeros_like(self.b)
        self._cache = None

    def init(self, rng: np.random.Generator) -> None:
        self.w[...] = uniform_init(rng, self.w.shape, self.in_dim)
        self.b[...] = 0.0

    def tensors(self, prefix: str):
        yield f"{prefix}.w", self.w, self.g_w
        yield f"{prefix}.b", self.b, self.g_b

    def forward(self, v, training: bool = False) -> np.ndarray:
        v2 = _batch(v, 2, "dense")
        if v2.shape[1] != self.in_dim:
            raise ShapeError(f"dense: input has {v2.shape[1]} features, layer expects {self.in_dim}")
        self._cache = v2
        return v2 @ self.w.T + self.b[None, :]

    def backward(self, grad_out) -> np.ndarray:
        if self._cache is None:
            raise UsageError("dense.backward called before forward")
        g2 = _batch(grad_out, 2, "dense grad")
        self.g_w[...] = g2.T @ self._cache
        self.g_b[...] = g2.sum(axis=0)
        return g2 @ self.w


class LeakyReLU:
    """Elementwise leaky rectifier; the derivative at exactly 0 is taken as 1."""

    def __init__(self, slope: float = 0.01):
        if not 0.0 < slope < 1.0:
            raise ConfigError(f"leaky_relu slope must lie in (0, 1), got {slope}")
        self.slope = slope
        self._cache = None

    def tensors(self, prefix: str):
        return iter(())

    def forward(self, x, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        mask = x >= 0.0
        self._cache = mask
        return np.where(mask, x, self.slope * x)

    def backward(self, grad_out) -> np.ndarray:
        if self._cache is None:
            raise UsageError("leaky_relu.backward called before forward")
        g = np.asarray(grad_out, dtype=np.float64)
        return np.where(self._cache, g, self.slope * g)


def finite_diff_check(f, theta: np.ndarray, analytic_grad: np.ndarray, step: float = 1e-4) -> float:
    """Max relative error between ``analytic_grad`` and central differences of ``f``.

    ``f`` is a zero-argument callable returning a scalar that depends on
    ``theta``; the array is perturbed in place one coordinate at a time and
    restored afterwards. The per-coordinate error is

        |analytic - numeric| / max(1, |analytic|, |numeric|)
    """
    theta = np.asarray(theta)
    analytic = np.asarray(analytic_grad, dtype=np.float64)
    if analytic.shape != theta.shape:
        raise ShapeError(
            f"analytic gradient shape {analytic.shape} does not match parameter shape {theta.shape}"
        )
    worst = 0.0
    for idx in np.ndindex(theta.shape):
        original = theta[idx]
        theta[idx] = original + step
        f_plus = float(f())
        theta[idx] = original - step
        f_minus = float(f())
        theta[idx] = original
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(f"finite_diff_check: non-finite objective at index {idx}")
        numeric = (f_plus - f_minus) / (2.0 * step)
        a = float(analytic[idx])
        err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
        if err > worst:
            worst = err
    return worst
