"""The differentiable layers of the network.

Every layer follows the same contract, kept in ``_Layer``. A layer is
ready to use once constructed: the layers with weights (Conv1d, GraphConv,
AttentionPool, Dense) take the caller's generator as their last argument
and draw the weights from it with ``uniform_init``, in ``PARAMS`` order.
Only GraphConv and Dense carry a bias, which starts at zero; a bias that
the next operation cancels (Conv1d's before BatchNorm, an attention score
before the softmax) is left out. Each constructor registers its parameter
arrays with ``_params``: it lists their names in checkpoint order in
``PARAMS`` and gives parameter ``p`` its gradient slot, the same-shaped
array ``g_p``. ``forward`` computes the layer function and caches whatever
the analytic ``backward`` needs, the input or the output itself by
reference in some layers, so neither may change between the two;
``backward`` takes the upstream gradient, overwrites every gradient slot
in place (optimizers hold references to them) and returns the gradient
with respect to the layer input. Gradients are hand-derived from the
forward semantics, not traced, and ``gradcheck.finite_diff_check`` is the
oracle used to validate them.

Layers take batches only: every input, output and gradient carries a
leading batch axis in front of the per-sample shape given in each
docstring, and an input of any other rank raises ``ShapeError``. So does
an input whose axis 1 (channels or features) is not the layer's width:
one check, ``_batch``, refuses both. LeakyReLU is the exception: it is
elementwise and takes any shape.

Layers take no train/eval mode. In eval mode the model folds each BatchNorm
into the conv before it: ``Conv1d.forward(x, affine=bn.eval_affine())``
scales its kernel rows and adds the shift as a column against a row of ones.

The graph convolution also takes each sample's raw amplitudes and
applies the range-relative adjacency they define as a factored product,
so it is the only code that touches the adjacency at run time. It is
never followed by a separate pooling layer: it reads its own output out,
by the mean or through its own attention scores, so its per-node output
is never formed. AttentionPool and MeanPool run on their own only when
there is no graph convolution. GraphConv and AttentionPool keep their
last forward's (batch, N) pooling weights in ``alpha``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError, UsageError
from .graphgen import reciprocal_distance
from .numerics import softmax

KERNEL_WIDTH = 3


def _batch(x, ndim: int, what: str, width: int | None = None) -> np.ndarray:
    """``x`` as a float64 array of the batched rank ``ndim`` and, given one, axis-1 ``width``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != ndim:
        raise ShapeError(f"{what}: expected a {ndim}-D batch, got ndim={x.ndim}")
    if width is not None and x.shape[1] != width:
        raise ShapeError(f"{what}: input has width {x.shape[1]} on axis 1, layer expects {width}")
    return x


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """Weight init: uniform(-sqrt(1/fan_in), +sqrt(1/fan_in))."""
    bound = float(np.sqrt(1.0 / fan_in))
    return rng.uniform(-bound, bound, size=shape)


class _Layer:
    """What every layer shares: its named tensors and its forward cache."""

    PARAMS: tuple = ()
    # the persistent arrays that are not trained, in checkpoint order
    BUFFERS: tuple = ()
    _cache = None

    def _params(self, **arrays) -> None:
        """Set each array and a zeroed ``g_<name>`` slot, and append its name to ``PARAMS``."""
        for name, value in arrays.items():
            setattr(self, name, value)
            setattr(self, f"g_{name}", np.zeros_like(value))
            self.PARAMS += (name,)

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

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self._params(kernels=uniform_init(
            rng, (out_channels, in_channels, KERNEL_WIDTH), in_channels * KERNEL_WIDTH))

    def forward(self, x, affine=None) -> np.ndarray:
        x3 = _batch(x, 3, "conv1d", self.in_channels)
        b, c, n = x3.shape
        if n < KERNEL_WIDTH:
            raise ShapeError(f"conv1d: need at least {KERNEL_WIDTH} positions, got {n}")
        kernels = self.kernels.reshape(self.out_channels, c * KERNEL_WIDTH)
        if affine is not None:  # scaled rows, and the shift as a column against a row of ones
            kernels = np.column_stack((kernels * affine[0][:, None], affine[1]))
        # im2col: cols[b, c, k, i] = x[b, c, i + k - 1], 0 off either end, so the layer is
        # one (out, 3 in [+ 1]) @ (3 in [+ 1], N) product per sample; backward pads the input
        stack = np.empty((b, kernels.shape[1], n))
        stack[:, c * KERNEL_WIDTH :] = 1.0
        cols = stack[:, : c * KERNEL_WIDTH].reshape(b, c, KERNEL_WIDTH, n)
        cols[:, :, 0, 0] = cols[:, :, 2, -1] = 0.0
        cols[:, :, 0, 1:] = x3[:, :, :-1]
        cols[:, :, 1, :] = x3
        cols[:, :, 2, :-1] = x3[:, :, 1:]
        self._cache = x3
        return np.matmul(kernels, stack)

    def backward(self, grad_out) -> np.ndarray:
        x3 = self._cached()
        g3 = _batch(grad_out, 3, "conv1d grad")
        b, c, n = x3.shape
        xp = np.empty((b, c, n + 2))
        xp[:, :, 0] = xp[:, :, -1] = 0.0
        xp[:, :, 1:-1] = x3
        for k in range(KERNEL_WIDTH):
            tap = xp[:, :, k : k + n]
            self.g_kernels[:, :, k] = np.matmul(g3, tap.transpose(0, 2, 1)).sum(axis=0)
        # input cell i gathers tap 0 from output i + 1, tap 1 from i and tap 2 from i - 1, added
        # along flat rows; the -0.0 added across a channel boundary changes no bit, sign included
        g_x = np.matmul(self.kernels[:, :, 1].T, g3)
        flat = g_x.reshape(b, c * n)
        prod = np.matmul(self.kernels[:, :, 0].T, g3)
        prod[:, :, 0] = -0.0
        flat[:, :-1] += prod.reshape(b, c * n)[:, 1:]
        np.matmul(self.kernels[:, :, 2].T, g3, out=prod)
        prod[:, :, -1] = -0.0
        flat[:, 1:] += prod.reshape(b, c * n)[:, :-1]
        return g_x


class BatchNorm1d(_Layer):
    """Per-channel batch normalization over the (batch x positions) axes.

    ``forward`` standardizes with the batch's population statistics and folds
    them into the running estimates:

        running <- (1 - momentum) * running + momentum * batch_stat

    The eval-mode map applies the running statistics as x * scale + shift per
    channel (``eval_affine``: scale = gamma / sqrt(running_var + EPS), shift =
    beta - running_mean * scale), which can differ from the training form in
    the last bit; the model applies it only folded into the conv before it.
    Both normalization and the running update use the population (biased)
    variance, so backward differentiates exactly the forward expression.
    ``forward`` needs at least 2 values per channel over batch x positions; a
    batch of one profile is enough. Both passes apply each per-channel vector v
    along flat (batch, channels * positions) rows, as ``np.repeat(v, positions)``.
    """

    EPS = 1e-5
    MOMENTUM = 0.1
    BUFFERS = ("running_mean", "running_var")

    def __init__(self, channels: int):
        self.channels = channels
        self._params(gamma=np.ones(channels), beta=np.zeros(channels))
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)

    def forward(self, x) -> np.ndarray:
        x3 = _batch(x, 3, "batchnorm", self.channels)
        b, c, n = x3.shape
        if b * n < 2:
            raise ConfigError("batchnorm training mode needs at least 2 values per channel "
                              f"over batch x cells, got {b} x {n}")
        mean = x3.mean(axis=(0, 2))
        xhat = x3.reshape(b, c * n) - np.repeat(mean, n)
        # ndarray.var's own expression, so the square's buffer can hold the output
        y = xhat * xhat
        var = y.reshape(b, c, n).sum(axis=(0, 2)) / (b * n)
        self.running_mean[...] = (1.0 - self.MOMENTUM) * self.running_mean + self.MOMENTUM * mean
        self.running_var[...] = (1.0 - self.MOMENTUM) * self.running_var + self.MOMENTUM * var
        inv_std = 1.0 / np.sqrt(var + self.EPS)
        xhat *= np.repeat(inv_std, n)
        np.multiply(np.repeat(self.gamma, n), xhat, out=y)
        y += np.repeat(self.beta, n)
        self._cache = (xhat.reshape(b, c, n), inv_std)
        return y.reshape(b, c, n)

    def eval_affine(self) -> tuple[np.ndarray, np.ndarray]:
        """The eval-mode map's per-channel (scale, shift)."""
        scale = self.gamma / np.sqrt(self.running_var + self.EPS)
        return scale, self.beta - self.running_mean * scale

    def backward(self, grad_out) -> np.ndarray:
        xhat, inv_std = self._cached()
        g3 = _batch(grad_out, 3, "batchnorm grad")
        b, c, n = xhat.shape
        g_xhat = g3 * xhat
        self.g_gamma[...] = g_xhat.sum(axis=(0, 2))
        self.g_beta[...] = g3.sum(axis=(0, 2))
        m = b * n
        # (gamma inv_std / m) * (m g - sum g - xhat * sum(g xhat)), evaluated in place
        g_x = m * g3.reshape(b, c * n)
        g_x -= np.repeat(self.g_beta, n)
        g_x -= np.multiply(xhat.reshape(b, c * n), np.repeat(self.g_gamma, n),
                           out=g_xhat.reshape(b, c * n))
        g_x *= np.repeat(self.gamma * inv_std / m, n)
        return g_x.reshape(b, c, n)


class GraphConv(_Layer):
    """Dense graph convolution, read out by its pooling in the same operation.

    The convolution is Y = W1 X + W2 (X E) + B: column i of Y is
    W1 x_i + W2 (sum_j e[j, i] x_j) + B[:, i], where E is each sample's
    symmetric range-relative edge matrix e[i, j] = h[i] h[j] / (|i - j| + 1)
    (defined in ``graphgen``) and the bias B is per node. The layer is
    built for a fixed node count N and takes the raw (batch, N) amplitudes
    h with the (batch, in_dim, N) nodes.

    Its output is the pooled (batch, out_dim) vector p = Y alpha. With
    ``attention``, the layer holds a score vector w (``score``, drawn after
    W1 and W2) and alpha is the softmax of the scores s = w^T Y over the
    nodes; without, alpha is the uniform 1/N, the mean. Both pooling and
    scores are linear in Y, so

        s = (W1^T w)^T X + ((W2^T w)^T X) E + B^T w
        p = W1 (X alpha) + W2 (X (E alpha)) + B alpha

    and Y itself is never formed. E is applied in factored form,
    v E = ((v * h) R) * h, with the N x N reciprocal-distance matrix R built
    once per layer, to one row per sample at a time.
    """

    score = None
    alpha = None

    def __init__(self, in_dim: int, out_dim: int, n_nodes: int, rng: np.random.Generator,
                 attention: bool = False):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.n_nodes = n_nodes
        self.recip = reciprocal_distance(n_nodes)
        self._params(w1=uniform_init(rng, (out_dim, in_dim), in_dim),
                     w2=uniform_init(rng, (out_dim, in_dim), in_dim),
                     bias=np.zeros((out_dim, n_nodes)))
        if attention:
            self._params(score=uniform_init(rng, out_dim, out_dim))

    def _times_adjacency(self, v: np.ndarray, h: np.ndarray) -> np.ndarray:
        """v @ E for (batch, N) rows v, row i against sample i's E: ((v * h) @ R) * h.

        E is symmetric, so this is also E v. R is shared by every sample, so
        the whole batch runs as one (batch, N) @ (N, N) product with R.
        """
        out = (v * h) @ self.recip
        out *= h
        return out

    def forward(self, nodes, amplitudes) -> np.ndarray:
        x3 = _batch(nodes, 3, "graphconv nodes", self.in_dim)
        if x3.shape[2] != self.n_nodes:
            raise ShapeError(
                f"graphconv: layer is built for {self.n_nodes} nodes, input has {x3.shape[2]}"
            )
        h = _batch(amplitudes, 2, "graphconv amplitudes")
        if h.shape != (x3.shape[0], self.n_nodes):
            raise ShapeError(
                f"graphconv: amplitudes have shape {h.shape}, "
                f"nodes need ({x3.shape[0]}, {self.n_nodes})"
            )
        w = self.score
        if w is None:
            alpha = np.full(h.shape, 1.0 / self.n_nodes)
        else:
            scores = (w @ self.w1) @ x3
            scores += self._times_adjacency((w @ self.w2) @ x3, h)
            scores += w @ self.bias
            alpha = softmax(scores, axis=1)
        self.alpha = alpha
        e_alpha = self._times_adjacency(alpha, h)
        x_alpha = np.matmul(x3, alpha[:, :, None])[:, :, 0]
        x_e_alpha = np.matmul(x3, e_alpha[:, :, None])[:, :, 0]
        pooled = x_alpha @ self.w1.T
        pooled += x_e_alpha @ self.w2.T
        pooled += alpha @ self.bias.T
        self._cache = (x3, h, alpha, e_alpha, x_alpha, x_e_alpha)
        return pooled

    def backward(self, grad_out) -> np.ndarray:
        x3, h, alpha, e_alpha, x_alpha, x_e_alpha = self._cached()
        g2 = _batch(grad_out, 2, "graphconv grad")
        # dL/dY = g alpha^T, plus w g_s^T with attention (g_s = dL/ds), so every
        # product below is on one or two rows per sample
        w1_g, w2_g = g2 @ self.w1, g2 @ self.w2  # per sample W1^T g, W2^T g
        self.g_w1[...] = g2.T @ x_alpha
        self.g_w2[...] = g2.T @ x_e_alpha
        self.g_bias[...] = g2.T @ alpha
        left, right = [w1_g, w2_g], [alpha, e_alpha]
        w = self.score
        if w is not None:
            u = np.matmul(w1_g[:, None, :], x3)[:, 0, :]  # u = Y^T g = dL/dalpha
            u += self._times_adjacency(np.matmul(w2_g[:, None, :], x3)[:, 0, :], h)
            u += g2 @ self.bias
            # softmax Jacobian: dL/ds_i = alpha_i * (u_i - sum_j alpha_j u_j)
            g_s = alpha * (u - (alpha * u).sum(axis=1, keepdims=True))
            e_g_s = self._times_adjacency(g_s, h)
            x_g_s = np.matmul(x3, g_s[:, :, None])[:, :, 0].sum(axis=0)
            x_e_g_s = np.matmul(x3, e_g_s[:, :, None])[:, :, 0].sum(axis=0)
            g_s_sum = g_s.sum(axis=0)
            self.g_w1 += np.outer(w, x_g_s)
            self.g_w2 += np.outer(w, x_e_g_s)
            self.g_bias += np.outer(w, g_s_sum)
            self.g_score[...] = self.w1 @ x_g_s + self.w2 @ x_e_g_s + self.bias @ g_s_sum
            shape = w1_g.shape
            left += [np.broadcast_to(w @ self.w1, shape), np.broadcast_to(w @ self.w2, shape)]
            right += [g_s, e_g_s]
        # g_X = W1^T dY + W2^T dY E: a (in_dim x 2 or 4) @ (2 or 4 x N) product per sample
        return np.matmul(np.stack(left, axis=2), np.stack(right, axis=1))


class AttentionPool(_Layer):
    """Score-weighted pooling of node columns into one feature vector.

    Each node gets the scalar score ``s_i = x[:, i] . w``; the scores pass
    through a softmax and the output is the resulting convex combination of
    node columns, so it always lies in the per-coordinate hull of the
    nodes. The score has no bias: the softmax is unchanged when every score
    shifts by the same amount.
    """

    alpha = None

    def __init__(self, feature_dim: int, rng: np.random.Generator):
        self.feature_dim = feature_dim
        self._params(w=uniform_init(rng, feature_dim, feature_dim))

    def forward(self, nodes) -> np.ndarray:
        x3 = _batch(nodes, 3, "attention", self.feature_dim)
        alpha = softmax(self.w @ x3, axis=1)
        pooled = np.matmul(x3, alpha[:, :, None])[:, :, 0]
        self._cache = (x3, alpha)
        self.alpha = alpha
        return pooled

    def backward(self, grad_out) -> np.ndarray:
        x3, alpha = self._cached()
        g2 = _batch(grad_out, 2, "attention grad")
        u = np.matmul(g2[:, None, :], x3)[:, 0, :]  # dL/dalpha
        # softmax Jacobian: dL/ds_i = alpha_i * (u_i - sum_j alpha_j u_j)
        g_s = alpha * (u - (alpha * u).sum(axis=1, keepdims=True))
        self.g_w[...] = np.matmul(x3, g_s[:, :, None]).sum(axis=0)[:, 0]
        return g2[:, :, None] * alpha[:, None, :] + self.w[None, :, None] * g_s[:, None, :]


class MeanPool(_Layer):
    """Uniform-weight pooling over node columns; the attention-off stand-in."""

    def forward(self, nodes) -> np.ndarray:
        x3 = _batch(nodes, 3, "meanpool")
        self._cache = x3.shape
        return x3.mean(axis=2)

    def backward(self, grad_out) -> np.ndarray:
        xshape = self._cached()
        g2 = _batch(grad_out, 2, "meanpool grad")
        return np.broadcast_to(g2[:, :, None] / xshape[2], xshape).copy()


class Dense(_Layer):
    """Affine map W v + b from a pooled feature vector to class logits."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.in_dim = in_dim
        self._params(w=uniform_init(rng, (out_dim, in_dim), in_dim), b=np.zeros(out_dim))

    def forward(self, v) -> np.ndarray:
        v2 = _batch(v, 2, "dense", self.in_dim)
        self._cache = v2
        return v2 @ self.w.T + self.b[None, :]

    def backward(self, grad_out) -> np.ndarray:
        v2 = self._cached()
        g2 = _batch(grad_out, 2, "dense grad")
        self.g_w[...] = g2.T @ v2
        self.g_b[...] = g2.sum(axis=0)
        return g2 @ self.w


class LeakyReLU(_Layer):
    """Elementwise leaky rectifier; the derivative at exactly 0 is taken as 1.

    ``backward`` takes the slope from the cached output: y >= 0, which is x >= 0
    but for negative x above about -2.5e-322, where SLOPE * x rounds to -0.0.
    """

    SLOPE = 0.01

    def forward(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        # for 0 < SLOPE < 1 this equals where(x >= 0, x, SLOPE * x) bit for bit,
        # signed zeros, NaN and infinities included
        y = self.SLOPE * x
        self._cache = np.maximum(x, y, out=y)
        return y

    def backward(self, grad_out) -> np.ndarray:
        # where(y >= 0, g, SLOPE * g) bit for bit: (1 - SLOPE) + SLOPE rounds to exactly 1.0
        out = (self._cached() >= 0.0).astype(np.float64)
        out *= 1.0 - self.SLOPE
        out += self.SLOPE
        out *= np.asarray(grad_out, dtype=np.float64)
        return out
