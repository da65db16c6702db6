"""Finite-difference verification of the hand-written backward passes.

Layers produce tensors, not scalars, so each check projects the output
onto a fixed random direction R and treats f = sum(output * R) as the
scalar objective; the analytic gradient of f is then backward(R). The
whole-model check instead uses the real training loss. Both report the
worst-case relative error max |analytic - numeric| / max(1, |a|, |n|)
over every coordinate of every parameter tensor.
"""

from __future__ import annotations

import numpy as np

from .data import check_seed
from .errors import NumericError, ShapeError
from .layers import (
    AttentionPool,
    BatchNorm1d,
    Conv1d,
    Dense,
    GraphConv,
    LeakyReLU,
    MeanPool,
)
from .model import ABLATION_ORDER, GraphClassifier, ModelConfig

# central-difference step and probe batch size for every check
STEP = 1e-4
BATCH_SIZE = 3

# the keys of layer_suite's result, in the order it checks them
LAYER_NAMES = ("conv1d", "batchnorm", "leaky_relu", "graphconv", "graphconv_attention",
               "attention", "mean_pool", "dense")


def finite_diff_check(f, theta: np.ndarray, analytic_grad: np.ndarray) -> float:
    """Max relative error between ``analytic_grad`` and central differences of ``f``.

    ``f`` is a zero-argument callable returning a scalar that depends on
    ``theta``; the array is perturbed in place by ``STEP`` one coordinate at
    a time and restored afterwards. A non-finite analytic coordinate or
    objective raises ``NumericError``. The per-coordinate error is

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
        theta[idx] = original + STEP
        f_plus = float(f())
        theta[idx] = original - STEP
        f_minus = float(f())
        theta[idx] = original
        a = float(analytic[idx])
        if not np.isfinite([a, f_plus, f_minus]).all():  # its error would be NaN, never kept
            raise NumericError(f"finite_diff_check: non-finite value at index {idx} (analytic "
                               f"{a}, objective {f_plus} and {f_minus})")
        numeric = (f_plus - f_minus) / (2.0 * STEP)
        err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
        if err > worst:
            worst = err
    return worst


def check_layer(layer, x, seed: int = 0, extra=None) -> dict:
    """Gradient-check one layer's parameters and input on a fixed projection.

    ``extra`` carries a non-differentiated forward argument (the amplitudes
    that define the graph convolution's adjacency). Returns
    {tensor_name: max_rel_error} including an ``input`` entry.
    """
    rng = np.random.default_rng(seed)
    args = (x,) if extra is None else (x, extra)
    out = layer.forward(*args)
    r = rng.standard_normal(out.shape)

    def f():
        return float(np.sum(layer.forward(*args) * r))

    g_in = layer.backward(r)
    results = {}
    for name, param, grad in layer.tensors(""):
        results[name.lstrip(".")] = finite_diff_check(f, param, grad)
    results["input"] = finite_diff_check(f, x, g_in)
    return results


def layer_suite(seed: int = 0) -> dict:
    """Run every layer type once on small random shapes."""
    check_seed("seed", seed)
    rng = np.random.default_rng(seed)
    batch, n = BATCH_SIZE, 9
    results = {}

    conv = Conv1d(2, 4, rng)
    results["conv1d"] = check_layer(conv, rng.standard_normal((batch, 2, n)), seed + 1)

    results["batchnorm"] = check_layer(BatchNorm1d(4), rng.standard_normal((batch, 4, n)), seed + 2)

    # keep every coordinate clear of the kink at 0, where the two-sided
    # difference quotient averages the two slopes instead of matching either
    x_act = rng.standard_normal((batch, 4, n))
    x_act += np.where(x_act >= 0, 0.25, -0.25)
    results["leaky_relu"] = check_layer(LeakyReLU(), x_act, seed + 3)

    # the graph conv with each readout: the mean, then its own attention scores;
    # a nonzero bias exercises its terms in the scores and their gradient
    amps = rng.uniform(0.2, 1.0, (batch, n))
    x_graph = rng.standard_normal((batch, 4, n))
    for name, attention, offset in (("graphconv", False, 4), ("graphconv_attention", True, 8)):
        gconv = GraphConv(4, 5, n, rng, attention=attention)
        gconv.bias[...] = rng.standard_normal(gconv.bias.shape)
        results[name] = check_layer(gconv, x_graph, seed + offset, extra=amps)

    att = AttentionPool(5, rng)
    results["attention"] = check_layer(att, rng.standard_normal((batch, 5, n)), seed + 5)

    results["mean_pool"] = check_layer(MeanPool(), rng.standard_normal((batch, 5, n)), seed + 6)

    dense = Dense(5, 3, rng)
    results["dense"] = check_layer(dense, rng.standard_normal((batch, 5)), seed + 7)

    return results


def _rectifier_margin(model: GraphClassifier, amps: np.ndarray) -> float:
    """Smallest |pre-activation| entering either rectifier (training mode)."""
    margins = []
    x = amps[:, None, :]
    for name, layer in model.chain:
        if isinstance(layer, LeakyReLU):
            margins.append(np.min(np.abs(x)))
            if name == "act2":
                break
        x = layer.forward(x)
    return float(min(margins))


def check_model(config: ModelConfig, seed: int = 0) -> dict:
    """Check d(loss)/d(theta) for every parameter of the assembled model.

    Runs in training mode (batch statistics active) with the actual NLL
    objective. BN running stats drift across the probe forwards but do not
    enter the training-mode output.
    """
    model = GraphClassifier(config)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, config.n_classes, BATCH_SIZE)

    amps = rng.uniform(0.1, 1.0, (BATCH_SIZE, config.n_cells))
    if "a" in config.ablation:
        # central differences average the two slopes at the rectifier kink,
        # so the probe input must keep every pre-activation clear of 0 by
        # more than a parameter step can move it
        best, best_margin = amps, _rectifier_margin(model, amps)
        for _ in range(50):
            if best_margin > 100.0 * STEP:
                break
            amps = rng.uniform(0.1, 1.0, (BATCH_SIZE, config.n_cells))
            margin = _rectifier_margin(model, amps)
            if margin > best_margin:
                best, best_margin = amps, margin
        amps = best

    def f():
        log_probs = model.forward_batch(amps, training=True)
        return model.loss_batch(log_probs, labels)

    f()
    model.backward(labels)
    return {name: finite_diff_check(f, param, grad)
            for name, param, grad in model.tensors()}


def check_all_ablations(
    n_cells: int = 16,
    n_classes: int = 3,
    d_out: int = 6,
    g_out: int = 8,
    seed: int = 0,
) -> dict:
    """Whole-model check for each of the seven module subsets.

    Returns {flags: {tensor_name: max_rel_error}}; small widths keep the
    coordinate count (and so the runtime) down without changing the math.
    """
    results = {}
    for flags in ABLATION_ORDER:
        config = ModelConfig(n_cells, n_classes, d_out, g_out, ablation=flags, seed=seed)
        results[flags] = check_model(config, seed)
    return results


def worst_error(results: dict) -> float:
    """Largest relative error anywhere in a (possibly nested) result dict."""
    worst = 0.0
    for value in results.values():
        worst = max(worst, worst_error(value) if isinstance(value, dict) else float(value))
    return worst
