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

from .graphgen import factored_adjacency_batch
from .layers import (
    AttentionPool,
    BatchNorm1d,
    Conv1d,
    Dense,
    GraphConv,
    LeakyReLU,
    MeanPool,
    finite_diff_check,
)
from .model import ABLATION_ORDER, AblationConfig, GraphClassifier, ModelConfig

DEFAULT_STEP = 1e-4


def check_layer(layer, x, seed: int = 0, step: float = DEFAULT_STEP, extra=None) -> dict:
    """Gradient-check one layer's parameters and input on a fixed projection.

    ``extra`` carries a non-differentiated forward argument (the factored
    adjacency for the graph convolution). Returns {tensor_name: max_rel_error}
    including an ``input`` entry.
    """
    rng = np.random.default_rng(seed)
    args = (x,) if extra is None else (x, extra)
    out = layer.forward(*args, training=True)
    r = rng.standard_normal(out.shape)

    def f():
        return float(np.sum(layer.forward(*args, training=True) * r))

    f()
    g_in = layer.backward(r)
    results = {}
    for name, param, grad in layer.tensors(""):
        results[name.lstrip(".")] = finite_diff_check(f, param, grad, step)
    results["input"] = finite_diff_check(f, x, g_in, step)
    return results


def layer_suite(seed: int = 0, step: float = DEFAULT_STEP) -> dict:
    """Run every layer type once on small random shapes."""
    rng = np.random.default_rng(seed)
    batch, n = 3, 9
    results = {}

    conv = Conv1d(2, 4)
    conv.init(rng)
    results["conv1d"] = check_layer(conv, rng.standard_normal((batch, 2, n)), seed + 1, step)

    bn = BatchNorm1d(4)
    bn.init(rng)
    results["batchnorm"] = check_layer(bn, rng.standard_normal((batch, 4, n)), seed + 2, step)

    # keep every coordinate clear of the kink at 0, where the two-sided
    # difference quotient averages the two slopes instead of matching either
    x_act = rng.standard_normal((batch, 4, n))
    x_act += np.where(x_act >= 0, 0.25, -0.25)
    results["leaky_relu"] = check_layer(LeakyReLU(0.01), x_act, seed + 3, step)

    gconv = GraphConv(4, 5, n)
    gconv.init(rng)
    adjacency = factored_adjacency_batch(rng.uniform(0.2, 1.0, (batch, n)))
    results["graphconv"] = check_layer(
        gconv, rng.standard_normal((batch, 4, n)), seed + 4, step, extra=adjacency
    )

    att = AttentionPool(5)
    att.init(rng)
    results["attention"] = check_layer(att, rng.standard_normal((batch, 5, n)), seed + 5, step)

    results["mean_pool"] = check_layer(MeanPool(), rng.standard_normal((batch, 5, n)), seed + 6, step)

    dense = Dense(5, 3)
    dense.init(rng)
    results["dense"] = check_layer(dense, rng.standard_normal((batch, 5)), seed + 7, step)

    return results


def _rectifier_margin(model: GraphClassifier, amps: np.ndarray) -> float:
    """Smallest |pre-activation| entering either rectifier (training mode)."""
    t1 = model.bn1.forward(model.conv1.forward(amps[:, None, :], training=True), training=True)
    t2 = model.bn2.forward(model.conv2.forward(model.act1.forward(t1), training=True), training=True)
    return float(min(np.min(np.abs(t1)), np.min(np.abs(t2))))


def check_model(
    config: ModelConfig, batch_size: int = 3, seed: int = 0, step: float = DEFAULT_STEP
) -> dict:
    """Check d(loss)/d(theta) for every parameter of the assembled model.

    Runs in training mode (batch statistics active) with the actual NLL
    objective. BN running stats drift across the probe forwards but do not
    enter the training-mode output; they are restored afterwards anyway.
    """
    model = GraphClassifier(config)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, config.n_classes, batch_size)

    saved_running = {
        name: arr.copy()
        for name, arr in model.state_arrays().items()
        if "running" in name
    }

    amps = rng.uniform(0.1, 1.0, (batch_size, config.n_cells))
    if config.ablation.local_conv:
        # central differences average the two slopes at the rectifier kink,
        # so the probe input must keep every pre-activation clear of 0 by
        # more than a parameter step can move it
        best, best_margin = amps, _rectifier_margin(model, amps)
        for _ in range(50):
            if best_margin > 100.0 * step:
                break
            amps = rng.uniform(0.1, 1.0, (batch_size, config.n_cells))
            margin = _rectifier_margin(model, amps)
            if margin > best_margin:
                best, best_margin = amps, margin
        amps = best

    def f():
        log_probs = model.forward_batch(amps, training=True)
        return model.loss_batch(log_probs, labels)

    f()
    model.backward(labels)
    enabled = _enabled_prefixes(config.ablation)
    results = {}
    for name, param, grad in model.tensors():
        if name.split(".")[0] not in enabled:
            continue  # disabled layers never run; their gradients stay zero
        results[name] = finite_diff_check(f, param, grad, step)

    for name, arr in model.state_arrays().items():
        if name in saved_running:
            arr[...] = saved_running[name]
    return results


def _enabled_prefixes(ablation: AblationConfig) -> set:
    prefixes = {"fc"}
    if ablation.local_conv:
        prefixes |= {"conv1", "bn1", "conv2", "bn2"}
    if ablation.graph_conv:
        prefixes.add("gconv")
    if ablation.attention:
        prefixes.add("att")
    return prefixes


def check_all_ablations(
    n_cells: int = 16,
    n_classes: int = 3,
    d_out: int = 6,
    g_out: int = 8,
    batch_size: int = 3,
    seed: int = 0,
    step: float = DEFAULT_STEP,
) -> dict:
    """Whole-model check for each of the seven module subsets.

    Returns {flags: {tensor_name: max_rel_error}}; small widths keep the
    coordinate count (and so the runtime) down without changing the math.
    """
    results = {}
    for flags in ABLATION_ORDER:
        config = ModelConfig(
            n_cells=n_cells,
            n_classes=n_classes,
            d_out=d_out,
            g_out=g_out,
            ablation=AblationConfig.from_flags(flags),
            seed=seed,
        )
        results[flags] = check_model(config, batch_size, seed, step)
    return results


def worst_error(results: dict) -> float:
    """Largest relative error anywhere in a (possibly nested) result dict."""
    worst = 0.0
    for value in results.values():
        worst = max(worst, worst_error(value) if isinstance(value, dict) else float(value))
    return worst
