import re
from dataclasses import replace

import numpy as np
import pytest
from oracle_reference import conv1d as oracle_conv1d

import hrrpgnn.gradcheck
from hrrpgnn.errors import NumericError
from hrrpgnn.gradcheck import (
    LAYER_NAMES,
    STEP,
    check_all_ablations,
    check_layer,
    check_model,
    finite_diff_check,
    layer_suite,
    worst_error,
)
from hrrpgnn.layers import Conv1d, Dense
from hrrpgnn.model import ModelConfig

TOL = 1e-4


def test_check_layer_dense(rng):
    layer = Dense(3, 2, rng)
    errs = check_layer(layer, rng.normal(size=(4, 3)), seed=0)
    assert set(errs) == {"w", "b", "input"}
    assert max(errs.values()) < TOL


@pytest.mark.parametrize("in_channels", [1, 3])
def test_conv1d_matches_oracle_and_gradients(in_channels, rng):
    """The network's two conv shapes: one input channel (conv1) and several (conv2).

    Each runs at N = 9 and at N = 3, the smallest legal width, where every
    output cell but the middle one reads a zero off an edge.
    """
    conv = Conv1d(in_channels, 4, rng)
    for n in (3, 9):
        x = rng.normal(size=(3, in_channels, n))
        before = x.copy()
        out = conv.forward(x)
        np.testing.assert_array_equal(x, before, err_msg=f"N={n}")
        for b in range(3):
            expected = oracle_conv1d(x[b].tolist(), conv.kernels.tolist())
            np.testing.assert_allclose(out[b], expected, rtol=0, atol=1e-12, err_msg=f"N={n}")
        errs = check_layer(conv, x, seed=in_channels)
        assert set(errs) == {"kernels", "input"}
        assert max(errs.values()) < TOL, f"N={n}"


def test_layer_suite_covers_every_layer_type():
    results = layer_suite(seed=0)
    # the CLI's --layer choices are LAYER_NAMES, so they name exactly these checks
    assert tuple(results) == LAYER_NAMES == (
        "conv1d", "batchnorm", "leaky_relu", "graphconv", "graphconv_attention", "attention",
        "mean_pool", "dense",
    )
    # the graph conv with either readout: its own tensors, the input, and its own
    # score vector when it reads out through attention
    assert set(results["graphconv"]) == {"w1", "w2", "bias", "input"}
    assert set(results["graphconv_attention"]) == {"w1", "w2", "bias", "score", "input"}
    assert worst_error(results) < TOL


def test_check_model_full_config():
    cfg = ModelConfig(n_cells=8, n_classes=3, d_out=3, g_out=4, seed=0)
    errs = check_model(cfg, seed=0)
    assert worst_error(errs) < TOL
    assert any(name.startswith("gconv.") for name in errs)


def test_check_model_skips_disabled_modules():
    cfg = replace(ModelConfig(n_cells=8, n_classes=3, d_out=3, g_out=4, seed=0), ablation="c")
    errs = check_model(cfg, seed=0)
    assert not any(name.startswith(("conv1.", "gconv.")) for name in errs)
    assert worst_error(errs) < TOL


def test_check_model_is_repeatable():
    # each call builds a fresh model from the config's seed, so reruns are identical
    cfg = ModelConfig(n_cells=8, n_classes=2, d_out=2, g_out=3, seed=0)
    first = check_model(cfg, seed=0)
    second = check_model(cfg, seed=0)
    assert first == second


# the checkpoint names of each module's trained tensors; the head is always on. With
# module b, module c's score vector belongs to the graph conv
MODULE_TENSORS = {
    "a": {"conv1.kernels", "bn1.gamma", "bn1.beta", "conv2.kernels", "bn2.gamma", "bn2.beta"},
    "b": {"gconv.w1", "gconv.w2", "gconv.bias"},
    "c": {"att.w"},
}


def test_check_all_ablations_keys():
    """Every ablation checks exactly the tensors of its enabled modules and the head."""
    results = check_all_ablations(n_cells=6, n_classes=2, d_out=2, g_out=2, seed=0)
    assert set(results) == {"a", "b", "c", "ab", "ac", "bc", "abc"}
    for flags, errs in results.items():
        expected = {"fc.w", "fc.b"}.union(*(MODULE_TENSORS[f] for f in flags))
        if "b" in flags and "c" in flags:
            expected = expected - {"att.w"} | {"gconv.score"}
        assert set(errs) == expected, flags
    assert len(results["abc"]) == 12
    assert set(results["bc"]) == {"gconv.w1", "gconv.w2", "gconv.bias", "gconv.score", "fc.w",
                                  "fc.b"}
    assert worst_error(results) < TOL


@pytest.mark.parametrize("analytic, named", [
    ([1.0, np.nan, 1.0], "at index (1,) (analytic nan,"),
    ([1.0, 1.0, np.inf], "at index (2,) (analytic inf,"),
    ([np.nan, np.nan, np.nan], "at index (0,) (analytic nan,"),
], ids=["nan-coordinate", "inf-coordinate", "all-nan"])
def test_finite_diff_check_fails_a_non_finite_analytic_gradient(analytic, named):
    """A NaN or infinite coordinate would score a NaN error, which no comparison keeps."""
    theta = np.zeros(3)
    with pytest.raises(NumericError, match=re.escape(f"non-finite value {named}")):
        finite_diff_check(lambda: float(theta.sum()), theta, np.array(analytic))


def test_worst_error_nested():
    assert worst_error({"a": {"x": 0.1, "y": 0.3}, "b": {"z": 0.2}}) == 0.3
    assert worst_error({}) == 0.0


def fourth_order_diff_check(f, theta, analytic_grad):
    """``finite_diff_check`` with the fourth-order central quotient at the same ``STEP``:
    (f(-2h) - 8 f(-h) + 8 f(h) - f(2h)) / 12h, whose error is O(h^4) instead of O(h^2)."""
    analytic = np.asarray(analytic_grad, dtype=np.float64)
    assert analytic.shape == theta.shape
    worst = 0.0
    for idx in np.ndindex(theta.shape):
        original = theta[idx]
        values = []
        for k in (-2, -1, 1, 2):
            theta[idx] = original + k * STEP
            values.append(float(f()))
        theta[idx] = original
        numeric = (values[0] - 8.0 * values[1] + 8.0 * values[2] - values[3]) / (12.0 * STEP)
        a = float(analytic[idx])
        worst = max(worst, abs(a - numeric) / max(1.0, abs(a), abs(numeric)))
    return worst


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backward_matches_a_fourth_order_difference(seed, monkeypatch):
    """Every layer and every ablation row agrees with a fourth-order central difference to
    1e-9 relative, which catches a backward error that ``TOL`` lets through (a BatchNorm
    backward scaled by 1 + 1e-6 reads 1e-6 here). The stencil stays at ``STEP``: at a
    larger step its +-2h probes cross the rectifier kink in rows with module a."""
    monkeypatch.setattr(hrrpgnn.gradcheck, "finite_diff_check", fourth_order_diff_check)
    assert worst_error(layer_suite(seed)) < 1e-9
    assert worst_error(check_all_ablations(seed=seed)) < 1e-9
