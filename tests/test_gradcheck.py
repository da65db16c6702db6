from dataclasses import replace

from hrrpgnn.gradcheck import check_all_ablations, check_layer, check_model, layer_suite, worst_error
from hrrpgnn.layers import Dense
from hrrpgnn.model import ModelConfig

TOL = 1e-4


def test_check_layer_dense(rng):
    layer = Dense(3, 2, rng)
    errs = check_layer(layer, rng.normal(size=(4, 3)), seed=0)
    assert set(errs) == {"w", "b", "input"}
    assert max(errs.values()) < TOL


def test_layer_suite_covers_every_layer_type():
    results = layer_suite(seed=0)
    assert set(results) == {
        "conv1d", "batchnorm", "leaky_relu", "graphconv", "attention", "mean_pool", "dense",
    }
    assert worst_error(results) < TOL


def test_check_model_full_config():
    cfg = ModelConfig(n_cells=8, n_classes=3, d_out=3, g_out=4, seed=0)
    errs = check_model(cfg, batch_size=3, seed=0)
    assert worst_error(errs) < TOL
    assert any(name.startswith("gconv.") for name in errs)


def test_check_model_skips_disabled_modules():
    cfg = replace(ModelConfig(n_cells=8, n_classes=3, d_out=3, g_out=4, seed=0), ablation="c")
    errs = check_model(cfg, batch_size=3, seed=0)
    assert not any(name.startswith(("conv1.", "gconv.")) for name in errs)
    assert worst_error(errs) < TOL


def test_check_model_is_repeatable():
    # running-stat restoration inside the loop makes reruns identical
    cfg = ModelConfig(n_cells=8, n_classes=2, d_out=2, g_out=3, seed=0)
    first = check_model(cfg, batch_size=3, seed=0)
    second = check_model(cfg, batch_size=3, seed=0)
    assert first == second


def test_check_all_ablations_keys():
    results = check_all_ablations(n_cells=6, n_classes=2, d_out=2, g_out=2, seed=0)
    assert set(results) == {"a", "b", "c", "ab", "ac", "bc", "abc"}
    assert worst_error(results) < TOL


def test_worst_error_nested():
    assert worst_error({"a": {"x": 0.1, "y": 0.3}, "b": {"z": 0.2}}) == 0.3
    assert worst_error({}) == 0.0
