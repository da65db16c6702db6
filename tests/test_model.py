import json

import numpy as np
import pytest

from hrrpgnn.errors import ConfigError, DataFormatError, ShapeError, UsageError
from hrrpgnn.model import (
    ABLATION_ORDER,
    AblationConfig,
    GraphClassifier,
    ModelConfig,
    with_ablation,
)


def small_config(**kw):
    base = dict(n_cells=12, n_classes=3, d_out=4, g_out=5, seed=0)
    base.update(kw)
    return ModelConfig(**base)


# ---- configuration ---------------------------------------------------------------


def test_ablation_flag_parsing():
    cfg = AblationConfig.from_flags("ac")
    assert cfg.local_conv and not cfg.graph_conv and cfg.attention
    assert cfg.flags == "ac"
    for flags in ABLATION_ORDER:
        assert AblationConfig.from_flags(flags).flags == flags


def test_ablation_rejects_empty_and_unknown():
    with pytest.raises(ConfigError):
        AblationConfig.from_flags("")
    with pytest.raises(ConfigError):
        AblationConfig.from_flags("xyz")
    with pytest.raises(ConfigError):
        AblationConfig.from_flags("aa")


def test_wiring_dimensions_follow_ablation():
    # graph conv consumes d_out with convs on, raw channel otherwise;
    # the head consumes whatever the last enabled stage emits
    assert small_config().gconv_in_dim == 4
    assert with_ablation(small_config(), "bc").gconv_in_dim == 1
    assert small_config().head_dim == 5
    assert with_ablation(small_config(), "ac").head_dim == 4
    assert with_ablation(small_config(), "c").head_dim == 1
    assert with_ablation(small_config(), "a").head_dim == 4


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(n_cells=2, n_classes=2)
    with pytest.raises(ConfigError):
        ModelConfig(n_cells=8, n_classes=0)
    with pytest.raises(ConfigError):
        ModelConfig(n_cells=8, n_classes=2, leaky_slope=1.5)


def test_config_dict_roundtrip():
    cfg = with_ablation(small_config(per_node_bias=False), "ab")
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


# ---- forward pass ---------------------------------------------------------------


def test_forward_log_probs_shape_and_normalization(rng):
    model = GraphClassifier(small_config())
    lp = model.forward_batch(rng.uniform(0.0, 1.0, size=(6, 12)))
    assert lp.shape == (6, 3)
    np.testing.assert_allclose(np.exp(lp).sum(axis=1), np.ones(6), atol=1e-12)


def test_forward_all_ablations_run(rng):
    amps = rng.uniform(0.0, 1.0, size=(4, 12))
    for flags in ABLATION_ORDER:
        model = GraphClassifier(with_ablation(small_config(), flags))
        lp = model.forward_batch(amps)
        assert lp.shape == (4, 3)
        assert np.all(np.isfinite(lp))


def test_forward_rejects_wrong_cell_count(rng):
    model = GraphClassifier(small_config())
    with pytest.raises(ShapeError):
        model.forward_batch(rng.normal(size=(2, 13)))
    with pytest.raises(ShapeError):
        model.forward_batch(rng.normal(size=12))


def test_loss_batch_is_mean_nll(rng):
    model = GraphClassifier(small_config())
    lp = model.forward_batch(rng.uniform(size=(4, 12)))
    labels = np.array([0, 1, 2, 1])
    expected = -np.mean([lp[i, labels[i]] for i in range(4)])
    assert abs(model.loss_batch(lp, labels) - expected) < 1e-15


def test_loss_rejects_out_of_range_labels(rng):
    model = GraphClassifier(small_config())
    lp = model.forward_batch(rng.uniform(size=(2, 12)))
    with pytest.raises(UsageError):
        model.loss_batch(lp, np.array([0, 3]))
    with pytest.raises(UsageError):
        model.backward(np.array([-1, 0]))


def test_backward_needs_matching_batch(rng):
    model = GraphClassifier(small_config())
    model.forward_batch(rng.uniform(size=(4, 12)))
    with pytest.raises(UsageError):
        model.backward(np.array([0, 1]))


def test_predict_batch_argmax(rng):
    model = GraphClassifier(small_config())
    amps = rng.uniform(size=(5, 12))
    np.testing.assert_array_equal(
        model.predict_batch(amps), np.argmax(model.forward_batch(amps), axis=1)
    )


# ---- initialization -------------------------------------------------------------


def test_same_seed_same_parameters():
    a = GraphClassifier(small_config(seed=7))
    b = GraphClassifier(small_config(seed=7))
    for (name, pa, _), (_, pb, _) in zip(a.tensors(), b.tensors()):
        np.testing.assert_array_equal(pa, pb, err_msg=name)


def test_different_seed_different_parameters():
    a = GraphClassifier(small_config(seed=0))
    b = GraphClassifier(small_config(seed=1))
    assert any(np.any(pa != pb) for (_, pa, _), (_, pb, _) in zip(a.tensors(), b.tensors()))


def test_init_convention():
    model = GraphClassifier(small_config())
    assert np.all(model.conv1.bias == 0.0) and np.all(model.fc.b == 0.0)
    assert np.all(model.gconv.bias == 0.0)
    assert np.all(model.bn1.gamma == 1.0) and np.all(model.bn1.beta == 0.0)
    assert np.all(model.bn1.running_mean == 0.0) and np.all(model.bn1.running_var == 1.0)
    bound = np.sqrt(1.0 / model.conv2.in_channels / 3.0)
    assert np.all(np.abs(model.conv2.kernels) <= bound)


def test_reinit_resets_after_training_steps(rng, toy_benchmark):
    model = GraphClassifier(small_config(n_cells=32, n_classes=2))
    fresh = {name: p.copy() for name, p, _ in model.tensors()}
    train_ds, _ = toy_benchmark
    amps = train_ds.amplitude_matrix()[:8]
    model.forward_batch(amps, training=True)
    model.backward(train_ds.labels()[:8])
    for _, p, g in model.tensors():
        p -= 0.1 * g
    model.init_params(small_config().seed)
    for name, p, _ in model.tensors():
        np.testing.assert_array_equal(p, fresh[name], err_msg=name)


# ---- checkpoints -----------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path, rng):
    model = GraphClassifier(small_config(seed=3))
    # perturb so we are not just testing the initializer
    for _, p, _ in model.tensors():
        p += rng.normal(0.0, 0.01, size=p.shape)
    path = tmp_path / "model.json"
    model.save(path)
    clone = GraphClassifier.load(path)
    assert clone.config == model.config
    assert clone.step_count == model.step_count
    for (name, pa), (_, pb) in zip(
        sorted(model.state_arrays().items()), sorted(clone.state_arrays().items())
    ):
        np.testing.assert_array_equal(pa, pb, err_msg=name)
    # saving the clone reproduces the original file byte for byte
    clone_path = tmp_path / "clone.json"
    clone.save(clone_path)
    assert clone_path.read_bytes() == path.read_bytes()


def test_checkpoint_preserves_predictions(tmp_path, rng):
    model = GraphClassifier(small_config(seed=5))
    amps = rng.uniform(size=(8, 12))
    path = tmp_path / "model.json"
    model.save(path)
    np.testing.assert_array_equal(
        GraphClassifier.load(path).forward_batch(amps), model.forward_batch(amps)
    )


def test_load_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all", encoding="utf-8")
    with pytest.raises(DataFormatError):
        GraphClassifier.load(bad)
    bad.write_text(json.dumps({"format": "something-else"}), encoding="utf-8")
    with pytest.raises(DataFormatError):
        GraphClassifier.load(bad)


def test_load_rejects_missing_tensor(tmp_path):
    model = GraphClassifier(small_config())
    path = tmp_path / "model.json"
    model.save(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    del payload["tensors"]["fc.w"]
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DataFormatError, match="fc.w"):
        GraphClassifier.load(path)


def test_load_rejects_shape_mismatch(tmp_path):
    model = GraphClassifier(small_config())
    path = tmp_path / "model.json"
    model.save(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["tensors"]["fc.b"]["shape"] = [99]
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DataFormatError, match="fc.b"):
        GraphClassifier.load(path)


def test_disabled_layers_keep_zero_grads(rng):
    model = GraphClassifier(with_ablation(small_config(), "bc"))
    amps = rng.uniform(size=(4, 12))
    model.forward_batch(amps, training=True)
    model.backward(np.array([0, 1, 2, 0]))
    grads = dict((name, g) for name, _, g in model.tensors())
    assert np.all(grads["conv1.kernels"] == 0.0)
    assert np.all(grads["bn1.gamma"] == 0.0)
    assert np.any(grads["gconv.w1"] != 0.0)
    assert np.any(grads["att.w"] != 0.0)
