import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from hrrpgnn.errors import ConfigError, DataFormatError, ShapeError, UsageError
from hrrpgnn.layers import uniform_init
from hrrpgnn.model import ABLATION_ORDER, GraphClassifier, ModelConfig


def small_config(**kw):
    base = dict(n_cells=12, n_classes=3, d_out=4, g_out=5, seed=0)
    base.update(kw)
    return ModelConfig(**base)


# ---- configuration ---------------------------------------------------------------


def test_ablation_flag_parsing():
    # any order of the same modules is the same config, stored canonically
    assert small_config(ablation="ca") == small_config(ablation="ac")
    assert small_config(ablation="ca").ablation == "ac"
    assert small_config().ablation == "abc"
    for flags in ABLATION_ORDER:
        assert small_config(ablation=flags).ablation == flags


def test_ablation_rejects_empty_and_unknown():
    for bad in ("", "xyz", "aa", 5, ["a"]):
        with pytest.raises(ConfigError, match="ablation"):
            small_config(ablation=bad)


def test_wiring_dimensions_follow_ablation():
    # graph conv consumes d_out with convs on, raw channel otherwise;
    # the head consumes whatever the last enabled stage emits
    assert small_config().gconv_in_dim == 4
    assert replace(small_config(), ablation="bc").gconv_in_dim == 1
    assert small_config().head_dim == 5
    assert replace(small_config(), ablation="ac").head_dim == 4
    assert replace(small_config(), ablation="c").head_dim == 1
    assert replace(small_config(), ablation="a").head_dim == 4


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(n_cells=2, n_classes=2)
    with pytest.raises(ConfigError):
        ModelConfig(n_cells=8, n_classes=0)


def test_config_dict_roundtrip():
    cfg = small_config(ablation="ab")
    assert ModelConfig(**asdict(cfg)) == cfg


# ---- forward pass ---------------------------------------------------------------


def test_forward_log_probs_shape_and_normalization(rng):
    model = GraphClassifier(small_config())
    lp = model.forward_batch(rng.uniform(0.0, 1.0, size=(6, 12)))
    assert lp.shape == (6, 3)
    np.testing.assert_allclose(np.exp(lp).sum(axis=1), np.ones(6), atol=1e-12)


def test_forward_all_ablations_run(rng):
    amps = rng.uniform(0.0, 1.0, size=(4, 12))
    for flags in ABLATION_ORDER:
        model = GraphClassifier(replace(small_config(), ablation=flags))
        lp = model.forward_batch(amps)
        assert lp.shape == (4, 3)
        assert np.all(np.isfinite(lp))
        np.testing.assert_allclose(np.exp(lp).sum(axis=1), np.ones(4), atol=1e-12)


def test_chain_follows_ablation():
    def names(flags):
        return [name for name, _ in GraphClassifier(replace(small_config(), ablation=flags)).chain]

    assert names("abc") == ["conv1", "bn1", "act1", "conv2", "bn2", "act2", "gconv", "att", "fc"]
    assert names("bc") == ["gconv", "att", "fc"]
    assert names("c") == ["att", "fc"]


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


def test_init_draw_order():
    """Weights are uniform_init draws from one default_rng(seed), in a fixed order.

    The order is conv1, conv2, gconv (w1 then w2), att, fc for every ablation,
    whether or not the layer runs; everything else starts at its constant.
    """
    for flags in ABLATION_ORDER:
        for seed in (0, 7):
            cfg = small_config(ablation=flags, seed=seed)
            rng = np.random.default_rng(seed)
            d, g_in, head = cfg.d_out, cfg.gconv_in_dim, cfg.head_dim
            drawn = {
                "conv1.kernels": uniform_init(rng, (d, 1, 3), 3),
                "conv2.kernels": uniform_init(rng, (d, d, 3), 3 * d),
                "gconv.w1": uniform_init(rng, (cfg.g_out, g_in), g_in),
                "gconv.w2": uniform_init(rng, (cfg.g_out, g_in), g_in),
                "att.w": uniform_init(rng, (head,), head),
                "fc.w": uniform_init(rng, (cfg.n_classes, head), head),
            }
            for name, arr in GraphClassifier(cfg).state_arrays().items():
                where = f"{flags} seed {seed}: {name}"
                if name in drawn:
                    np.testing.assert_array_equal(arr, drawn[name], err_msg=where)
                else:
                    start = 1.0 if name.endswith(("gamma", "running_var")) else 0.0
                    assert np.all(arr == start), where


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
    model = GraphClassifier(replace(small_config(), ablation="bc"))
    amps = rng.uniform(size=(4, 12))
    model.forward_batch(amps, training=True)
    model.backward(np.array([0, 1, 2, 0]))
    grads = dict((name, g) for name, _, g in model.tensors())
    assert np.all(grads["conv1.kernels"] == 0.0)
    assert np.all(grads["bn1.gamma"] == 0.0)
    assert np.any(grads["gconv.w1"] != 0.0)
    assert np.any(grads["att.w"] != 0.0)
