import errno
import json
import os
from dataclasses import asdict, replace

import numpy as np
import pytest

from hrrpgnn.errors import ConfigError, DataFormatError, ShapeError, UsageError
from hrrpgnn.layers import BatchNorm1d, LeakyReLU, uniform_init
from hrrpgnn.model import ABLATION_ORDER, GraphClassifier, ModelConfig
from hrrpgnn.numerics import log_softmax, softmax
from oracle_reference import build_adjacency


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


@pytest.mark.parametrize("seed", [True, False, np.bool_(True), -1, 1.0, "0"])
def test_config_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ConfigError, match=r"^seed must be an integer >= 0, got "):
        ModelConfig(n_cells=8, n_classes=2, seed=seed)


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

    # with module b on, the graph conv does the pooling itself
    assert names("abc") == ["conv1", "bn1", "act1", "conv2", "bn2", "act2", "gconv", "fc"]
    assert names("bc") == ["gconv", "fc"]
    assert names("b") == ["gconv", "fc"]
    assert names("ac") == ["conv1", "bn1", "act1", "conv2", "bn2", "act2", "att", "fc"]
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
    lp = model.forward_batch(rng.uniform(size=(2, 12)), training=True)
    with pytest.raises(UsageError):
        model.loss_batch(lp, np.array([0, 3]))
    with pytest.raises(UsageError, match="labels must lie"):
        model.backward(np.array([-1, 0]))


def test_backward_needs_matching_batch(rng):
    model = GraphClassifier(small_config())
    model.forward_batch(rng.uniform(size=(4, 12)), training=True)
    with pytest.raises(UsageError, match="batch size 4"):
        model.backward(np.array([0, 1]))


def test_backward_needs_a_training_mode_forward(rng):
    model = GraphClassifier(small_config())
    with pytest.raises(UsageError, match="training-mode forward"):
        model.backward(np.zeros(70, dtype=np.int64))
    model.forward_batch(rng.uniform(size=(70, 12)), training=True)
    model.forward_batch(rng.uniform(size=(70, 12)))  # eval mode drops the training cache
    with pytest.raises(UsageError, match="training-mode forward"):
        model.backward(np.zeros(70, dtype=np.int64))


def _pinned_model(flags: str) -> GraphClassifier:
    """A 16-cell model with every tensor, BN running stats included, set to arbitrary values."""
    model = GraphClassifier(small_config(n_cells=16, ablation=flags))
    rng = np.random.default_rng(2024)
    for name, arr in sorted(model.state_arrays().items()):
        if name.endswith("running_var"):
            arr[...] = rng.uniform(0.5, 1.5, size=arr.shape)
        else:
            arr[...] = rng.uniform(-0.5, 0.5, size=arr.shape)
    return model


@pytest.mark.parametrize("rows", [70, 33])  # blocks of 32 + 32 + 6, and 32 + 1
@pytest.mark.parametrize("flags", ABLATION_ORDER)
def test_eval_forward_runs_in_blocks_of_32(flags, rows):
    from oracle_reference import reference_log_probs

    model = _pinned_model(flags)
    amps = np.abs(np.random.default_rng(rows).normal(size=(rows, 16)))
    got = model.forward_batch(amps)
    pieces = [model.forward_batch(amps[i : i + 32]) for i in range(0, rows, 32)]
    np.testing.assert_array_equal(got, np.concatenate(pieces))
    state = {name: arr.tolist() for name, arr in model.state_arrays().items()}
    want = np.array([
        reference_log_probs(state, row.tolist(), LeakyReLU.SLOPE, BatchNorm1d.EPS, flags)
        for row in amps
    ])
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("flags", ["a", "ab", "ac", "abc"])
def test_eval_folds_batchnorm_at_the_shipped_widths(flags):
    """d_out 16 and g_out 32, with BN tensors far from their start: the eval forward, which
    folds each BatchNorm into its conv, matches the oracle, which runs each on its own."""
    from oracle_reference import reference_log_probs

    model = GraphClassifier(ModelConfig(n_cells=40, n_classes=3, ablation=flags))
    rng = np.random.default_rng(5)
    for name, arr in sorted(model.state_arrays().items()):
        if name.startswith("bn"):
            low, high = (0.5, 1.5) if name.endswith("running_var") else (-2.0, 2.0)
            arr[...] = rng.uniform(low, high, size=arr.shape)
        elif name in ("gconv.bias", "fc.b"):
            arr[...] = rng.uniform(-0.5, 0.5, size=arr.shape)
    amps = np.abs(rng.normal(size=(4, 40)))
    got = model.forward_batch(amps)
    state = {name: arr.tolist() for name, arr in model.state_arrays().items()}
    want = [reference_log_probs(state, row.tolist(), LeakyReLU.SLOPE, BatchNorm1d.EPS, flags)
            for row in amps]
    assert np.max(np.abs(got - np.array(want))) <= 1e-12


def test_only_training_mode_runs_batchnorm(rng, monkeypatch):
    """Eval mode folds each BatchNorm into the conv before it; training runs each once."""
    calls = []
    forward = BatchNorm1d.forward

    def counted(self, x):
        calls.append(self)
        return forward(self, x)

    monkeypatch.setattr(BatchNorm1d, "forward", counted)
    model = GraphClassifier(small_config())
    model.forward_batch(rng.uniform(size=(70, 12)))
    assert calls == []
    model.forward_batch(rng.uniform(size=(70, 12)), training=True)
    assert calls == [model.bn1, model.bn2]


def test_block_sizes_by_mode(rng, monkeypatch):
    """Eval mode feeds the chain 32 rows at a time; training mode the whole batch at once."""
    model = GraphClassifier(small_config())
    seen = []
    forward = model.fc.forward

    def spy(v):
        seen.append(len(v))
        return forward(v)

    monkeypatch.setattr(model.fc, "forward", spy)
    model.forward_batch(rng.uniform(size=(70, 12)))
    assert seen == [32, 32, 6]
    seen.clear()
    model.forward_batch(rng.uniform(size=(70, 12)), training=True)
    assert seen == [70]
    seen.clear()
    assert model.forward_batch(np.zeros((0, 12))).shape == (0, 3)
    assert seen == [0]


@pytest.mark.parametrize("flags", ["c", "ac", "bc", "abc"])
def test_attention_weights_are_the_last_forwards(flags, rng):
    """The readout's alpha holds the weights the last forward pooled with, whether
    att ran on its own or the graph conv read out through its own scores."""
    model = GraphClassifier(replace(small_config(), ablation=flags))
    amps = rng.uniform(size=(5, 12))
    for training in (True, False):
        log_probs = model.forward_batch(amps, training=training)
        alpha = (model.gconv if "b" in flags else model.att).alpha
        assert alpha.shape == (5, 12)
        np.testing.assert_allclose(alpha.sum(axis=1), np.ones(5), atol=1e-12)
        if "b" in flags:
            # the pooled vector the head saw is Y alpha, with Y the dense graph-conv output
            # of the nodes this pass gave the graph conv
            gc = model.gconv
            x = gc._cache[0]
            y = gc.w1 @ x + gc.w2 @ (x @ np.stack([build_adjacency(a) for a in amps])) + gc.bias
            np.testing.assert_allclose(alpha, softmax(gc.score @ y, axis=1), atol=1e-12)
            pooled = (y @ alpha[:, :, None])[:, :, 0]
            np.testing.assert_allclose(log_probs, log_softmax(model.fc.forward(pooled), axis=1),
                                       atol=1e-12)


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
    assert np.all(model.fc.b == 0.0) and np.all(model.gconv.bias == 0.0)
    assert np.all(model.bn1.gamma == 1.0) and np.all(model.bn1.beta == 0.0)
    assert np.all(model.bn1.running_mean == 0.0) and np.all(model.bn1.running_var == 1.0)
    bound = np.sqrt(1.0 / model.conv2.in_channels / 3.0)
    assert np.all(np.abs(model.conv2.kernels) <= bound)


def test_init_draw_order():
    """Weights are uniform_init draws from one default_rng(seed), in a fixed order.

    The order is conv1, conv2, gconv (w1 then w2), the score vector, fc for every
    ablation, whether or not the row keeps the layer; everything else starts at its
    constant. The score vector is gconv's in rows bc and abc, and att's otherwise.
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
                "gconv.score" if "b" in flags and "c" in flags else "att.w":
                    uniform_init(rng, (head,), head),
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


def test_failed_save_leaves_checkpoint_unchanged(tmp_path, monkeypatch):
    """A save that fails after its temp file is written keeps the old checkpoint intact."""
    path = tmp_path / "model.json"
    GraphClassifier(small_config(seed=1)).save(path)
    before = path.read_bytes()

    def full_disk(src, dst):
        assert os.path.exists(src), "the temp file is written before the replace"
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(src))

    monkeypatch.setattr(os, "replace", full_disk)
    with pytest.raises(OSError) as failed:
        GraphClassifier(small_config(seed=2)).save(path)
    assert failed.value.errno == errno.ENOSPC
    assert failed.value.filename == str(path)  # the target, not the temp file
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


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


def test_load_rejects_unknown_tensor(tmp_path):
    model = GraphClassifier(small_config())
    path = tmp_path / "model.json"
    model.save(path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["tensors"]["att.b"] = {"shape": [1], "data": [0.0]}
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(DataFormatError, match=r"unknown tensors: \['att.b'\]"):
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


def test_disabled_layers_are_absent(rng):
    """Row bc holds no conv block: no attribute, tensor or running statistic of it."""
    model = GraphClassifier(replace(small_config(), ablation="bc"))
    for name in ("conv1", "bn1", "act1", "conv2", "bn2", "act2", "mean_pool"):
        assert getattr(model, name) is None, name
    assert model.att is None  # the graph conv holds the score vector
    assert not [name for name in model.state_arrays() if name.startswith(("conv", "bn"))]
    model.forward_batch(rng.uniform(size=(4, 12)), training=True)
    model.backward(np.array([0, 1, 2, 0]))
    grads = {name: g for name, _, g in model.tensors()}
    assert sorted(grads) == ["fc.b", "fc.w", "gconv.bias", "gconv.score", "gconv.w1", "gconv.w2"]
    assert np.any(grads["gconv.w1"] != 0.0)
    assert np.any(grads["gconv.score"] != 0.0)


def test_every_chain_tensor_gets_a_gradient():
    """No parameter on the chain is inert: a bias that the next operation cancels
    (a conv's before BatchNorm, an attention score's before the softmax) would get
    a gradient of rounding noise, about 1e-17, and never change the output."""
    for flags in ABLATION_ORDER:
        for seed in (0, 1, 2):
            model = GraphClassifier(ModelConfig(16, 3, d_out=6, g_out=8, ablation=flags, seed=seed))
            rng = np.random.default_rng(seed)
            model.forward_batch(rng.uniform(0.1, 1.0, (8, 16)), training=True)
            model.backward(rng.integers(0, 3, 8))
            for name, _, grad in model.tensors():
                assert np.max(np.abs(grad)) > 1e-10, f"{flags} seed {seed}: {name}"
