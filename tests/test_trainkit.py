import math
import re
from dataclasses import replace

import numpy as np
import pytest

from hrrpgnn.data import (
    default_three_class_specs,
    make_benchmark,
    synth_generate,
    toy_two_class_specs,
)
from hrrpgnn.errors import ConfigError
from hrrpgnn.model import ABLATION_ORDER, GraphClassifier, ModelConfig
from hrrpgnn.trainkit import (
    Adam,
    TrainConfig,
    _batches,
    ablation_table,
    confusion_matrix,
    dataset_loss,
    evaluate,
    format_confusion,
    metrics_from_confusion,
    run_ablation_suite,
    save_ablation_csv,
    save_epoch_log,
    train,
)


def tiny_model(**kw):
    base = dict(n_cells=32, n_classes=2, d_out=3, g_out=4, seed=0)
    base.update(kw)
    return GraphClassifier(ModelConfig(**base))


# ---- optimizer -------------------------------------------------------------------


def _one_param(value):
    """A single scalar tensor and its gradient slot, as Adam's (name, param, grad) list."""
    p, g = np.array([float(value)]), np.zeros(1)
    return [("p", p, g)], p, g


def test_adam_first_step_magnitude():
    # unit gradient: bias correction makes the first step almost exactly -lr
    tensors, p, g = _one_param(0.0)
    opt = Adam(tensors, 0.1)
    g[...] = 1.0
    opt.step()
    assert abs(p[0] + 0.1) < 1e-8


def test_adam_matches_reference_updates():
    """Five steps on a scalar against the textbook update formulas."""
    tensors, p, g_slot = _one_param(1.3)
    opt = Adam(tensors, 0.01)

    theta = 1.3
    m = v = 0.0
    rng = np.random.default_rng(3)
    for t in range(1, 6):
        g = float(rng.normal())
        g_slot[...] = g
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        theta -= 0.01 * (m / (1 - 0.9 ** t)) / (math.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        assert abs(p[0] - theta) < 1e-12


def test_adam_steps_in_place():
    tensors, p, g = _one_param(0.0)
    p_ref = tensors[0][1]
    opt = Adam(tensors, TrainConfig().learning_rate)
    g[...] = 1.0
    opt.step()
    assert p is p_ref and p[0] != 0.0


def test_adam_descends_quadratic():
    tensors, p, g = _one_param(5.0)
    opt = Adam(tensors, 0.1)
    for _ in range(500):
        g[...] = 2.0 * p  # d/dp of p^2
        opt.step()
    assert abs(p[0]) < 1e-3


_CONV = ["conv1.kernels", "bn1.gamma", "bn1.beta", "conv2.kernels", "bn2.gamma", "bn2.beta"]
_GCONV = ["gconv.w1", "gconv.w2", "gconv.bias"]
_FC = ["fc.w", "fc.b"]
# each row's tensors in checkpoint order: a 8, b 5, c 3, ab 11, ac 9, bc 6, abc 12; with
# module b, the score vector is the graph conv's
ROW_TENSORS = {
    "a": _CONV + _FC,
    "b": _GCONV + _FC,
    "c": ["att.w"] + _FC,
    "ab": _CONV + _GCONV + _FC,
    "ac": _CONV + ["att.w"] + _FC,
    "bc": _GCONV + ["gconv.score"] + _FC,
    "abc": _CONV + _GCONV + ["gconv.score"] + _FC,
}


def test_train_config_needs_an_epoch():
    with pytest.raises(ConfigError, match="^epochs must be an integer >= 1, got 0$"):
        TrainConfig(epochs=0)


@pytest.mark.parametrize("field, value", [
    ("epochs", True), ("epochs", 2.5), ("batch_size", 1.5), ("batch_size", np.float64(32.0)),
    ("epochs", "3")])
def test_train_config_rejects_a_count_that_is_not_an_integer(field, value):
    with pytest.raises(ConfigError, match=rf"^{field} must be an integer >= 1, got "):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("flags", ABLATION_ORDER)
def test_row_holds_and_trains_only_its_tensors(flags, toy_benchmark):
    """A row's model holds exactly its tensors, plus BN running statistics with
    module a, and one epoch moves every one of them."""
    train_ds, _ = toy_benchmark
    model = tiny_model(ablation=flags)
    before = {name: param.copy() for name, param, _ in model.tensors()}
    assert list(before) == ROW_TENSORS[flags]
    running = [f"bn{i}.running_{s}" for i in (1, 2) for s in ("mean", "var")] if "a" in flags else []
    assert list(model.state_arrays()) == ROW_TENSORS[flags] + running
    train(model, train_ds, TrainConfig(epochs=1, batch_size=16))
    for name, param, _ in model.tensors():
        assert np.any(param != before[name]), f"{flags}: {name} did not move"


# ---- training loop -----------------------------------------------------------------


def test_epoch_zero_row_is_untrained_baseline(toy_benchmark):
    train_ds, _ = toy_benchmark
    model = tiny_model()
    log = train(model, train_ds, TrainConfig(epochs=2, batch_size=16))
    assert log[0]["epoch"] == 0
    assert log[0]["train_accuracy"] is None
    # fresh 2-class model should sit near the ln 2 chance loss
    assert abs(log[0]["train_loss"] - math.log(2)) / math.log(2) < 0.25
    assert [row["epoch"] for row in log] == [0, 1, 2]
    # the rows carry no wall time: every value is deterministic
    for row in log:
        assert list(row) == ["epoch", "train_loss", "train_accuracy", "val_accuracy",
                             "val_macro_f1"]


def test_training_reduces_loss(toy_benchmark):
    train_ds, _ = toy_benchmark
    model = tiny_model()
    log = train(model, train_ds, TrainConfig(epochs=10, batch_size=16))
    assert log[-1]["train_loss"] < log[0]["train_loss"]


def test_train_is_deterministic(toy_benchmark):
    train_ds, _ = toy_benchmark
    cfg = TrainConfig(epochs=3, batch_size=16)
    log_a = train(tiny_model(), train_ds, cfg)
    log_b = train(tiny_model(), train_ds, cfg)
    assert [r["train_loss"] for r in log_a] == [r["train_loss"] for r in log_b]


def test_shuffle_seed_changes_batch_order(toy_benchmark):
    train_ds, _ = toy_benchmark
    log_a = train(tiny_model(), train_ds, TrainConfig(epochs=1, batch_size=16, shuffle_seed=0))
    log_b = train(tiny_model(), train_ds, TrainConfig(epochs=1, batch_size=16, shuffle_seed=1))
    assert log_a[-1]["train_loss"] != log_b[-1]["train_loss"]


def _head(ds, n):
    """The first ``n`` samples of ``ds``."""
    return replace(ds, amplitudes=ds.amplitudes[:n], label_ids=ds.label_ids[:n])


def test_trailing_singleton_batch_steps_alone(monkeypatch):
    """33 samples at batch 16 train in batches of 16, 16 and 1: the last sample steps alone."""
    specs = toy_two_class_specs(16)
    ds = synth_generate(specs, per_class=17, n_cells=16, seed=0)
    ds = _head(ds, 33)
    model = tiny_model(n_cells=16)
    forward, sizes = model.forward_batch, []

    def forward_spy(amps, training=False):
        if training:
            sizes.append(len(amps))
        return forward(amps, training)

    monkeypatch.setattr(model, "forward_batch", forward_spy)
    log = train(model, ds, TrainConfig(epochs=1, batch_size=16))
    assert sizes == [16, 16, 1]
    assert log[-1]["epoch"] == 1 and math.isfinite(log[-1]["train_loss"])


@pytest.mark.parametrize("n, sizes", [(2, [2]), (33, [32, 1]), (34, [32, 2]), (64, [32, 32]),
                                      (65, [32, 32, 1])], ids=["n2", "n33", "n34", "n64", "n65"])
def test_batches_partition_the_samples_a_singleton_included(n, sizes):
    """At batch 32, the batches are consecutive slices of one shuffle, the last holding
    what is left, a single sample included; together they hold every sample once."""
    batches = _batches(n, 32, np.random.default_rng(0))
    assert [len(b) for b in batches] == sizes
    assert sorted(np.concatenate(batches).tolist()) == list(range(n))


@pytest.mark.parametrize("flags", ABLATION_ORDER)
def test_every_row_trains_on_batches_and_datasets_of_one(flags):
    """Only BatchNorm sets a minimum, and one profile's cells meet it: every row trains
    at batch_size 1 and on a one-sample dataset with finite losses."""
    ds = synth_generate(toy_two_class_specs(16), per_class=2, n_cells=16, seed=0)
    one = _head(ds, 1)
    for data, config in ((ds, TrainConfig(epochs=2, batch_size=1)),
                         (one, TrainConfig(epochs=2, batch_size=4))):
        log = train(tiny_model(n_cells=16, ablation=flags), data, config)
        assert len(log) == 3
        assert all(math.isfinite(row["train_loss"]) for row in log)


def test_epoch_row_is_the_mean_over_its_training_batches(toy_benchmark, monkeypatch):
    """An epoch's train_loss is the sample-weighted mean of its training-mode batch
    losses, and its train_accuracy the share of those batches' rows predicted right."""
    train_ds, _ = toy_benchmark
    model = tiny_model()
    forward, loss = model.forward_batch, model.loss_batch
    mode, batches = [], []

    def forward_spy(amps, training=False):
        mode[:] = [training]
        return forward(amps, training)

    def loss_spy(log_probs, labels):
        value = loss(log_probs, labels)
        if mode == [True]:
            correct = int((np.argmax(log_probs, axis=1) == labels).sum())
            batches.append((value, len(labels), correct))
        return value

    monkeypatch.setattr(model, "forward_batch", forward_spy)
    monkeypatch.setattr(model, "loss_batch", loss_spy)
    log = train(model, train_ds, TrainConfig(epochs=2, batch_size=16))
    n = len(train_ds)
    assert n == 100 and len(batches) == 14  # per epoch, six batches of 16 and one of 4
    for row, epoch in zip(log[1:], (batches[:7], batches[7:])):
        assert [size for _, size, _ in epoch] == [16] * 6 + [4]
        weighted = sum(value * size for value, size, _ in epoch)
        assert row["train_loss"] == pytest.approx(weighted / n, rel=1e-12)
        assert row["train_accuracy"] == pytest.approx(
            100.0 * sum(correct for _, _, correct in epoch) / n, rel=1e-12)


@pytest.mark.parametrize("seed", [True, False, np.bool_(False), -1, 0.0])
def test_train_config_rejects_a_shuffle_seed_that_is_not_an_integer(seed):
    with pytest.raises(ConfigError, match=r"^shuffle_seed must be an integer >= 0, got "):
        TrainConfig(shuffle_seed=seed)


def test_train_rejects_mismatched_data(toy_benchmark):
    train_ds, _ = toy_benchmark
    with pytest.raises(ConfigError):
        train(tiny_model(n_cells=64), train_ds, TrainConfig(epochs=1))
    with pytest.raises(ConfigError):
        train(tiny_model(n_classes=1), train_ds, TrainConfig(epochs=1))


def test_evaluate_rejects_more_classes_than_model(toy_benchmark):
    # the toy data has labels 0 and 1; a one-class model cannot score label 1
    _, test_ds = toy_benchmark
    with pytest.raises(ConfigError, match="2 classes, model has 32 cells and 1 classes"):
        evaluate(tiny_model(n_classes=1), test_ds)


def test_declared_class_count_must_match_the_model(toy_benchmark):
    # the labels (0 and 1) fit a 2-class model, but the declared 3 classes do not
    train_ds, test_ds = toy_benchmark
    three = replace(test_ds, n_classes=3, class_names=["left", "right", "extra"])
    model = tiny_model()
    for call in (lambda: evaluate(model, three), lambda: dataset_loss(model, three),
                 lambda: train(model, train_ds, TrainConfig(epochs=1), val_dataset=three)):
        with pytest.raises(ConfigError, match="3 classes, model has 32 cells and 2 classes"):
            call()
    assert model.step_count == 0
    with pytest.raises(ConfigError, match="2 classes, model has 32 cells and 3 classes"):
        evaluate(tiny_model(n_classes=3), test_ds)


def test_val_columns_present_with_val_set(toy_benchmark):
    train_ds, test_ds = toy_benchmark
    log = train(tiny_model(), train_ds, TrainConfig(epochs=1, batch_size=16),
                val_dataset=test_ds)
    assert log[0]["val_accuracy"] is not None
    assert 0.0 <= log[-1]["val_accuracy"] <= 100.0
    assert log[-1]["val_macro_f1"] is not None


@pytest.mark.parametrize("flags", ["abc", "a"])
def test_validation_passes_change_nothing_in_training(flags, toy_benchmark):
    """Eval-mode passes write no running statistic and no cache the next backward reads."""
    train_ds, test_ds = toy_benchmark
    runs = []
    for val in (None, test_ds):
        model = tiny_model(ablation=flags)
        log = train(model, train_ds, TrainConfig(epochs=3, batch_size=16), val_dataset=val)
        runs.append((model.state_arrays(), [row["train_loss"] for row in log]))
    (state, losses), (state_val, losses_val) = runs
    assert losses_val == losses
    assert list(state_val) == list(state)
    assert any(name.startswith("bn") for name in state)
    for name, arr in state.items():
        np.testing.assert_array_equal(state_val[name], arr, err_msg=name)


def test_early_stop_callback(toy_benchmark):
    train_ds, _ = toy_benchmark
    log = train(tiny_model(), train_ds, TrainConfig(epochs=50, batch_size=16),
                epoch_callback=lambda row: row["epoch"] >= 2)
    assert log[-1]["epoch"] == 2


def test_stop_at_the_baseline_leaves_one_row_with_its_validation_columns(toy_benchmark):
    """A callback that stops at epoch 0 sees that row complete, and nothing trains."""
    train_ds, test_ds = toy_benchmark
    model = tiny_model()
    before = [param.copy() for _, param, _ in model.tensors()]
    seen = []
    log = train(model, train_ds, TrainConfig(epochs=5, batch_size=16), val_dataset=test_ds,
                epoch_callback=lambda row: seen.append(dict(row)) or True)
    assert [row["epoch"] for row in log] == [0]
    assert seen == log  # a copy taken inside the callback: the columns were set by then
    metrics = evaluate(model, test_ds)
    assert log[0]["val_accuracy"] == metrics.accuracy
    assert log[0]["val_macro_f1"] == metrics.macro_f1
    assert model.step_count == 0
    for (name, param, _), old in zip(model.tensors(), before):
        np.testing.assert_array_equal(param, old, err_msg=name)


def test_epoch_log_csv_format(tmp_path, toy_benchmark):
    train_ds, test_ds = toy_benchmark
    model = tiny_model()
    log = train(model, train_ds, TrainConfig(epochs=2, batch_size=16))
    path = tmp_path / "log.csv"
    save_epoch_log(log, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epoch,train_loss,val_accuracy,val_macro_f1"
    assert len(lines) == 4
    assert lines[1].startswith("0,")
    # no validation set: the val columns stay empty
    assert lines[1].endswith(",,")

    log = train(tiny_model(), train_ds, TrainConfig(epochs=1, batch_size=16),
                val_dataset=test_ds)
    save_epoch_log(log, path)
    last = path.read_text(encoding="utf-8").splitlines()[-1]
    assert len(last.split(",")) == 4 and not last.endswith(",")


def test_dataset_loss_matches_forward(toy_benchmark):
    train_ds, _ = toy_benchmark
    model = tiny_model()
    lp = model.forward_batch(train_ds.amplitude_matrix(), training=False)
    expected = model.loss_batch(lp, train_ds.labels())
    assert abs(dataset_loss(model, train_ds) - expected) < 1e-12


# ---- metrics ----------------------------------------------------------------------


def test_confusion_matrix_counts():
    true = np.array([0, 0, 1, 1, 2, 2])
    pred = np.array([0, 1, 1, 1, 2, 0])
    conf = confusion_matrix(true, pred, 3)
    np.testing.assert_array_equal(conf, [[1, 1, 0], [0, 2, 0], [1, 0, 1]])


def test_metrics_perfect_predictions():
    conf = np.diag([10, 20, 30])
    m = metrics_from_confusion(conf)
    assert m.accuracy == 100.0 and m.average_accuracy == 100.0
    assert m.macro_f1 == 100.0 and m.n_samples == 60


def test_metrics_constant_classifier_balanced_three_class():
    # predicting one class on balanced data: 100/3 overall, 100/3 averaged
    conf = np.array([[10, 0, 0], [10, 0, 0], [10, 0, 0]])
    m = metrics_from_confusion(conf)
    assert abs(m.accuracy - 100.0 / 3.0) < 1e-12
    assert abs(m.average_accuracy - 33.33) < 0.01
    np.testing.assert_allclose(m.per_class_accuracy, [100.0, 0.0, 0.0])


def test_metrics_average_accuracy_weights_classes_equally():
    # 90/100 on the big class, 1/10 on the small one
    conf = np.array([[90, 10], [9, 1]])
    m = metrics_from_confusion(conf)
    assert abs(m.accuracy - 100.0 * 91 / 110) < 1e-12
    assert abs(m.average_accuracy - (90.0 + 10.0) / 2.0) < 1e-12


def test_metrics_macro_f1_known_value():
    conf = np.array([[8, 2], [4, 6]])
    # class 0: p=8/12, r=8/10; class 1: p=6/8, r=6/10
    f1_0 = 2 * (8 / 12) * (8 / 10) / ((8 / 12) + (8 / 10))
    f1_1 = 2 * (6 / 8) * (6 / 10) / ((6 / 8) + (6 / 10))
    m = metrics_from_confusion(conf)
    assert abs(m.macro_f1 - 100.0 * (f1_0 + f1_1) / 2.0) < 1e-12
    # class 1 predicted exactly once, rightly: p=1/1, r=1/3; class 0: p=5/7, r=1
    f1_0 = 2 * (5 / 7) / ((5 / 7) + 1)
    f1_1 = 2 * (1 / 3) / (1 + (1 / 3))
    m = metrics_from_confusion(np.array([[5, 0], [2, 1]]))
    assert abs(m.macro_f1 - 100.0 * (f1_0 + f1_1) / 2.0) < 1e-12


def test_metrics_empty_class_warns():
    conf = np.array([[5, 0], [0, 0]])
    with pytest.warns(UserWarning, match="no true samples"):
        m = metrics_from_confusion(conf)
    assert m.per_class_accuracy[1] == 0.0


def test_evaluate_and_format(toy_benchmark):
    _, test_ds = toy_benchmark
    m = evaluate(tiny_model(), test_ds)
    assert m.n_samples == len(test_ds)
    assert m.confusion.sum() == len(test_ds)
    text = format_confusion(m)
    assert "true\\pred" in text and test_ds.class_names[0] in text


@pytest.mark.parametrize("names", [[s.name for s in default_three_class_specs(16)],
                                   ["a", "a-class-name-longer-than-any-count"]])
def test_format_confusion_columns_fit_their_names(names):
    """The header and every row split into n + 1 fields, and each count ends in
    the same column as its class name."""
    k = len(names)
    m = metrics_from_confusion(np.arange(1, k * k + 1).reshape(k, k) * 1234, names)
    lines = format_confusion(m).splitlines()
    assert len(lines) == k + 1
    ends = [[field.end() for field in re.finditer(r"\S+", line)] for line in lines]
    assert all(len(e) == k + 1 for e in ends), lines
    assert all(e[1:] == ends[0][1:] for e in ends), lines


@pytest.mark.filterwarnings("ignore:.*no true samples:UserWarning")
@pytest.mark.parametrize("n_samples", [1, 257])
def test_evaluate_and_dataset_loss_count_every_sample(n_samples):
    """One sample past a multiple of 256, or one sample alone, is evaluated like any
    other: both equal an eval-mode pass over each sample on its own."""
    ds = synth_generate(toy_two_class_specs(16), per_class=129, n_cells=16, seed=0)
    ds = _head(ds, n_samples)
    model = tiny_model(n_cells=16)
    labels = ds.labels()
    log_probs = [model.forward_batch(s.amplitudes[None, :], training=False) for s in ds.samples]
    predicted = np.array([int(np.argmax(lp)) for lp in log_probs])
    m = evaluate(model, ds)
    assert m.n_samples == n_samples and m.confusion.sum() == n_samples
    np.testing.assert_array_equal(m.confusion, confusion_matrix(labels, predicted, 2))
    losses = [model.loss_batch(lp, labels[i : i + 1]) for i, lp in enumerate(log_probs)]
    assert abs(dataset_loss(model, ds) - np.mean(losses)) < 1e-12


def test_metrics_to_dict_rounding():
    m = metrics_from_confusion(np.array([[1, 2], [1, 2]]))
    d = m.to_dict()
    assert d["accuracy"] == round(m.accuracy, 2)
    assert isinstance(d["confusion"][0][0], int)


# ---- ablation sweep ----------------------------------------------------------------


@pytest.fixture(scope="module")
def micro_ablation():
    specs = toy_two_class_specs(16)
    train_ds, test_ds = make_benchmark(specs, per_class=12, n_cells=16, seed=0)
    mc = ModelConfig(n_cells=16, n_classes=2, d_out=2, g_out=3, seed=0)
    tc = TrainConfig(epochs=2, batch_size=8)
    return run_ablation_suite(train_ds, test_ds, mc, tc, seeds=[0, 1])


def test_ablation_suite_emits_all_rows_in_order(micro_ablation):
    assert [r["flags"] for r in micro_ablation] == list(ABLATION_ORDER)
    for row in micro_ablation:
        assert row["error"] is None
        assert len(row["accuracy"]) == 2
        assert len(row["epoch0_loss"]) == 2 and len(row["final_loss"]) == 2


def test_ablation_rows_carry_loss_trajectory(micro_ablation):
    for row in micro_ablation:
        for e0, ef in zip(row["epoch0_loss"], row["final_loss"]):
            assert e0 > 0.0 and ef > 0.0


def test_ablation_suite_rejects_a_misfit_split_before_its_first_row(toy_benchmark):
    train_ds, _ = toy_benchmark
    wide_test = synth_generate(toy_two_class_specs(40), per_class=2, n_cells=40, seed=0)
    mc = ModelConfig(n_cells=32, n_classes=2, d_out=2, g_out=2)
    rows = []
    with pytest.raises(ConfigError, match="test set has 40 cells and 2 classes, model has 32 cells"):
        run_ablation_suite(train_ds, wide_test, mc, TrainConfig(epochs=1), [0],
                           progress=lambda *row: rows.append(row))
    assert rows == []


def test_ablation_suite_needs_a_seed(toy_benchmark):
    train_ds, test_ds = toy_benchmark
    mc = ModelConfig(n_cells=32, n_classes=2, d_out=2, g_out=2)
    with pytest.raises(ConfigError, match="^need at least one seed$"):
        run_ablation_suite(train_ds, test_ds, mc, TrainConfig(epochs=1), [])


def test_ablation_suite_checks_every_seed_before_the_first_row(toy_benchmark, monkeypatch):
    train_ds, test_ds = toy_benchmark
    calls = []
    monkeypatch.setattr("hrrpgnn.trainkit.train", lambda *args: calls.append(args))
    mc = ModelConfig(n_cells=32, n_classes=2, d_out=2, g_out=2)
    with pytest.raises(ConfigError, match=r"^seeds\[1\] must be an integer >= 0, got -1$"):
        run_ablation_suite(train_ds, test_ds, mc, TrainConfig(epochs=1), [0, -1])
    assert calls == []


def test_ablation_table_and_csv(tmp_path, micro_ablation):
    table = ablation_table(micro_ablation)
    for flags in ABLATION_ORDER:
        assert f"\n{flags} " in table or table.startswith(f"{flags} ")
    path = tmp_path / "ablation.csv"
    save_ablation_csv(micro_ablation, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "config,components,seed,accuracy,average_accuracy,macro_f1,error"
    assert len(lines) == 1 + 7 * 2
    assert lines[1].startswith("a,local-conv,0,")


def test_ablation_table_shows_mean_and_population_std():
    """Accuracy prints mean ± population std (a sample std would print 35.36), average
    accuracy and macro-F1 their means; an error row prints ERROR and the error."""
    rows = [
        {"flags": "abc", "components": "local-conv+graph-conv+attention",
         "accuracy": [50.0, 100.0], "average_accuracy": [40.0, 60.0], "macro_f1": [30.0, 50.0],
         "error": None},
        {"flags": "a", "components": "local-conv", "accuracy": [], "average_accuracy": [],
         "macro_f1": [], "error": "NumericError: boom"},
    ]
    lines = ablation_table(rows).splitlines()
    assert re.split(r"\s{2,}", lines[0]) == ["config", "components", "accuracy",
                                             "avg-accuracy", "macro-F1"]
    assert re.split(r"\s{2,}", lines[2].strip()) == [
        "abc", "local-conv+graph-conv+attention", "75.00 ± 25.00", "50.00", "40.00"]
    assert re.split(r"\s{2,}", lines[3].strip()) == ["a", "local-conv", "ERROR",
                                                     "NumericError: boom"]
