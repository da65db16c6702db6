import math

import numpy as np
import pytest

from hrrpgnn.data import make_benchmark, synth_generate, toy_two_class_specs
from hrrpgnn.errors import ConfigError
from hrrpgnn.model import ABLATION_ORDER, GraphClassifier, ModelConfig
from hrrpgnn.trainkit import (
    Adam,
    TrainConfig,
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


class _OneParamModel:
    """Minimal tensors() provider for optimizer unit tests."""

    def __init__(self, value):
        self.p = np.array([float(value)])
        self.g = np.zeros(1)

    def tensors(self):
        yield "p", self.p, self.g


def test_adam_first_step_magnitude():
    # unit gradient: bias correction makes the first step almost exactly -lr
    m = _OneParamModel(0.0)
    opt = Adam(m, TrainConfig(learning_rate=0.1))
    m.g[...] = 1.0
    opt.step()
    assert abs(m.p[0] + 0.1) < 1e-8


def test_adam_matches_reference_updates():
    """Five steps on a scalar against the textbook update formulas."""
    cfg = TrainConfig(learning_rate=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
    model = _OneParamModel(1.3)
    opt = Adam(model, cfg)

    theta = 1.3
    m = v = 0.0
    rng = np.random.default_rng(3)
    for t in range(1, 6):
        g = float(rng.normal())
        model.g[...] = g
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        theta -= 0.01 * (m / (1 - 0.9 ** t)) / (math.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        assert abs(model.p[0] - theta) < 1e-12


def test_adam_steps_in_place():
    m = _OneParamModel(0.0)
    p_ref = m.p
    opt = Adam(m, TrainConfig())
    m.g[...] = 1.0
    opt.step()
    assert m.p is p_ref and m.p[0] != 0.0


def test_adam_descends_quadratic():
    m = _OneParamModel(5.0)
    opt = Adam(m, TrainConfig(learning_rate=0.1))
    for _ in range(500):
        m.g[...] = 2.0 * m.p  # d/dp of p^2
        opt.step()
    assert abs(m.p[0]) < 1e-3


def test_train_config_roundtrip():
    cfg = TrainConfig(epochs=5, batch_size=8, learning_rate=0.01)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg


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


def test_trailing_singleton_batch_folds_into_previous():
    """33 samples at batch 16 must not leave a 1-sample batch (batchnorm needs 2)."""
    specs = toy_two_class_specs(16)
    ds = synth_generate(specs, per_class=17, n_cells=16, seed=0)
    ds.samples = ds.samples[:33]
    model = tiny_model(n_cells=16)
    log = train(model, ds, TrainConfig(epochs=1, batch_size=16))
    assert log[-1]["epoch"] == 1  # completes despite 33 = 16 + 16 + 1


def test_train_rejects_mismatched_data(toy_benchmark):
    train_ds, _ = toy_benchmark
    with pytest.raises(ConfigError):
        train(tiny_model(n_cells=64), train_ds, TrainConfig(epochs=1))
    with pytest.raises(ConfigError):
        train(tiny_model(n_classes=1), train_ds, TrainConfig(epochs=1))


def test_evaluate_rejects_more_classes_than_model(toy_benchmark):
    # the toy data has labels 0 and 1; a one-class model cannot score label 1
    _, test_ds = toy_benchmark
    with pytest.raises(ConfigError, match="labels reach 1"):
        evaluate(tiny_model(n_classes=1), test_ds)


def test_val_columns_present_with_val_set(toy_benchmark):
    train_ds, test_ds = toy_benchmark
    log = train(tiny_model(), train_ds, TrainConfig(epochs=1, batch_size=16),
                val_dataset=test_ds)
    assert log[0]["val_accuracy"] is not None
    assert 0.0 <= log[-1]["val_accuracy"] <= 100.0
    assert log[-1]["val_macro_f1"] is not None


def test_early_stop_callback(toy_benchmark):
    train_ds, _ = toy_benchmark
    log = train(tiny_model(), train_ds, TrainConfig(epochs=50, batch_size=16),
                epoch_callback=lambda row: row["epoch"] >= 2)
    assert log[-1]["epoch"] == 2


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
