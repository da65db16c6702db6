import json
import os
import re
import resource
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hrrpgnn
from hrrpgnn.cli import main
from hrrpgnn.errors import (
    ConfigError,
    DataFormatError,
    HrrpGnnError,
    NumericError,
    ShapeError,
    UsageError,
)
from hrrpgnn.model import GraphClassifier, ModelConfig


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("gen")
    rc = run("gen-data", "--preset", "toy2", "--n-cells", "16", "--per-class", "12",
             "--test-per-class", "8", "--seed", "0", "--out", str(d))
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, gen_dir):
    d = tmp_path_factory.mktemp("run")
    rc = run("train", "--data", str(gen_dir), "--out", str(d),
             "--epochs", "2", "--d-out", "2", "--g-out", "3", "--quiet")
    assert rc == 0
    return d


def test_gen_data_outputs(gen_dir):
    assert (gen_dir / "train.csv").exists()
    assert (gen_dir / "test.csv").exists()
    assert (gen_dir / "class_specs.json").exists()
    resolved = json.loads((gen_dir / "resolved_config.json").read_text(encoding="utf-8"))
    assert resolved["command"] == "gen-data"
    assert resolved["per_class"] == 12 and resolved["n_cells"] == 16


def test_train_outputs(run_dir):
    assert (run_dir / "model.json").exists()
    assert (run_dir / "epoch_log.csv").exists()
    assert (run_dir / "metrics.json").exists()  # test.csv sat next to train.csv
    log_lines = (run_dir / "epoch_log.csv").read_text(encoding="utf-8").splitlines()
    assert log_lines[0] == "epoch,train_loss,val_accuracy,val_macro_f1"
    assert len(log_lines) == 4  # header + epoch 0 baseline + 2 epochs
    model = GraphClassifier.load(run_dir / "model.json")
    assert model.config.d_out == 2 and model.config.n_cells == 16


def test_train_on_bare_csv(gen_dir, tmp_path):
    out = tmp_path / "run"
    rc = run("train", "--data", str(gen_dir / "train.csv"), "--out", str(out),
             "--epochs", "1", "--d-out", "2", "--g-out", "2", "--quiet")
    assert rc == 0
    assert (out / "model.json").exists()
    assert not (out / "metrics.json").exists()  # no test split supplied


def test_eval_prints_metrics_and_writes_csv(gen_dir, run_dir, tmp_path, capsys):
    out_csv = tmp_path / "metrics.csv"
    rc = run("eval", "--data", str(gen_dir / "test.csv"),
             "--checkpoint", str(run_dir / "model.json"), "--out", str(out_csv))
    assert rc == 0
    shown = capsys.readouterr().out
    assert "accuracy" in shown and "true\\pred" in shown
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "metric,value"
    assert any(ln.startswith("accuracy,") for ln in lines)
    assert any(ln.startswith("macro_f1,") for ln in lines)


def test_ablate_produces_seven_rows(gen_dir, tmp_path):
    out = tmp_path / "abl"
    rc = run("ablate", "--data", str(gen_dir), "--out", str(out),
             "--epochs", "1", "--seeds", "1", "--d-out", "2", "--g-out", "2", "--quiet")
    assert rc == 0
    lines = (out / "ablation.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("config,")
    configs = [ln.split(",")[0] for ln in lines[1:]]
    assert configs == ["a", "b", "c", "ab", "ac", "bc", "abc"]
    assert (out / "ablation_table.txt").exists()
    resolved = json.loads((out / "resolved_config.json").read_text(encoding="utf-8"))
    assert "seed" not in resolved and "ablation" not in resolved


@pytest.mark.parametrize("key, value", [("seed", 1), ("ablation", "xyz")])
def test_ablate_config_rejects_the_settings_each_row_sets(key, value, gen_dir, tmp_path, capsys):
    """Every row runs its own modules over seeds 0..seeds-1, so ablate takes neither key."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}), encoding="utf-8")
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run("ablate", "--data", str(gen_dir), "--out", str(out), "--config", str(cfg),
             "--epochs", "1", "--seeds", "1", "--d-out", "2", "--g-out", "2", "--quiet")
    err = capsys.readouterr().err
    assert rc == 2, err
    assert f"unknown config keys [{key!r}]" in err
    assert not out.exists()


def test_gradcheck_single_layer(capsys):
    rc = run("gradcheck", "--layer", "dense", "--seed", "1")
    assert rc == 0
    assert "OK" in capsys.readouterr().out


def test_gradcheck_unknown_layer(monkeypatch, capsys):
    # argparse refuses the name with one line, before any check runs
    monkeypatch.setattr("hrrpgnn.cli.layer_suite", lambda **_: pytest.fail("a check ran"))
    capsys.readouterr()
    assert run("gradcheck", "--layer", "bogus") == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert "argument --layer: invalid choice" in err and "bogus" in err


def test_gradcheck_fails_at_impossible_tolerance(capsys):
    rc = run("gradcheck", "--layer", "dense", "--tol", "1e-18")
    assert rc == 4
    assert "FAIL" in capsys.readouterr().err


def test_gradcheck_fails_a_nan_gradient(monkeypatch, capsys):
    """A backward that writes NaN fails the check with one line and exit 4."""
    backward = hrrpgnn.layers.Dense.backward

    def nan_backward(self, grad_out):
        g_x = backward(self, grad_out)
        self.g_w[...] = np.nan
        return g_x

    monkeypatch.setattr(hrrpgnn.layers.Dense, "backward", nan_backward)
    capsys.readouterr()
    rc = run("gradcheck", "--layer", "dense")
    err = capsys.readouterr().err
    assert rc == 4, err
    assert len(err.strip().splitlines()) == 1, err
    assert err.startswith(
        "error: finite_diff_check: non-finite value at index (0, 0) (analytic nan,"), err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1", "-inf", "-NaN", "-Infinity"])
def test_gradcheck_tolerance_must_be_finite_and_positive(tol, capsys):
    # a NaN tolerance would pass every check, a zero or negative one fail every check;
    # a negative infinity or NaN, in any letter case, is a value, not an option name
    capsys.readouterr()
    rc = run("gradcheck", "--tol", tol)
    err = capsys.readouterr().err
    assert rc == 2, err
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err
    assert "--tol must be finite and > 0" in err


def test_usage_error_exit_code_and_suggestion(capsys):
    rc = run("train", "--data", "x.csv", "--out", "y", "--epcohs", "3")
    assert rc == 2
    err = capsys.readouterr().err
    assert "--epochs" in err
    assert len(err.strip().splitlines()) == 1, err


# a typo close to another command's option, and the whole error it must give
FOREIGN_TYPOS = {
    "eval-epochs": (["eval", "--data", "d", "--checkpoint", "m", "--epcohs", "3"],
                    "unrecognized arguments: --epcohs 3"),
    "gen-data-lr": (["gen-data", "--out", "o", "--lrr", "3"], "unrecognized arguments: --lrr 3"),
    "train-test-offset": (["train", "--data", "d", "--out", "o", "--test-offse", "1"],
                          "unrecognized arguments: --test-offse 1; "
                          "did you mean --test-data instead of --test-offse?"),
}


@pytest.mark.parametrize("case", sorted(FOREIGN_TYPOS))
def test_suggestion_comes_from_the_commands_own_options(case, capsys):
    argv, message = FOREIGN_TYPOS[case]
    capsys.readouterr()
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_missing_dataset_exit_code(tmp_path):
    assert run("train", "--data", "/nonexistent.csv", "--out", str(tmp_path / "never")) == 3


def test_malformed_csv_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("label,h_0\n0,not_a_number\n", encoding="utf-8")
    assert run("eval", "--data", str(bad), "--checkpoint", str(bad)) == 3


def test_bad_ablation_flags_exit_code(gen_dir, tmp_path):
    rc = run("train", "--data", str(gen_dir), "--out", str(tmp_path / "r"),
             "--ablation", "xyz", "--quiet")
    assert rc == 2


def test_config_file_precedence(gen_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 3, "d_out": 2, "g_out": 2}), encoding="utf-8")
    out = tmp_path / "run"
    rc = run("train", "--data", str(gen_dir), "--out", str(out),
             "--config", str(cfg), "--epochs", "1", "--quiet")
    assert rc == 0
    resolved = json.loads((out / "resolved_config.json").read_text(encoding="utf-8"))
    # flag beats config file, config file beats default
    assert resolved["epochs"] == 1
    assert resolved["d_out"] == 2
    assert resolved["g_out"] == 2
    assert resolved["lr"] == 1e-3


def test_config_file_unknown_key(gen_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"learning": 5}), encoding="utf-8")
    rc = run("train", "--data", str(gen_dir), "--out", str(tmp_path / "r"),
             "--config", str(cfg))
    assert rc == 2


def test_config_file_must_hold_an_object(gen_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]", encoding="utf-8")
    capsys.readouterr()
    rc = run("train", "--data", str(gen_dir), "--out", str(tmp_path / "r"), "--config", str(cfg))
    assert capsys.readouterr().err == f"error: {cfg}: config must be a JSON object\n"
    assert rc == 2


def test_ablate_data_must_be_a_directory(gen_dir, tmp_path, capsys):
    data = gen_dir / "train.csv"
    capsys.readouterr()
    rc = run("ablate", "--data", str(data), "--out", str(tmp_path / "r"))
    assert capsys.readouterr().err == (
        f"error: --data must be a directory with train.csv/test.csv, got {data}\n")
    assert rc == 3
    assert not (tmp_path / "r").exists()


# (subcommand, --config contents, the key the error line must name)
BAD_CONFIG_VALUES = {
    "string-epochs": ("train", {"epochs": "5"}, "epochs"),
    "int-ablation": ("train", {"ablation": 5}, "ablation"),
    "string-per-class": ("gen-data", {"per_class": "3"}, "per_class"),
    "string-seeds": ("ablate", {"seeds": "x"}, "seeds"),
    "string-lr": ("train", {"lr": "0.1"}, "lr"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIG_VALUES))
def test_config_file_value_types(case, gen_dir, tmp_path, capsys):
    command, values, key = BAD_CONFIG_VALUES[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values), encoding="utf-8")
    argv = [command, "--out", str(tmp_path / "out"), "--config", str(cfg)]
    if command != "gen-data":
        argv += ["--data", str(gen_dir), "--quiet"]
    capsys.readouterr()
    rc = run(*argv)
    err = capsys.readouterr().err
    assert rc == 2, err
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err
    assert repr(key) in err


def test_config_file_sets_every_model_field(gen_dir, tmp_path):
    chosen = {"d_out": 3, "g_out": 4, "ablation": "bc", "seed": 7}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(chosen), encoding="utf-8")
    out = tmp_path / "run"
    rc = run("train", "--data", str(gen_dir), "--out", str(out),
             "--config", str(cfg), "--epochs", "1", "--quiet")
    assert rc == 0
    saved = json.loads((out / "model.json").read_text(encoding="utf-8"))["config"]
    assert saved == {"n_cells": 16, "n_classes": 2, **chosen}


def test_train_respects_seed_flag(gen_dir, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out, seed in ((out_a, "0"), (out_b, "5")):
        rc = run("train", "--data", str(gen_dir), "--out", str(out),
                 "--epochs", "1", "--d-out", "2", "--g-out", "2",
                 "--seed", seed, "--quiet")
        assert rc == 0
    a = GraphClassifier.load(out_a / "model.json")
    b = GraphClassifier.load(out_b / "model.json")
    assert any(np.any(pa != pb) for (_, pa, _), (_, pb, _) in zip(a.tensors(), b.tensors()))


def test_val_data_fills_log_columns(gen_dir, tmp_path):
    out = tmp_path / "run"
    rc = run("train", "--data", str(gen_dir), "--out", str(out),
             "--val-data", str(gen_dir / "test.csv"),
             "--epochs", "1", "--d-out", "2", "--g-out", "2", "--quiet")
    assert rc == 0
    last = (out / "epoch_log.csv").read_text(encoding="utf-8").splitlines()[-1]
    fields = last.split(",")
    assert fields[2] != "" and fields[3] != ""


# ---- malformed inputs: exit code and one-line error -------------------------------


def _corrupt_checkpoint(edit):
    def make(trained, tmp_path):
        payload = json.loads(trained.read_text(encoding="utf-8"))
        edit(payload)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    return make


def _csv(rows, manifest=None):
    def make(tmp_path):
        path = tmp_path / "data.csv"
        header = "label," + ",".join(f"h_{i}" for i in range(16))
        lines = [header] + [f"{label}," + ",".join([value] * 16) for label, value in rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        if isinstance(manifest, str):
            (tmp_path / "data.manifest.json").write_text(manifest, encoding="utf-8")
        elif manifest is not None:
            manifest(tmp_path / "data.manifest.json")
        return path

    return make


def _empty_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("", encoding="utf-8")
    return path


def _three_class_checkpoint(trained, tmp_path):
    path = tmp_path / "model.json"
    GraphClassifier(ModelConfig(n_cells=16, n_classes=3, d_out=2, g_out=2)).save(path)
    return path


def _row_a_checkpoint(trained, tmp_path):
    """A fresh row-a checkpoint that also stores a graph-conv weight."""
    path = tmp_path / "model.json"
    GraphClassifier(ModelConfig(n_cells=16, n_classes=2, d_out=2, g_out=3, ablation="a")).save(path)
    extra = {"gconv.w1": {"shape": [3, 2], "data": [0.0] * 6}}
    return _corrupt_checkpoint(lambda p: p["tensors"].update(extra))(path, tmp_path)


# (checkpoint maker or None for the trained one, CSV maker or None for test.csv,
#  exit code, text the error line must contain)
MALFORMED = {
    "short-tensor-data": (
        _corrupt_checkpoint(lambda p: p["tensors"]["fc.w"]["data"].pop()), None, 3, "fc.w"),
    "non-numeric-tensor-data": (
        _corrupt_checkpoint(lambda p: p["tensors"]["fc.w"].update(data="abc")), None, 3, "fc.w"),
    "unknown-config-key": (
        _corrupt_checkpoint(lambda p: p["config"].update(bogus=1)), None, 3,
        "unknown config fields ['bogus']"),
    "string-config-value": (
        _corrupt_checkpoint(lambda p: p["config"].update(n_cells="32")), None, 3,
        "invalid config"),
    "out-of-range-config-value": (
        _corrupt_checkpoint(lambda p: p["config"].update(n_cells=2)), None, 3, "invalid config"),
    "checkpoint-without-step": (
        _corrupt_checkpoint(lambda p: p.pop("step")), None, 3, "is missing field 'step'"),
    "non-integer-step": (_corrupt_checkpoint(lambda p: p.update(step="abc")), None, 3, "step"),
    "fractional-step": (_corrupt_checkpoint(lambda p: p.update(step=1.7)), None, 3, "step"),
    "tensors-not-an-object": (
        _corrupt_checkpoint(lambda p: p.update(tensors=5)), None, 3, "tensors"),
    "config-not-an-object": (
        _corrupt_checkpoint(lambda p: p.update(config=5)), None, 3,
        "config must be a JSON object"),
    # --config refuses a bool seed with exit 2, so a checkpoint's config may not hold one either
    "bool-seed": (
        _corrupt_checkpoint(lambda p: p["config"].update(seed=True)), None, 3,
        "invalid config: seed must be an integer >= 0, got True"),
    "bool-d-out": (
        _corrupt_checkpoint(lambda p: p["config"].update(d_out=True)), None, 3,
        "invalid config: d_out must be an integer >= 1, got True"),
    "float-n-cells": (
        _corrupt_checkpoint(lambda p: p["config"].update(n_cells=16.0)), None, 3,
        "invalid config: n_cells must be an integer >= 3, got 16.0"),
    "list-ablation": (
        _corrupt_checkpoint(lambda p: p["config"].update(ablation=["a", "b", "c"])), None, 3,
        "invalid config"),
    "checkpoint-is-a-directory": (
        lambda trained, tmp_path: tmp_path, None, 3, "cannot read checkpoint"),
    "data-is-a-directory": (None, lambda tmp_path: tmp_path, 3, "cannot read dataset"),
    "nan-in-checkpoint": (
        _corrupt_checkpoint(lambda p: p["tensors"]["fc.b"]["data"].__setitem__(0, float("nan"))),
        None, 3, "fc.b"),
    "3-class-csv-on-2-class-checkpoint": (
        None, _csv([(0, "0.5"), (1, "0.5"), (2, "0.5")]), 2, "2 classes"),
    # the class count a manifest declares must be the model's, whatever labels occur
    "3-declared-classes-on-2-class-checkpoint": (
        None, _csv([(0, "0.5"), (1, "0.5")],
                   manifest=json.dumps({"n_classes": 3, "class_names": ["left", "right", "extra"]})),
        2, "/data.csv has 16 cells and 3 classes, model has 16 cells and 2 classes"),
    "2-declared-classes-on-3-class-checkpoint": (
        _three_class_checkpoint, None, 2,
        "/test.csv has 16 cells and 2 classes, model has 16 cells and 3 classes"),
    "empty-csv": (None, _empty_csv, 3, "data.csv: empty file"),
    "negative-label-in-csv": (
        None, _csv([(0, "0.5"), (-1, "0.5")]), 3, "data.csv: line 3: negative label -1"),
    # an int64 label array cannot hold it: refused at its line, not two commands later
    "label-2**70-in-csv": (
        None, _csv([(0, "0.5"), (2**70, "0.5")]), 3,
        "data.csv: line 3: label 1180591620717411303424 does not fit in int64"),
    "nan-in-csv": (None, _csv([(0, "0.5"), (1, "nan")]), 3, "line 3"),
    "negative-amplitude-in-csv": (None, _csv([(0, "0.5"), (1, "-0.5")]), 3, "line 3"),
    "manifest-string-n-classes": (
        None, _csv([(0, "0.5"), (1, "0.5")], manifest='{"n_classes": "2"}'), 3, "n_classes"),
    "manifest-n-classes-below-labels": (
        None, _csv([(0, "0.5"), (1, "0.5")], manifest='{"n_classes": 1}'), 3, "n_classes"),
    "bad-manifest-json": (
        None, _csv([(0, "0.5"), (1, "0.5")], manifest="{not json"), 3, "data.manifest.json"),
    "manifest-not-an-object": (
        None, _csv([(0, "0.5"), (1, "0.5")], manifest="[1, 2]"), 3, "data.manifest.json"),
    "manifest-n-cells-mismatch": (
        None, _csv([(0, "0.5"), (1, "0.5")], manifest='{"n_cells": 999}'), 3,
        "data.manifest.json: n_cells"),
    "non-utf8-manifest": (
        None, _csv([(0, "0.5"), (1, "0.5")], manifest=lambda p: p.write_bytes(b"\xff\xfe{}")),
        3, "data.manifest.json: not UTF-8"),
    "version-1-checkpoint": (
        _corrupt_checkpoint(lambda p: p.update(version=1)), None, 3, "version 1"),
    "version-2-checkpoint": (
        _corrupt_checkpoint(lambda p: p.update(version=2)), None, 3, "version 2"),
    "version-3-checkpoint": (
        _corrupt_checkpoint(lambda p: p.update(version=3)), None, 3, "version 3"),
    "version-4-checkpoint": (
        _corrupt_checkpoint(lambda p: p.update(version=4)), None, 3, "version 4"),
    # a checkpoint holds exactly its row's tensors, BN running statistics included
    "row-a-with-a-gconv-tensor": (
        _row_a_checkpoint, None, 3, "unknown tensors: ['gconv.w1']"),
    "abc-without-bn1-running-mean": (
        _corrupt_checkpoint(lambda p: p["tensors"].pop("bn1.running_mean")), None, 3,
        "missing tensors: ['bn1.running_mean']"),
    "extra-tensor": (
        _corrupt_checkpoint(lambda p: p["tensors"].update({"att.b": {"shape": [1], "data": [0.0]}})),
        None, 3, "unknown tensors: ['att.b']"),
    "manifest-is-a-directory": (
        None, _csv([(0, "0.5"), (1, "0.5")], manifest=Path.mkdir), 3, "data.manifest.json"),
    # the listed names are checked against n_classes before any generic name is built
    "manifest-n-classes-2**70-with-class-names": (
        None, _csv([(0, "0.5"), (1, "0.5")],
                   manifest=json.dumps({"n_classes": 2**70, "class_names": ["x", "y"]})),
        3, "class_names must be a list of"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exit_codes(case, gen_dir, run_dir, tmp_path, capsys):
    make_checkpoint, make_csv, code, expected = MALFORMED[case]
    checkpoint = run_dir / "model.json"
    if make_checkpoint is not None:
        checkpoint = make_checkpoint(checkpoint, tmp_path)
    data = gen_dir / "test.csv" if make_csv is None else make_csv(tmp_path)
    capsys.readouterr()
    rc = run("eval", "--data", str(data), "--checkpoint", str(checkpoint))
    err = capsys.readouterr().err
    assert rc == code, err
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err
    assert expected in err


@pytest.fixture(scope="module")
def misfit_dir(tmp_path_factory, gen_dir):
    """gen_dir's 16-cell train split beside a 20-cell test split."""
    wide = tmp_path_factory.mktemp("wide")
    assert run("gen-data", "--preset", "toy2", "--n-cells", "20", "--per-class", "2",
               "--test-per-class", "2", "--out", str(wide)) == 0
    d = tmp_path_factory.mktemp("misfit")
    for src, name in ((gen_dir, "train.csv"), (gen_dir, "train.manifest.json"),
                      (wide, "test.csv"), (wide, "test.manifest.json")):
        (d / name).write_bytes((src / name).read_bytes())
    return d


# a split that does not fit the model is rejected before --out exists or training starts
# (command, the name its error gives the split)
MISFIT_SPLITS = {
    "train-test-split": (["train", "--data", "{misfit}"], "{misfit}/test.csv"),
    "train-val-data": (
        ["train", "--data", "{gen}/train.csv", "--val-data", "{misfit}/test.csv"],
        "--val-data {misfit}/test.csv"),
    "train-test-data": (
        ["train", "--data", "{gen}/train.csv", "--test-data", "{misfit}/test.csv"],
        "--test-data {misfit}/test.csv"),
    "ablate-test-split": (["ablate", "--data", "{misfit}", "--seeds", "1"], "{misfit}/test.csv"),
}


@pytest.mark.parametrize("case", sorted(MISFIT_SPLITS))
def test_misfit_split_rejected_before_out(case, gen_dir, misfit_dir, tmp_path, capsys):
    out = tmp_path / "out"
    command, split = MISFIT_SPLITS[case]
    argv = [a.format(gen=gen_dir, misfit=misfit_dir) for a in command]
    capsys.readouterr()
    rc = run(*argv, "--out", str(out), "--epochs", "1", "--d-out", "2", "--g-out", "2")
    captured = capsys.readouterr()
    assert rc == 2, captured.err
    assert captured.err.splitlines() == [
        f"error: {split.format(misfit=misfit_dir)} has 20 cells and 2 classes, "
        "model has 16 cells and 2 classes"
    ]
    assert captured.out == ""  # no epoch line: nothing trained
    assert not out.exists()


def test_empty_class_warning_is_one_line(run_dir, tmp_path, capsys):
    data = _csv([(0, "0.5"), (0, "0.5")], manifest='{"n_classes": 2}')(tmp_path)
    capsys.readouterr()
    rc = run("eval", "--data", str(data), "--checkpoint", str(run_dir / "model.json"))
    err = capsys.readouterr().err
    assert rc == 0, err
    assert err.splitlines() == [
        "warning: classes [1] have no true samples; their recall/F1 count as 0"
    ]


def test_diverging_training_exit_code(gen_dir, tmp_path, capsys):
    capsys.readouterr()
    rc = run("train", "--data", str(gen_dir), "--out", str(tmp_path / "run"),
             "--epochs", "2", "--d-out", "2", "--g-out", "2", "--lr", "1e300", "--quiet")
    err = capsys.readouterr().err
    assert rc == 4, err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1, err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1, err
    assert len(errors[0]) <= 200, errors[0]
    assert re.match(r"error: epoch \d+, step \d+: ", errors[0]), errors[0]
    assert not (tmp_path / "run").exists()  # the run made it and wrote nothing into it


def _assert_one_line_error(rc, err, code, path):
    assert rc == code, err
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err
    assert str(path) in err


_TINY = ["--epochs", "1", "--d-out", "2", "--g-out", "2", "--quiet"]
_GEN = ["gen-data", "--out", "{out}", "--preset", "toy2", "--n-cells", "16", "--per-class", "2"]

# every option that reads a file: (the rest of a valid command line, the option)
READING_OPTIONS = {
    "gen-data-spec": (_GEN, "--spec"),
    "gen-data-config": (_GEN, "--config"),
    "train-data": (["train", "--out", "{out}", *_TINY], "--data"),
    "train-val-data": (["train", "--data", "{gen}", "--out", "{out}", *_TINY], "--val-data"),
    "train-test-data": (["train", "--data", "{gen}", "--out", "{out}", *_TINY], "--test-data"),
    "train-config": (["train", "--data", "{gen}", "--out", "{out}", *_TINY], "--config"),
    "eval-data": (["eval", "--checkpoint", "{run}/model.json"], "--data"),
    "eval-checkpoint": (["eval", "--data", "{gen}/test.csv"], "--checkpoint"),
    "ablate-config": (["ablate", "--data", "{gen}", "--out", "{out}", "--seeds", "1", *_TINY],
                      "--config"),
}


def _not_utf8(tmp_path):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe{}")
    return path


def _directory(tmp_path):
    path = tmp_path / "adir"
    path.mkdir()
    return path


@pytest.mark.parametrize("make_input", [_not_utf8, _directory], ids=["not-utf8", "directory"])
@pytest.mark.parametrize("case", sorted(READING_OPTIONS))
def test_unreadable_input_file_exit_code(case, make_input, gen_dir, run_dir, tmp_path, capsys):
    rest, option = READING_OPTIONS[case]
    bad = make_input(tmp_path)
    argv = [a.format(out=tmp_path / "out", gen=gen_dir, run=run_dir) for a in rest]
    capsys.readouterr()
    rc = run(*argv, option, str(bad))
    _assert_one_line_error(rc, capsys.readouterr().err, 3, bad)


# an --out that cannot be written: (command line with {file}/{dir} placeholders, the path
# the error must name)
UNWRITABLE_OUTPUTS = {
    "gen-data-onto-file": ([*_GEN[:2], "{file}", *_GEN[3:]], "{file}"),
    "train-onto-file": (["train", "--data", "{gen}", "--out", "{file}", *_TINY], "{file}"),
    "train-under-file": (["train", "--data", "{gen}", "--out", "{file}/sub", *_TINY],
                         "{file}/sub"),
    "ablate-onto-file": (["ablate", "--data", "{gen}", "--out", "{file}", "--seeds", "1",
                          *_TINY], "{file}"),
    "eval-onto-directory": (["eval", "--data", "{gen}/test.csv", "--checkpoint",
                             "{run}/model.json", "--out", "{dir}"], "{dir}"),
    "eval-into-missing-directory": (["eval", "--data", "{gen}/test.csv", "--checkpoint",
                                     "{run}/model.json", "--out", "{dir}/missing/m.csv"],
                                    "{dir}/missing/m.csv"),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_OUTPUTS))
def test_unwritable_output_exit_code(case, gen_dir, run_dir, tmp_path, capsys):
    argv, named = UNWRITABLE_OUTPUTS[case]
    (tmp_path / "afile").write_text("", encoding="utf-8")
    paths = {"file": tmp_path / "afile", "dir": tmp_path, "gen": gen_dir, "run": run_dir}
    capsys.readouterr()
    rc = run(*(a.format(**paths) for a in argv))
    shown = capsys.readouterr()
    _assert_one_line_error(rc, shown.err, 2, named.format(**paths))
    assert shown.out == ""  # refused before any work


# a setting outside its domain: (command line, the name the error must give); the run
# is rejected before it creates --out
BAD_NUMBERS = {
    "train-seed": (["train", "--data", "{gen}", "--out", "{out}", *_TINY, "--seed", "-1"],
                   "seed"),
    "train-shuffle-seed": (["train", "--data", "{gen}", "--out", "{out}", *_TINY,
                            "--shuffle-seed", "-1"], "shuffle_seed"),
    "gen-data-seed": ([*_GEN, "--seed", "-1"], "seed"),
    "gradcheck-seed": (["gradcheck", "--seed", "-1"], "seed"),
    "train-lr-nan": (["train", "--data", "{gen}", "--out", "{out}", *_TINY, "--lr", "nan"],
                     "learning_rate"),
    "train-lr-inf": (["train", "--data", "{gen}", "--out", "{out}", *_TINY, "--lr", "inf"],
                     "learning_rate"),
    "train-ablation": (["train", "--data", "{gen}", "--out", "{out}", *_TINY, "--ablation", "xy"],
                       "ablation"),
    # a negative number with an exponent reaches its option as a value
    "train-lr-negative-exponent": (["train", "--data", "{gen}", "--out", "{out}", *_TINY,
                                    "--lr", "-1e-3"], "learning_rate"),
    # and so does a negative infinity
    "train-lr-negative-inf": (["train", "--data", "{gen}", "--out", "{out}", *_TINY,
                               "--lr", "-inf"], "learning_rate"),
    "train-batch-size-0": (["train", "--data", "{gen}", "--out", "{out}", *_TINY,
                            "--batch-size", "0"], "batch_size"),
    "ablate-seeds": (["ablate", "--data", "{gen}", "--out", "{out}", *_TINY, "--seeds", "0"],
                     "--seeds"),
    # numpy refuses 2**62 before allocating anything; never try a width it would allocate
    "train-d-out-2**62": (["train", "--data", "{gen}", "--out", "{out}", *_TINY,
                           "--d-out", str(2**62)], "model widths"),
    "train-g-out-2**62": (["train", "--data", "{gen}", "--out", "{out}", *_TINY,
                           "--g-out", str(2**62)], "model widths"),
    "ablate-d-out-2**62": (["ablate", "--data", "{gen}", "--out", "{out}", *_TINY,
                            "--d-out", str(2**62)], "model widths"),
    "ablate-g-out-2**62": (["ablate", "--data", "{gen}", "--out", "{out}", *_TINY,
                            "--g-out", str(2**62)], "model widths"),
    "gen-data-n-cells-2**62": ([*_GEN, "--n-cells", str(2**62)], "n_cells"),
    "gen-data-per-class-2**60": ([*_GEN, "--per-class", str(2**60)], "per_class and n_cells"),
    "gen-data-test-per-class-0": ([*_GEN, "--test-per-class", "0"], "test split: test_per_class"),
    "gen-data-test-per-class-2**64": ([*_GEN, "--test-per-class", str(2**64)],
                                      "test split: test_per_class and n_cells"),
    # Python refuses both counts as a list length before allocating anything
    "ablate-seeds-2**64": (["ablate", "--data", "{gen}", "--out", "{out}", *_TINY,
                            "--seeds", str(2**64)], "--seeds"),
    "ablate-seeds-2**62": (["ablate", "--data", "{gen}", "--out", "{out}", *_TINY,
                            "--seeds", str(2**62)], "--seeds"),
}


@pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
def test_bad_seed_or_learning_rate_exit_code(case, gen_dir, tmp_path, capsys):
    argv, name = BAD_NUMBERS[case]
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run(*(a.format(out=out, gen=gen_dir) for a in argv))
    err = capsys.readouterr().err
    assert rc == 2, err
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err
    assert f"{name} must be" in err
    assert not out.exists(), sorted(out.iterdir())


def test_gen_data_test_offset_off_the_grid_names_the_test_split(tmp_path, capsys):
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run(*(a.format(out=out) for a in _GEN), "--test-offset", "1000")
    err = capsys.readouterr().err
    assert rc == 2, err
    assert len(err.strip().splitlines()) == 1, err
    assert "test split, scatterers shifted 1000.0 cells: " in err
    assert not out.exists(), sorted(out.iterdir())


def test_gen_data_test_offset_negative_infinity_reaches_its_option(tmp_path, capsys):
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run(*(a.format(out=out) for a in _GEN), "--test-offset", "-inf")
    err = capsys.readouterr().err
    assert rc == 2, err
    assert len(err.strip().splitlines()) == 1, err
    assert "test split, scatterers shifted -inf cells: " in err
    assert not out.exists(), sorted(out.iterdir())


@pytest.mark.parametrize("offset, value", [("-1e-1", -0.1), ("-2E+0", -2.0), ("-0.5", -0.5)])
def test_negative_number_with_an_exponent_is_a_value(offset, value, tmp_path):
    out = tmp_path / "out"
    rc = run(*(a.format(out=out) for a in _GEN), "--test-offset", offset)
    assert rc == 0
    resolved = json.loads((out / "resolved_config.json").read_text(encoding="utf-8"))
    assert resolved["test_offset"] == value


def test_train_batch_size_one(gen_dir, tmp_path):
    """A batch of one sample trains: BatchNorm takes its statistics over the cells too."""
    out = tmp_path / "out"
    assert run("train", "--data", str(gen_dir), "--out", str(out), *_TINY,
               "--batch-size", "1") == 0
    assert json.loads((out / "resolved_config.json").read_text(encoding="utf-8"))["batch_size"] == 1
    assert len((out / "epoch_log.csv").read_text(encoding="utf-8").splitlines()) == 3


# a class-spec number outside its domain: (the field, its value); the spec file carries
# NaN and Infinity as Python's json writes them
BAD_SPEC_NUMBERS = {
    "noise-sigma-nan": ("noise_sigma", float("nan")),
    "noise-sigma-inf": ("noise_sigma", float("inf")),
    "position-jitter-1e308": ("position_jitter", 1e308),
    "position-jitter-nan": ("position_jitter", float("nan")),
    "width-inf": ("width", float("inf")),
    "width-1e-200": ("width", 1e-200),
    "width-1e-160": ("width", 1e-160),
    "width-1e200": ("width", 1e200),
    "amplitude-nan": ("amplitude", float("nan")),
    # finite, but two overlapping 1e308 pulses at factor 1.5 overflow
    "amplitude-1e308": ("amplitude", 1e308),
    "amplitude-jitter-1": ("amplitude_jitter", 1.0),
    "dropout-prob-1": ("dropout_prob", 1.0),
}


@pytest.mark.parametrize("case", sorted(BAD_SPEC_NUMBERS))
def test_bad_class_spec_number_exit_code(case, tmp_path, capsys):
    field, value = BAD_SPEC_NUMBERS[case]
    scatterer = {"position": 4.0, "amplitude": 1.0, "width": 1.0}
    spec = {"name": "x", "position_jitter": 1.0, "amplitude_jitter": 0.5, "noise_sigma": 0.05,
            "scatterers": [scatterer, scatterer]}
    (scatterer if field in scatterer else spec)[field] = value
    path = tmp_path / "specs.json"
    path.write_text(json.dumps({"classes": [spec]}), encoding="utf-8")
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run("gen-data", "--spec", str(path), "--n-cells", "16", "--per-class", "2",
             "--out", str(out))
    err = capsys.readouterr().err
    assert rc == 2, err
    assert len(err.strip().splitlines()) == 1, err
    assert "Traceback" not in err
    assert f"{field} must" in err
    assert not out.exists(), sorted(out.iterdir())


# a class-spec file refused for its structure: (its payload, the exit code, the message)
BAD_SPEC_FILES = {
    "no-scatterers": ({"classes": [{"name": "x", "scatterers": []}]}, 2,
                      "class 'x' has no scatterers"),
    "missing-name": ({"classes": [{"scatterers": [{"position": 4.0, "amplitude": 1.0,
                                                   "width": 1.0}]}]}, 3,
                     "class spec is missing required field 'name'"),
    "empty-classes": ({"classes": []}, 3, "'classes' list is empty"),
}


@pytest.mark.parametrize("case", sorted(BAD_SPEC_FILES))
def test_bad_class_spec_file_exit_code(case, tmp_path, capsys):
    payload, code, message = BAD_SPEC_FILES[case]
    path = tmp_path / "specs.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "out"
    capsys.readouterr()
    rc = run("gen-data", "--spec", str(path), "--n-cells", "16", "--out", str(out))
    err = capsys.readouterr().err
    assert rc == code, err
    assert len(err.strip().splitlines()) == 1, err
    assert message in err
    assert not out.exists(), sorted(out.iterdir())


@pytest.mark.parametrize("command", [
    ["train", "--epochs", "2"],
    ["ablate", "--epochs", "1", "--seeds", "1"],
])
def test_out_onto_a_file_fails_before_any_work(command, gen_dir, tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("", encoding="utf-8")
    capsys.readouterr()
    rc = run(*command, "--data", str(gen_dir), "--out", str(afile), "--d-out", "2", "--g-out", "2")
    shown = capsys.readouterr()
    _assert_one_line_error(rc, shown.err, 2, afile)
    assert not re.search(r"^(epoch|\[)", shown.out, re.M), shown.out


def test_error_classes_carry_the_documented_exit_codes():
    # README: 2 usage or configuration error, 3 malformed data or checkpoint
    # file, 4 numeric failure
    codes = {cls: cls.exit_code for cls in
             (HrrpGnnError, UsageError, ConfigError, ShapeError, DataFormatError, NumericError)}
    assert codes == {HrrpGnnError: 2, UsageError: 2, ConfigError: 2, ShapeError: 2,
                     DataFormatError: 3, NumericError: 4}


# the CLI as a child process, and the environment it runs in
_CHILD = [sys.executable, "-c", "import sys; from hrrpgnn.cli import main; sys.exit(main())"]
_CHILD_ENV = {
    **os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONUNBUFFERED": "1",
    "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(hrrpgnn.__file__).parents[1]),
                                                os.environ.get("PYTHONPATH")])),
}


def _run_capped(*argv):
    """The CLI in a child process under a 2 GB address-space cap and a 60 s timeout."""
    cap = 2 * 1024**3
    return subprocess.run(
        [*_CHILD, *argv],
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        env=_CHILD_ENV, capture_output=True, text=True, timeout=60,
    )


def test_interrupt_exits_130_with_one_line(gen_dir, tmp_path):
    """Ctrl-C during training ends the run with one line naming the epoch, and exit 130.

    SIGINT goes to the child after its first epoch line. The child starts with SIGINT's
    default disposition, as from a terminal, so Python turns the signal into
    KeyboardInterrupt even where this process ignores it.
    """
    proc = subprocess.Popen(
        [*_CHILD, "train", "--data", str(gen_dir), "--out", str(tmp_path / "out"),
         "--epochs", "1000000", "--d-out", "2", "--g-out", "2"],
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        env=_CHILD_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        assert proc.stdout.readline().startswith("epoch    0/1000000")
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 130, err
    assert re.fullmatch(r"error: interrupted at epoch \d+(, step \d+)?\n", err), err
    assert not (tmp_path / "out").exists()


def test_interrupt_inside_a_step_names_it(gen_dir, tmp_path, monkeypatch, capsys):
    """An interrupt in the first backward names epoch 1, step 1; the --out it made goes."""
    def interrupt(self, labels):
        raise KeyboardInterrupt

    monkeypatch.setattr(GraphClassifier, "backward", interrupt)
    capsys.readouterr()
    rc = run("train", "--data", str(gen_dir), "--out", str(tmp_path / "out"),
             "--epochs", "2", "--d-out", "2", "--g-out", "2", "--quiet")
    err = capsys.readouterr().err
    assert rc == 130, err
    assert err == "error: interrupted at epoch 1, step 1\n"
    assert not (tmp_path / "out").exists()


def test_failed_run_keeps_an_out_that_already_existed(gen_dir, tmp_path, capsys):
    """Only a directory the run itself created is removed; one made beforehand stays."""
    out = tmp_path / "run"
    out.mkdir()
    rc = run("train", "--data", str(gen_dir), "--out", str(out),
             "--epochs", "2", "--d-out", "2", "--g-out", "2", "--lr", "1e300", "--quiet")
    assert rc == 4, capsys.readouterr().err
    assert out.is_dir() and not any(out.iterdir())


@pytest.mark.parametrize("nest_existed", [False, True])
def test_failed_run_removes_the_parents_of_out_it_created(nest_existed, gen_dir, tmp_path,
                                                          capsys):
    """A failed run removes every directory it made for a nested --out, parents included."""
    nest = tmp_path / "nest"
    if nest_existed:
        nest.mkdir()
    rc = run("train", "--data", str(gen_dir), "--out", str(nest / "a" / "b"),
             "--epochs", "2", "--d-out", "2", "--g-out", "2", "--lr", "1e300", "--quiet")
    assert rc == 4, capsys.readouterr().err
    assert nest.exists() == nest_existed
    assert not (nest / "a").exists()


def test_interrupted_ablate_names_its_row_and_seed(gen_dir, tmp_path, monkeypatch, capsys):
    """An interrupt in the first backward of the sweep names row a, seed 0, epoch 1, step 1."""
    def interrupt(self, labels):
        raise KeyboardInterrupt

    monkeypatch.setattr(GraphClassifier, "backward", interrupt)
    capsys.readouterr()
    rc = run("ablate", "--data", str(gen_dir), "--out", str(tmp_path / "out"), "--seeds", "1",
             "--epochs", "2", "--d-out", "2", "--g-out", "2", "--quiet")
    err = capsys.readouterr().err
    assert rc == 130, err
    assert err == "error: interrupted at epoch 1, step 1 in row a, seed 0\n"
    assert not (tmp_path / "out").exists()


def test_gen_data_split_too_large_to_allocate(tmp_path):
    """A --per-class that the host cannot hold exits 2 at once, before --out exists.

    numpy accepts this shape (256 GB), so the child runs under a 2 GB address-space cap,
    which makes the allocation of the whole split fail as it would on a full host.
    """
    out = tmp_path / "out"
    proc = _run_capped("gen-data", "--preset", "toy2", "--n-cells", "16", "--per-class",
                       "1000000000", "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert "per_class and n_cells must be small enough to allocate" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_unnamed_classes_beyond_any_model_exit_code(command, run_dir, tmp_path):
    """A manifest that declares 2**70 classes without naming them exits 2 at once.

    No name is made per declared class: eval stops at the class-count check, and train
    at the model's allocation guard. The child runs under a 2 GB address-space cap, with a
    timeout, so that code building one name per class fails instead of filling the host.
    """
    data = _csv([(0, "0.5"), (1, "0.5")], manifest=json.dumps({"n_classes": 2**70}))(tmp_path)
    out = tmp_path / "out"
    # (command line, what the error names)
    argv, named = {
        "train": (["train", "--data", str(data), "--out", str(out), *_TINY],
                  f"model widths must be small enough to allocate, got d_out=2, g_out=2, "
                  f"n_classes={2**70}"),
        "eval": (["eval", "--data", str(data), "--checkpoint", str(run_dir / "model.json")],
                 f"has 16 cells and {2**70} classes, model has 16 cells and 2 classes"),
    }[command]
    proc = _run_capped(*argv)
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert named in proc.stderr
    assert not out.exists()
