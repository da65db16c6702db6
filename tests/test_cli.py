import json
import re
from pathlib import Path

import numpy as np
import pytest

from hrrpgnn.cli import main
from hrrpgnn.errors import (
    ConfigError,
    DataFormatError,
    HrrpGnnError,
    NumericError,
    ShapeError,
    UsageError,
)
from hrrpgnn.model import GraphClassifier


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


def test_gradcheck_single_layer(capsys):
    rc = run("gradcheck", "--layer", "dense", "--seed", "1")
    assert rc == 0
    assert "OK" in capsys.readouterr().out


def test_gradcheck_unknown_layer():
    assert run("gradcheck", "--layer", "bogus") == 2


def test_gradcheck_fails_at_impossible_tolerance(capsys):
    rc = run("gradcheck", "--layer", "dense", "--tol", "1e-18")
    assert rc == 4
    assert "FAIL" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_gradcheck_tolerance_must_be_finite_and_positive(tol, capsys):
    # a NaN tolerance would pass every check, a zero or negative one fail every check
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
    assert "--epochs" in capsys.readouterr().err


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
    "non-integer-step": (_corrupt_checkpoint(lambda p: p.update(step="abc")), None, 3, "step"),
    "fractional-step": (_corrupt_checkpoint(lambda p: p.update(step=1.7)), None, 3, "step"),
    "tensors-not-an-object": (
        _corrupt_checkpoint(lambda p: p.update(tensors=5)), None, 3, "tensors"),
    "config-not-an-object": (
        _corrupt_checkpoint(lambda p: p.update(config=5)), None, 3,
        "config must be a JSON object"),
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
    "manifest-is-a-directory": (
        None, _csv([(0, "0.5"), (1, "0.5")], manifest=Path.mkdir), 3, "data.manifest.json"),
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
    _assert_one_line_error(rc, capsys.readouterr().err, 2, named.format(**paths))


# a setting outside its domain: (command line, the name the error must give); the run
# is rejected before it creates --out
BAD_NUMBERS = {
    "train-seed": (["train", "--data", "{gen}", "--out", "{out}", *_TINY, "--seed", "-1"],
                   "seed"),
    "train-shuffle-seed": (["train", "--data", "{gen}", "--out", "{out}", *_TINY,
                            "--shuffle-seed", "-1"], "shuffle_seed"),
    "gen-data-seed": ([*_GEN, "--seed", "-1"], "seed"),
    "train-lr-nan": (["train", "--data", "{gen}", "--out", "{out}", *_TINY, "--lr", "nan"],
                     "learning_rate"),
    "train-lr-inf": (["train", "--data", "{gen}", "--out", "{out}", *_TINY, "--lr", "inf"],
                     "learning_rate"),
    "train-ablation": (["train", "--data", "{gen}", "--out", "{out}", *_TINY, "--ablation", "xy"],
                       "ablation"),
    "ablate-seeds": (["ablate", "--data", "{gen}", "--out", "{out}", *_TINY, "--seeds", "0"],
                     "--seeds"),
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
