import json

import numpy as np
import pytest

from hrrpgnn.cli import main
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


def test_usage_error_exit_code_and_suggestion(capsys):
    rc = run("train", "--data", "x.csv", "--out", "y", "--epcohs", "3")
    assert rc == 2
    assert "--epochs" in capsys.readouterr().err


def test_missing_dataset_exit_code():
    assert run("train", "--data", "/nonexistent.csv", "--out", "/tmp/never") == 3


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
        if manifest is not None:
            (tmp_path / "data.manifest.json").write_text(manifest, encoding="utf-8")
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
    "nan-in-checkpoint": (
        _corrupt_checkpoint(lambda p: p["tensors"]["fc.b"]["data"].__setitem__(0, float("nan"))),
        None, 3, "fc.b"),
    "3-class-csv-on-2-class-checkpoint": (
        None, _csv([(0, "0.5"), (1, "0.5"), (2, "0.5")]), 2, "2 classes"),
    "nan-in-csv": (None, _csv([(0, "0.5"), (1, "nan")]), 3, "line 3"),
    "bad-manifest-json": (
        None, _csv([(0, "0.5"), (1, "0.5")], manifest="{not json"), 3, "data.manifest.json"),
    "manifest-not-an-object": (
        None, _csv([(0, "0.5"), (1, "0.5")], manifest="[1, 2]"), 3, "data.manifest.json"),
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
