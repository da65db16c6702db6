import json

import numpy as np
import pytest

from hrrpgnn.data import (
    Dataset,
    ScattererSpec,
    SynthClassSpec,
    default_three_class_specs,
    load_class_specs,
    load_csv,
    make_benchmark,
    normalize,
    perturb_specs,
    save_class_specs,
    save_csv,
    synth_generate,
    toy_two_class_specs,
)
from hrrpgnn.errors import ConfigError, DataFormatError


def two_specs():
    return [
        SynthClassSpec("low", (ScattererSpec(3.0, 1.0, 1.0),), noise_sigma=0.05),
        SynthClassSpec("high", (ScattererSpec(6.0, 1.0, 1.0),), noise_sigma=0.05),
    ]


# ---- generation -------------------------------------------------------------------


def test_synth_shapes_and_labels():
    ds = synth_generate(two_specs(), per_class=7, n_cells=16, seed=0)
    assert len(ds) == 14 and ds.n_cells == 16 and ds.n_classes == 2
    assert ds.class_names == ["low", "high"]
    np.testing.assert_array_equal(ds.labels(), [0] * 7 + [1] * 7)
    assert ds.amplitude_matrix().shape == (14, 16)


def test_synth_amplitudes_nonnegative():
    ds = synth_generate(two_specs(), per_class=50, n_cells=16, seed=1)
    assert np.all(ds.amplitude_matrix() >= 0.0)


def test_synth_deterministic_given_seed():
    a = synth_generate(two_specs(), per_class=5, n_cells=16, seed=42)
    b = synth_generate(two_specs(), per_class=5, n_cells=16, seed=42)
    np.testing.assert_array_equal(a.amplitude_matrix(), b.amplitude_matrix())
    c = synth_generate(two_specs(), per_class=5, n_cells=16, seed=43)
    assert np.any(a.amplitude_matrix() != c.amplitude_matrix())


def test_synth_peaks_near_scatterer_positions():
    specs = [SynthClassSpec("one", (ScattererSpec(8.0, 1.0, 1.0),))]
    ds = synth_generate(specs, per_class=3, n_cells=16, seed=0)
    assert all(np.argmax(s.amplitudes) == 8 for s in ds.samples)


def test_synth_validation():
    with pytest.raises(ConfigError):
        synth_generate([], per_class=5, n_cells=16, seed=0)
    with pytest.raises(ConfigError):
        synth_generate(two_specs(), per_class=0, n_cells=16, seed=0)
    with pytest.raises(ConfigError):
        synth_generate(two_specs(), per_class=5, n_cells=2, seed=0)
    off_grid = [SynthClassSpec("x", (ScattererSpec(99.0, 1.0, 1.0),))]
    with pytest.raises(ConfigError):
        synth_generate(off_grid, per_class=1, n_cells=16, seed=0)


# ---- normalization ----------------------------------------------------------------


def test_normalize_max_abs_example():
    ds = Dataset([_sample([2.0, 4.0, 8.0], 0)], 3, 1, ["a"])
    out = normalize(ds, "max_abs")
    np.testing.assert_allclose(out.samples[0].amplitudes, [0.25, 0.5, 1.0], atol=1e-15)


def test_normalize_l2_example():
    ds = Dataset([_sample([3.0, 4.0, 0.0], 0)], 3, 1, ["a"])
    out = normalize(ds, "l2")
    np.testing.assert_allclose(out.samples[0].amplitudes, [0.6, 0.8, 0.0], atol=1e-15)


def test_normalize_none_and_zero_sample_passthrough():
    ds = Dataset([_sample([0.0, 0.0, 0.0], 0)], 3, 1, ["a"])
    for mode in ("max_abs", "l2", "none"):
        out = normalize(ds, mode)
        np.testing.assert_array_equal(out.samples[0].amplitudes, [0.0, 0.0, 0.0])


def test_normalize_unknown_mode():
    ds = Dataset([_sample([1.0, 2.0, 3.0], 0)], 3, 1, ["a"])
    with pytest.raises(ConfigError):
        normalize(ds, "zscore")


def _sample(values, label):
    from hrrpgnn.graphgen import HrrpSample

    return HrrpSample(np.array(values, dtype=np.float64), label)


# ---- CSV round trip ----------------------------------------------------------------


def test_csv_roundtrip_bit_exact(tmp_path):
    ds = synth_generate(two_specs(), per_class=6, n_cells=16, seed=9)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    back = load_csv(path)
    np.testing.assert_array_equal(back.amplitude_matrix(), ds.amplitude_matrix())
    np.testing.assert_array_equal(back.labels(), ds.labels())
    assert back.class_names == ds.class_names
    assert back.n_classes == ds.n_classes


def test_csv_header_format(tmp_path):
    ds = Dataset([_sample([1.0, 2.0, 3.0, 4.0], 0)], 4, 1, ["a"])
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    first = path.read_text(encoding="utf-8").splitlines()[0]
    assert first == "label,h_0,h_1,h_2,h_3"


def test_csv_manifest_sidecar(tmp_path):
    ds = synth_generate(two_specs(), per_class=2, n_cells=8, seed=0)
    save_csv(ds, tmp_path / "data.csv")
    manifest = json.loads((tmp_path / "data.manifest.json").read_text(encoding="utf-8"))
    assert manifest["seed"] == 0 and manifest["per_class"] == 2
    back = load_csv(tmp_path / "data.csv")
    assert back.manifest["seed"] == 0
    assert back.class_names == ["low", "high"]


def test_load_csv_without_manifest_uses_generic_names(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("label,h_0,h_1,h_2\n0,1.0,2.0,3.0\n1,3.0,2.0,1.0\n", encoding="utf-8")
    ds = load_csv(path)
    assert ds.n_classes == 2 and ds.n_cells == 3
    assert len(ds.class_names) == 2


def test_load_csv_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,h_0,h_1\n0,1.0,2.0\n1,oops,2.0\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 3"):
        load_csv(path)
    path.write_text("label,h_0,h_1\n0,1.0\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 2"):
        load_csv(path)
    for value in ("nan", "inf", "-inf"):
        path.write_text(f"label,h_0,h_1\n0,1.0,2.0\n1,{value},2.0\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="line 3: amplitudes must be finite"):
            load_csv(path)
    path.write_text("wrong,header\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_csv(path)


# ---- class specs -------------------------------------------------------------------


def test_class_spec_json_roundtrip(tmp_path):
    specs = default_three_class_specs(64)
    path = tmp_path / "specs.json"
    save_class_specs(specs, path)
    assert load_class_specs(path) == specs


def test_shipped_spec_file_matches_default():
    from pathlib import Path

    shipped = Path(__file__).resolve().parents[1] / "specs" / "default3.json"
    assert load_class_specs(shipped) == default_three_class_specs(501)


def test_load_class_specs_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_class_specs(path)
    path.write_text(json.dumps({"no_classes": []}), encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_class_specs(path)


def test_default_specs_fit_grid():
    for n_cells in (32, 128, 501):
        for spec in default_three_class_specs(n_cells):
            for sc in spec.scatterers:
                assert 0.0 <= sc.position < n_cells
    names = [s.name for s in default_three_class_specs()]
    assert len(names) == 3 and len(set(names)) == 3


def test_perturb_specs_shifts_positions():
    specs = toy_two_class_specs(32)
    moved = perturb_specs(specs, 0.5)
    for orig, new in zip(specs, moved):
        for a, b in zip(orig.scatterers, new.scatterers):
            assert b.position == a.position + 0.5


def test_make_benchmark_train_test_differ():
    train, test = make_benchmark(toy_two_class_specs(32), per_class=5, n_cells=32, seed=0)
    assert len(train) == 10 and len(test) == 10
    assert train.manifest["role"] == "train" and test.manifest["role"] == "test"
    # normalized to unit peak
    assert np.allclose(train.amplitude_matrix().max(axis=1), 1.0)
    train_rows = {tuple(r) for r in train.amplitude_matrix()}
    test_rows = {tuple(r) for r in test.amplitude_matrix()}
    assert not train_rows & test_rows


def test_make_benchmark_test_size_override():
    train, test = make_benchmark(
        toy_two_class_specs(16), per_class=4, n_cells=16, seed=0, test_per_class=2
    )
    assert len(train) == 8 and len(test) == 4
