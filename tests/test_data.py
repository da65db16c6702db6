import json

import numpy as np
import pytest

from hrrpgnn.data import (
    Dataset,
    HrrpSample,
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
    write_json,
    write_text,
)
from hrrpgnn.errors import ConfigError, DataFormatError, ShapeError
from hrrpgnn.model import GraphClassifier, ModelConfig
from hrrpgnn.trainkit import evaluate


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


@pytest.mark.parametrize("field, value", [
    ("noise_sigma", float("nan")), ("noise_sigma", float("inf")),
    ("position_jitter", float("nan")), ("position_jitter", 1e308), ("position_jitter", 16.0),
    ("amplitude", float("nan")), ("amplitude", float("inf")),
    ("width", float("nan")), ("width", float("inf")),
    ("width", 1e-200), ("width", 1e-160), ("width", 1e200),
    ("amplitude", 1e308),  # finite, but two overlapping 1e308 pulses at factor 1.5 are not
])
def test_synth_rejects_non_finite_spec_numbers(field, value):
    """NaN fails every comparison, so each bound is written to reject it."""
    if field in ("amplitude", "width"):
        scatterer = ScattererSpec(**{"position": 4.0, "amplitude": 1.0, "width": 1.0, field: value})
        spec = SynthClassSpec("x", (scatterer, scatterer), amplitude_jitter=0.5)
    else:
        spec = SynthClassSpec("x", (ScattererSpec(4.0, 1.0, 1.0),) * 2, amplitude_jitter=0.5,
                              **{field: value})
    with pytest.raises(ConfigError, match=f"{field} must"):
        synth_generate([spec], per_class=1, n_cells=16, seed=0)


def test_synth_rejects_a_sample_count_too_large_to_allocate():
    # numpy refuses a 2**61-row shape before allocating anything, so this is safe on any host
    with pytest.raises(ConfigError, match="per_class"):
        synth_generate(two_specs(), per_class=2**60, n_cells=16, seed=0)


# ---- normalization ----------------------------------------------------------------


def test_normalize_max_abs_example():
    ds = Dataset([_sample([2.0, 4.0, 8.0], 0)], 3, 1, ["a"])
    out = normalize(ds, "max_abs")
    np.testing.assert_allclose(out.samples[0].amplitudes, [0.25, 0.5, 1.0], atol=1e-15)


def test_normalize_l2_example():
    ds = Dataset([_sample([3.0, 4.0, 0.0], 0)], 3, 1, ["a"])
    out = normalize(ds, "l2")
    np.testing.assert_allclose(out.samples[0].amplitudes, [0.6, 0.8, 0.0], atol=1e-15)
    # a profile whose norm is below 1 is scaled up to unit norm too
    out = normalize(Dataset([_sample([0.3, 0.4, 0.0], 0)], 3, 1, ["a"]), "l2")
    np.testing.assert_allclose(out.samples[0].amplitudes, [0.6, 0.8, 0.0], atol=1e-15)


def test_normalize_max_abs_scales_a_faint_profile_to_peak_one():
    """Only an all-zero profile is left unscaled, however small another's peak is."""
    amps = np.array([1e-4, 5e-4, 2.5e-4])
    out = normalize(Dataset([_sample(amps, 0)], 3, 1, ["a"]), "max_abs").samples[0].amplitudes
    np.testing.assert_array_equal(out, amps / 5e-4)
    assert out.max() == 1.0


def test_normalize_none_and_zero_sample_passthrough():
    ds = Dataset([_sample([0.0, 0.0, 0.0], 0)], 3, 1, ["a"])
    for mode in ("max_abs", "l2", "none"):
        out = normalize(ds, mode)
        np.testing.assert_array_equal(out.samples[0].amplitudes, [0.0, 0.0, 0.0])


def test_normalize_matches_the_per_row_formulas_bit_for_bit():
    ds = synth_generate(default_three_class_specs(128), per_class=100, n_cells=128, seed=0)
    ds = Dataset([*ds.samples, _sample(np.zeros(128), 0)], 128, 3, ds.class_names)
    formulas = {"max_abs": lambda h: h / h.max(), "l2": lambda h: h / np.linalg.norm(h),
                "none": lambda h: h}
    for mode, formula in formulas.items():
        out = normalize(ds, mode).amplitude_matrix()
        for row, s in zip(out[:-1], ds.samples):
            assert np.array_equal(row, formula(s.amplitudes)), mode
        assert np.array_equal(out[-1], np.zeros(128)), mode


def test_normalize_unknown_mode():
    ds = Dataset([_sample([1.0, 2.0, 3.0], 0)], 3, 1, ["a"])
    with pytest.raises(ConfigError):
        normalize(ds, "zscore")


def _sample(values, label):
    return HrrpSample(np.array(values, dtype=np.float64), label)


def test_sample_validation():
    with pytest.raises(ShapeError):
        HrrpSample(np.zeros((2, 2)), label=0)
    with pytest.raises(ConfigError, match="nonnegative"):
        HrrpSample(np.array([0.5, -0.5]), label=0)
    HrrpSample(np.array([0.5, -0.0]), label=0)  # negative zero is still zero


# ---- dataset invariants ------------------------------------------------------------

# (samples, n_cells, n_classes, class_names, error): each is a dataset save_csv
# would write and load_csv would refuse to read back, or one evaluate cannot score
INVALID_DATASETS = {
    "no-samples": ([], 3, 1, ["a"], ConfigError),
    "short-sample": ([_sample([1.0, 2.0, 3.0], 0)], 5, 1, ["a"], ShapeError),
    "ragged-samples": ([_sample([1.0, 2.0, 3.0], 0), _sample([1.0, 2.0], 0)], 3, 1, ["a"],
                       ShapeError),
    "label-above-classes": ([_sample([1.0, 2.0, 3.0], 7)], 3, 2, ["a", "b"], ConfigError),
    "negative-label": ([_sample([1.0, 2.0, 3.0], -1)], 3, 2, ["a", "b"], ConfigError),
    "too-few-class-names": ([_sample([1.0, 2.0, 3.0], 0)], 3, 2, ["a"], ConfigError),
}


@pytest.mark.parametrize("case", sorted(INVALID_DATASETS))
def test_dataset_rejects_what_load_csv_would(case):
    samples, n_cells, n_classes, class_names, error = INVALID_DATASETS[case]
    with pytest.raises(error):
        Dataset(samples, n_cells, n_classes, class_names)


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


def test_saved_benchmark_reloads_with_an_equal_manifest(tmp_path):
    """The cell count lives in ``Dataset.n_cells`` alone, so a generated split and the same
    split saved and reloaded carry the same manifest."""
    for ds in make_benchmark(two_specs(), per_class=2, n_cells=12, seed=0):
        save_csv(ds, tmp_path / "data.csv")
        back = load_csv(tmp_path / "data.csv")
        assert back.manifest == ds.manifest
        assert back.n_cells == ds.n_cells == 12


def test_load_csv_without_manifest_uses_generic_names(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("label,h_0,h_1,h_2\n0,1.0,2.0,3.0\n1,3.0,2.0,1.0\n", encoding="utf-8")
    ds = load_csv(path)
    assert ds.n_classes == 2 and ds.n_cells == 3
    # no names are made here: reports name the classes at the model's class count
    assert ds.class_names == []
    metrics = evaluate(GraphClassifier(ModelConfig(n_cells=3, n_classes=2)), ds)
    assert metrics.class_names == ["class0", "class1"]


def test_save_csv_writes_no_generic_names(tmp_path):
    """A dataset without class names round-trips without them."""
    ds = Dataset([_sample([1.0, 2.0, 3.0], 1)], 3, 2, [])
    save_csv(ds, tmp_path / "data.csv")
    manifest = json.loads((tmp_path / "data.manifest.json").read_text(encoding="utf-8"))
    assert manifest == {"n_cells": 3, "n_classes": 2}
    assert load_csv(tmp_path / "data.csv").class_names == []


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
    path.write_text("label,h_0,h_1\n0,1.0,2.0\n1,-0.5,2.0\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 3: amplitudes must be nonnegative"):
        load_csv(path)
    # a blank line is skipped but still counted: the bad row is the file's fourth line
    path.write_text("label,h_0,h_1\n0,1.0,2.0\n\n1,0.5,-1.0\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 4: amplitudes must be nonnegative"):
        load_csv(path)
    path.write_text("wrong,header\n", encoding="utf-8")
    with pytest.raises(DataFormatError):
        load_csv(path)


def test_load_csv_rejects_inconsistent_manifest(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("label,h_0,h_1\n0,1.0,2.0\n1,2.0,1.0\n", encoding="utf-8")
    manifest = tmp_path / "data.manifest.json"
    for fields, bad in (
        ({"n_cells": 3}, "n_cells"),
        ({"n_cells": "2"}, "n_cells"),
        ({"n_cells": 2.0}, "n_cells"),
        ({"n_classes": "2"}, "n_classes"),
        ({"n_classes": True}, "n_classes"),
        ({"n_classes": 1}, "n_classes"),
        ({"n_classes": 2, "class_names": ["a"]}, "class_names"),
        ({"n_classes": 2, "class_names": "ab"}, "class_names"),
        ({"n_classes": 2, "class_names": ["a", 2]}, "class_names"),
    ):
        manifest.write_text(json.dumps(fields), encoding="utf-8")
        with pytest.raises(DataFormatError, match=f"data.manifest.json: {bad}"):
            load_csv(path)
    manifest.write_text(
        json.dumps({"n_cells": 2, "n_classes": 3, "class_names": ["a", "b", "c"]}), encoding="utf-8"
    )
    assert load_csv(path).class_names == ["a", "b", "c"]


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
    with pytest.raises(DataFormatError, match="missing.json"):
        load_class_specs(tmp_path / "missing.json")
    scatterer = {"position": 1.0, "amplitude": 1.0, "width": "wide"}
    for payload in ({"classes": [5]}, {"classes": [{"name": "x", "scatterers": [scatterer]}]}):
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(DataFormatError, match="bad.json"):
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


def test_write_text_replaces_whole_file(tmp_path):
    path = tmp_path / "out.csv"
    write_text(path, "old\n")
    write_text(path, "new,contents\n")
    assert path.read_bytes() == b"new,contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_write_text_failure_mid_write_leaves_old_file(tmp_path):
    """A write that dies inside the temp file leaves the old file and no temp file behind."""
    path = tmp_path / "train.csv"
    write_text(path, "label,h_0\n0,1.0\n")
    with pytest.raises(UnicodeEncodeError):
        write_text(path, "label,h_0\n" * 1000 + "\ud800")  # a lone surrogate has no UTF-8 form
    assert path.read_bytes() == b"label,h_0\n0,1.0\n"
    assert [p.name for p in tmp_path.iterdir()] == ["train.csv"]


def test_write_json_rejects_non_finite_numbers(tmp_path):
    path = tmp_path / "metrics.json"
    write_json(path, {"accuracy": 1.5})
    assert json.loads(path.read_text(encoding="utf-8")) == {"accuracy": 1.5}
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            write_json(path, {"accuracy": [bad]})
    assert json.loads(path.read_text(encoding="utf-8")) == {"accuracy": 1.5}
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]
