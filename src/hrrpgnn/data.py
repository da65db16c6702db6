"""Synthetic range-profile generation, dataset I/O, normalization.

Real HRRP collections come from electromagnetic solvers or measured
flights; neither is reproducible here. The stand-in is a point-scatterer
model: each class is a set of Gaussian pulses (position, amplitude, width
in cells) plus per-sample nuisance effects, and each sample is

    h[n] = | sum_k keep_k * a_k * f_k * exp(-(n - p_k - j)^2 / (2 w_k^2)) + eps[n] |

with one uniform position jitter j shared by every scatterer of the
sample, per-scatterer amplitude factors f_k, Bernoulli occlusion keep_k,
and Gaussian cell noise eps. Magnitude output only; coherent phase
interference between scatterers is deliberately out of scope, which is
the main fidelity gap versus solver data.

Dataset files are plain CSV (``label,h_0,...,h_{N-1}``) with a JSON
manifest sidecar recording provenance; amplitude text round-trips doubles
exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError
from .graphgen import HrrpSample

NORMALIZATION_MODES = ("max_abs", "l2", "none")


@dataclass(frozen=True)
class ScattererSpec:
    """One Gaussian pulse: center cell (may be fractional), peak amplitude, std in cells."""

    position: float
    amplitude: float
    width: float


@dataclass(frozen=True)
class SynthClassSpec:
    """Scatterer layout plus per-sample nuisance parameters for one class."""

    name: str
    scatterers: tuple[ScattererSpec, ...]
    position_jitter: float = 0.0
    amplitude_jitter: float = 0.0
    dropout_prob: float = 0.0
    noise_sigma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "scatterers", tuple(self.scatterers))


@dataclass
class Dataset:
    samples: list[HrrpSample]
    n_cells: int
    n_classes: int
    class_names: list[str]
    manifest: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.samples)

    def amplitude_matrix(self) -> np.ndarray:
        """All sample amplitudes stacked as a (len, n_cells) array."""
        return np.stack([s.amplitudes for s in self.samples])

    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=np.int64)


def _validate_spec(spec: SynthClassSpec, n_cells: int) -> None:
    if not spec.scatterers:
        raise ConfigError(f"class {spec.name!r} has no scatterers")
    for sc in spec.scatterers:
        if not 0.0 <= sc.position < n_cells:
            raise ConfigError(
                f"class {spec.name!r}: scatterer position {sc.position} outside [0, {n_cells})"
            )
        if sc.amplitude <= 0.0:
            raise ConfigError(f"class {spec.name!r}: scatterer amplitude must be > 0")
        if sc.width <= 0.0:
            raise ConfigError(f"class {spec.name!r}: scatterer width must be > 0")
    if spec.position_jitter < 0.0:
        raise ConfigError(f"class {spec.name!r}: position_jitter must be >= 0")
    if not 0.0 <= spec.amplitude_jitter < 1.0:
        raise ConfigError(f"class {spec.name!r}: amplitude_jitter must lie in [0, 1)")
    if not 0.0 <= spec.dropout_prob < 1.0:
        raise ConfigError(f"class {spec.name!r}: dropout_prob must lie in [0, 1)")
    if spec.noise_sigma < 0.0:
        raise ConfigError(f"class {spec.name!r}: noise_sigma must be >= 0")


def synth_generate(
    specs: list[SynthClassSpec], per_class: int, n_cells: int, seed: int
) -> Dataset:
    """Draw ``per_class`` samples for each class spec; deterministic given seed."""
    if not specs:
        raise ConfigError("need at least one class spec")
    if per_class < 1:
        raise ConfigError(f"per_class must be >= 1, got {per_class}")
    if n_cells < 3:
        raise ConfigError(f"n_cells must be >= 3, got {n_cells}")
    for spec in specs:
        _validate_spec(spec, n_cells)

    rng = np.random.default_rng(seed)
    cells = np.arange(n_cells, dtype=np.float64)
    samples = []
    for label, spec in enumerate(specs):
        k = len(spec.scatterers)
        positions = np.array([sc.position for sc in spec.scatterers])
        amplitudes = np.array([sc.amplitude for sc in spec.scatterers])
        widths = np.array([sc.width for sc in spec.scatterers])
        for _ in range(per_class):
            shift = rng.uniform(-spec.position_jitter, spec.position_jitter)
            factors = rng.uniform(1.0 - spec.amplitude_jitter, 1.0 + spec.amplitude_jitter, k)
            keep = rng.random(k) >= spec.dropout_prob
            pulses = np.exp(
                -((cells[None, :] - (positions + shift)[:, None]) ** 2)
                / (2.0 * widths[:, None] ** 2)
            )
            signal = ((keep * amplitudes * factors)[:, None] * pulses).sum(axis=0)
            noise = rng.normal(0.0, spec.noise_sigma, n_cells) if spec.noise_sigma > 0 else 0.0
            samples.append(HrrpSample(np.abs(signal + noise), label))

    manifest = {
        "source": "synthetic",
        "seed": seed,
        "per_class": per_class,
        "n_cells": n_cells,
        "normalization": "none",
        "classes": [class_spec_to_dict(s) for s in specs],
    }
    return Dataset(samples, n_cells, len(specs), [s.name for s in specs], manifest)


def normalize(dataset: Dataset, mode: str = "max_abs") -> Dataset:
    """Per-sample rescaling; all-zero samples pass through untouched."""
    if mode not in NORMALIZATION_MODES:
        raise ConfigError(f"unknown normalization mode {mode!r}; use one of {NORMALIZATION_MODES}")
    if not dataset.samples:
        raise ConfigError("cannot normalize an empty dataset")
    out = []
    for s in dataset.samples:
        h = s.amplitudes
        if mode == "max_abs":
            peak = np.max(h)
            h = h / peak if peak > 0 else h
        elif mode == "l2":
            norm = np.linalg.norm(h)
            h = h / norm if norm > 0 else h
        out.append(HrrpSample(h, s.label))
    manifest = dict(dataset.manifest)
    manifest["normalization"] = mode
    return Dataset(out, dataset.n_cells, dataset.n_classes, list(dataset.class_names), manifest)


# -- CSV + manifest I/O ------------------------------------------------------


def _manifest_path(path) -> Path:
    return Path(path).with_suffix(".manifest.json")


def save_csv(dataset: Dataset, path) -> None:
    """Write the CSV plus its manifest sidecar (``<stem>.manifest.json``)."""
    path = Path(path)
    header = "label," + ",".join(f"h_{i}" for i in range(dataset.n_cells))
    lines = [header]
    for s in dataset.samples:
        lines.append(str(s.label) + "," + ",".join(repr(float(v)) for v in s.amplitudes))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    manifest = {
        "n_cells": dataset.n_cells,
        "n_classes": dataset.n_classes,
        "class_names": list(dataset.class_names),
        **dataset.manifest,
    }
    _manifest_path(path).write_text(
        json.dumps(manifest, indent=1) + "\n", encoding="utf-8", newline="\n"
    )


def load_csv(path) -> Dataset:
    """Parse a dataset CSV; errors carry the 1-based line number."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = [ln for ln in text.split("\n") if ln != ""]
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[0] != "label" or len(header) < 2:
        raise DataFormatError(f"{path}: line 1: header must be 'label,h_0,...', got {lines[0][:60]!r}")
    n_cells = len(header) - 1
    samples = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != n_cells + 1:
            raise DataFormatError(
                f"{path}: line {lineno}: expected {n_cells + 1} fields, got {len(fields)}"
            )
        try:
            label = int(fields[0])
            # HrrpSample's own checks (finite amplitudes) raise ValueError subclasses
            sample = HrrpSample(np.array([float(v) for v in fields[1:]], dtype=np.float64), label)
        except ValueError as exc:
            raise DataFormatError(f"{path}: line {lineno}: {exc}") from exc
        if label < 0:
            raise DataFormatError(f"{path}: line {lineno}: negative label {label}")
        samples.append(sample)
    if not samples:
        raise DataFormatError(f"{path}: no samples")

    manifest_file = _manifest_path(path)
    if manifest_file.exists():
        try:
            manifest = json.loads(manifest_file.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{manifest_file}: invalid JSON: {exc}") from exc
        if not isinstance(manifest, dict):
            raise DataFormatError(f"{manifest_file}: manifest must be a JSON object")
        n_classes = manifest.get("n_classes", max(s.label for s in samples) + 1)
        class_names = manifest.get("class_names", [f"class{i}" for i in range(n_classes)])
        extra = {k: v for k, v in manifest.items() if k not in ("n_cells", "n_classes", "class_names")}
    else:
        n_classes = max(s.label for s in samples) + 1
        class_names = [f"class{i}" for i in range(n_classes)]
        extra = {"source": str(path)}
    return Dataset(samples, n_cells, n_classes, class_names, extra)


# -- class-spec serialization -------------------------------------------------


def class_spec_to_dict(spec: SynthClassSpec) -> dict:
    return {
        "name": spec.name,
        "position_jitter": spec.position_jitter,
        "amplitude_jitter": spec.amplitude_jitter,
        "dropout_prob": spec.dropout_prob,
        "noise_sigma": spec.noise_sigma,
        "scatterers": [
            {"position": sc.position, "amplitude": sc.amplitude, "width": sc.width}
            for sc in spec.scatterers
        ],
    }


def class_spec_from_dict(d: dict) -> SynthClassSpec:
    try:
        scatterers = tuple(
            ScattererSpec(float(sc["position"]), float(sc["amplitude"]), float(sc["width"]))
            for sc in d["scatterers"]
        )
        return SynthClassSpec(
            name=str(d["name"]),
            scatterers=scatterers,
            position_jitter=float(d.get("position_jitter", 0.0)),
            amplitude_jitter=float(d.get("amplitude_jitter", 0.0)),
            dropout_prob=float(d.get("dropout_prob", 0.0)),
            noise_sigma=float(d.get("noise_sigma", 0.0)),
        )
    except KeyError as exc:
        raise DataFormatError(f"class spec is missing required field {exc}") from exc


def save_class_specs(specs: list[SynthClassSpec], path) -> None:
    payload = {"classes": [class_spec_to_dict(s) for s in specs]}
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8", newline="\n")


def load_class_specs(path) -> list[SynthClassSpec]:
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc
    if "classes" not in payload or not isinstance(payload["classes"], list):
        raise DataFormatError(f"{path}: expected a top-level 'classes' list")
    specs = [class_spec_from_dict(d) for d in payload["classes"]]
    if not specs:
        raise DataFormatError(f"{path}: 'classes' list is empty")
    return specs


# -- shipped benchmark specs ---------------------------------------------------


def default_three_class_specs(n_cells: int = 501) -> list[SynthClassSpec]:
    """Three aircraft-like classes with distinct scatterer spans and layouts.

    Spans scale with the profile length and are proportioned roughly like
    the airframe lengths 19.45 / 17.07 / 14.48 m, so the classes differ in
    extent as well as in scatterer pattern. Jitter, occlusion, and noise
    make the classes overlap enough to be nontrivial.
    """

    def make(name, span_frac, layout, jitter_scale=1.0):
        center = 0.5 * n_cells
        span = span_frac * n_cells
        scatterers = tuple(
            ScattererSpec(center + rel * span, amp, width) for rel, amp, width in layout
        )
        return SynthClassSpec(
            name=name,
            scatterers=scatterers,
            position_jitter=0.008 * n_cells * jitter_scale,
            amplitude_jitter=0.25,
            dropout_prob=0.08,
            noise_sigma=0.03,
        )

    return [
        make(
            "F15-like",
            0.36,
            [
                (-0.50, 0.60, 1.8),
                (-0.30, 0.85, 2.2),
                (-0.05, 1.00, 2.0),
                (0.15, 0.70, 1.6),
                (0.32, 0.55, 2.0),
                (0.50, 0.90, 2.4),
            ],
        ),
        make(
            "F18-like",
            0.316,
            [
                (-0.50, 0.90, 2.0),
                (-0.22, 0.65, 1.7),
                (0.00, 1.00, 2.2),
                (0.25, 0.80, 1.9),
                (0.50, 0.60, 2.1),
            ],
        ),
        make(
            "IDF-like",
            0.268,
            [
                (-0.50, 0.75, 1.9),
                (-0.15, 1.00, 2.1),
                (0.20, 0.60, 1.7),
                (0.50, 0.85, 2.2),
            ],
        ),
    ]


def toy_two_class_specs(n_cells: int = 32) -> list[SynthClassSpec]:
    """A deliberately separable two-class setup: disjoint single scatterers."""
    return [
        SynthClassSpec(
            name="left",
            scatterers=(ScattererSpec(0.25 * n_cells, 1.0, 2.0),),
            position_jitter=1.0,
            amplitude_jitter=0.10,
            noise_sigma=0.02,
        ),
        SynthClassSpec(
            name="right",
            scatterers=(ScattererSpec(0.75 * n_cells, 1.0, 2.0),),
            position_jitter=1.0,
            amplitude_jitter=0.10,
            noise_sigma=0.02,
        ),
    ]


def perturb_specs(specs: list[SynthClassSpec], position_offset: float = 0.5) -> list[SynthClassSpec]:
    """Shift every scatterer by a fraction of a cell (domain-shift stand-in)."""
    out = []
    for spec in specs:
        moved = tuple(
            replace(sc, position=sc.position + position_offset) for sc in spec.scatterers
        )
        out.append(replace(spec, scatterers=moved))
    return out


def make_benchmark(
    specs: list[SynthClassSpec],
    per_class: int,
    n_cells: int,
    seed: int,
    test_per_class: int | None = None,
    test_position_offset: float = 0.5,
    normalization: str = "max_abs",
) -> tuple[Dataset, Dataset]:
    """Train/test pair with a domain shift between them.

    The test set is generated from a different random stream and with every
    scatterer shifted by ``test_position_offset`` cells, so test samples are
    never re-draws of training samples.
    """
    train = synth_generate(specs, per_class, n_cells, seed)
    test = synth_generate(
        perturb_specs(specs, test_position_offset),
        test_per_class if test_per_class is not None else per_class,
        n_cells,
        seed + 10_000,
    )
    train = normalize(train, normalization)
    test = normalize(test, normalization)
    train.manifest["role"] = "train"
    test.manifest["role"] = "test"
    test.manifest["test_position_offset"] = test_position_offset
    return train, test
