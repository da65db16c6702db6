"""Range-profile samples and datasets: synthetic generation, I/O, normalization.

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
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, ShapeError

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


@dataclass(frozen=True)
class HrrpSample:
    """One range profile: N nonnegative cell amplitudes and a class label."""

    amplitudes: np.ndarray
    label: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.float64)
        if amps.ndim != 1:
            raise ShapeError(f"amplitudes must be 1-D, got ndim={amps.ndim}")
        # one pass on the hot path (false on NaN too); -0.0 passes
        if not ((amps >= 0.0) & (amps < np.inf)).all():
            if not np.isfinite(amps).all():
                raise ConfigError("amplitudes must be finite")
            raise ConfigError(f"amplitudes must be nonnegative, got {amps.min()}")
        object.__setattr__(self, "amplitudes", amps)


@dataclass
class Dataset:
    samples: list[HrrpSample]
    n_cells: int
    n_classes: int
    class_names: list[str]
    manifest: dict = field(default_factory=dict)

    def __post_init__(self):
        """Hold only what save_csv can write and load_csv reads back."""
        if not self.samples:
            raise ConfigError("a dataset needs at least one sample")
        # no names means generic ones, which reports make at the model's class count
        if self.class_names and len(self.class_names) != self.n_classes:
            raise ConfigError(f"{len(self.class_names)} class names for {self.n_classes} classes")
        for i, s in enumerate(self.samples):
            if s.amplitudes.shape != (self.n_cells,):
                raise ShapeError(f"sample {i} has shape {s.amplitudes.shape}, expected ({self.n_cells},)")
            if not 0 <= s.label < self.n_classes:
                raise ConfigError(f"sample {i} has label {s.label} outside [0, {self.n_classes})")

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
    # NaN fails every comparison below, so each check rejects it
    # a shift of a whole profile length moves every scatterer off the grid
    if not 0.0 <= spec.position_jitter < n_cells:
        raise ConfigError(f"class {spec.name!r}: position_jitter must lie in [0, {n_cells})")
    for sc in spec.scatterers:
        if not 0.0 <= sc.position < n_cells:
            raise ConfigError(
                f"class {spec.name!r}: scatterer position {sc.position} outside [0, {n_cells})"
            )
        if not 0.0 < sc.amplitude < np.inf:
            raise ConfigError(f"class {spec.name!r}: scatterer amplitude must be finite and > 0")
        # (n - p)**2 / (2 w**2) must be finite at every cell n and jittered position p
        reach = max(sc.position, n_cells - 1 - sc.position) + spec.position_jitter
        two_w2 = 2.0 * sc.width * sc.width
        if not (sc.width > 0.0 and 0.0 < two_w2 < np.inf and reach * reach / two_w2 < np.inf):
            raise ConfigError(f"class {spec.name!r}: scatterer width must be > 0 and keep the "
                              f"pulse finite on {n_cells} cells, got {sc.width!r}")
    if not 0.0 <= spec.amplitude_jitter < 1.0:
        raise ConfigError(f"class {spec.name!r}: amplitude_jitter must lie in [0, 1)")
    # the largest profile value before noise: every pulse at its peak and top factor
    peak = sum(sc.amplitude for sc in spec.scatterers) * (1.0 + spec.amplitude_jitter)
    if not peak < np.inf:
        raise ConfigError(f"class {spec.name!r}: scatterer amplitude must keep the summed "
                          f"pulses finite, but amplitude * (1 + amplitude_jitter) sums to {peak}")
    if not 0.0 <= spec.dropout_prob < 1.0:
        raise ConfigError(f"class {spec.name!r}: dropout_prob must lie in [0, 1)")
    if not 0.0 <= spec.noise_sigma < np.inf:
        raise ConfigError(f"class {spec.name!r}: noise_sigma must be finite and >= 0")


def check_seed(name: str, seed) -> None:
    """Random seeds are integers >= 0, the domain of ``np.random.default_rng``; a bool is not one."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigError(f"{name} must be an integer >= 0, got {seed!r}")


def synth_generate(
    specs: list[SynthClassSpec], per_class: int, n_cells: int, seed: int
) -> Dataset:
    """Draw ``per_class`` samples per class spec as rows of one array; deterministic given seed.

    Each sample draws its shift, factors, keeps and noise in that order.
    After a class's draws, each scatterer's pulses for all its samples are
    evaluated only on the cells within ``sqrt(746 * 2 w**2) + 1`` of its
    jittered centres. Every other cell's exponent lies below -746, where
    ``exp`` is exactly 0.0, so skipping those cells changes no value.
    """
    if not specs:
        raise ConfigError("need at least one class spec")
    if per_class < 1:
        raise ConfigError(f"per_class must be >= 1, got {per_class}")
    if n_cells < 3:
        raise ConfigError(f"n_cells must be >= 3, got {n_cells}")
    check_seed("seed", seed)
    for spec in specs:
        _validate_spec(spec, n_cells)

    rng = np.random.default_rng(seed)
    k_max = max(len(spec.scatterers) for spec in specs)
    try:
        cells = np.arange(n_cells, dtype=np.float64)
        amps = np.empty((len(specs) * per_class, n_cells))
        signal = np.empty((per_class, n_cells))
        shifts = np.empty(per_class)
        factors = np.empty((per_class, k_max))
        keep = np.empty((per_class, k_max), dtype=bool)
    except (ValueError, MemoryError) as exc:  # numpy's "array is too big" is a ValueError
        raise ConfigError(f"per_class and n_cells must be small enough to allocate, "
                          f"got {per_class} and {n_cells}: {exc}") from None
    samples = []
    for label, spec in enumerate(specs):
        k = len(spec.scatterers)
        positions = np.array([sc.position for sc in spec.scatterers])
        amplitudes = np.array([sc.amplitude for sc in spec.scatterers])
        two_w2 = 2.0 * np.array([sc.width for sc in spec.scatterers]) ** 2
        # sqrt(746 * two_w2), taken apart so that it cannot overflow
        reaches = np.sqrt(746.0) * np.sqrt(two_w2) + 1.0
        rows = amps[label * per_class:(label + 1) * per_class]
        for i in range(per_class):
            shifts[i] = rng.uniform(-spec.position_jitter, spec.position_jitter)
            factors[i, :k] = rng.uniform(1.0 - spec.amplitude_jitter, 1.0 + spec.amplitude_jitter, k)
            keep[i, :k] = rng.random(k) >= spec.dropout_prob
            rows[i] = rng.normal(0.0, spec.noise_sigma, n_cells) if spec.noise_sigma > 0 else 0.0
        weights = keep[:, :k] * amplitudes * factors[:, :k]
        # every weighted pulse is >= +0.0, so summing from a +0.0 buffer is the per-sample sum
        signal.fill(0.0)
        for j in range(k):
            centres = positions[j] + shifts
            # a slice clips hi to the grid, but a negative lo would count from its end
            lo = int(max(0, np.floor(centres.min() - reaches[j])))
            hi = int(np.ceil(centres.max() + reaches[j]))
            # one (per_class, window) temporary: numpy reuses it through the chain,
            # exp and the weighting run in place, and it is freed before the next
            pulses = -((cells[lo:hi] - centres[:, None]) ** 2) / two_w2[j]
            np.exp(pulses, out=pulses)
            pulses *= weights[:, j, None]
            signal[:, lo:hi] += pulses
            del pulses
        np.abs(np.add(signal, rows, out=rows), out=rows)
        samples.extend(HrrpSample(row, label) for row in rows)

    manifest = {
        "source": "synthetic",
        "seed": seed,
        "per_class": per_class,
        "normalization": "none",
        "classes": [class_spec_to_dict(s) for s in specs],
    }
    return Dataset(samples, n_cells, len(specs), [s.name for s in specs], manifest)


def normalize(dataset: Dataset, mode: str = "max_abs") -> Dataset:
    """Per-sample rescaling; all-zero samples pass through untouched."""
    if mode not in NORMALIZATION_MODES:
        raise ConfigError(f"unknown normalization mode {mode!r}; use one of {NORMALIZATION_MODES}")
    amps = dataset.amplitude_matrix()
    if mode != "none":
        # each row's own 1-D norm: norm(amps, axis=1) rounds some rows differently
        scale = (amps.max(axis=1) if mode == "max_abs"
                 else np.array([np.linalg.norm(h) for h in amps]))[:, None]
        np.divide(amps, scale, out=amps, where=scale > 0)
    out = [HrrpSample(h, s.label) for h, s in zip(amps, dataset.samples)]
    manifest = dict(dataset.manifest)
    manifest["normalization"] = mode
    return Dataset(out, dataset.n_cells, dataset.n_classes, list(dataset.class_names), manifest)


# -- file I/O -----------------------------------------------------------------


def read_text(path, what: str) -> str:
    """Contents of a UTF-8 input file; any failure to read it is a DataFormatError."""
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataFormatError(f"cannot read {what} {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"cannot read {what} {path}: not UTF-8 text at byte {exc.start}") from exc


def read_json(path, what: str):
    """The parsed contents of a JSON input file; invalid JSON is a DataFormatError."""
    text = read_text(path, what)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from exc


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path`` atomically: a temp file beside it, then ``os.replace``.

    Readers see the old contents or the new, never a partial file. On failure
    the old file is left as it was, the temp file is removed, and an
    ``OSError`` names ``path`` itself.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def write_json(path, payload) -> None:
    """``payload`` as indented JSON through ``write_text``; a NaN or infinity is a ValueError."""
    write_text(path, json.dumps(payload, indent=1, allow_nan=False) + "\n")


def _manifest_path(path) -> Path:
    return Path(path).with_suffix(".manifest.json")


def save_csv(dataset: Dataset, path) -> None:
    """Write the CSV plus its manifest sidecar (``<stem>.manifest.json``)."""
    path = Path(path)
    header = "label," + ",".join(f"h_{i}" for i in range(dataset.n_cells))
    lines = [header]
    for s in dataset.samples:
        lines.append(str(s.label) + "," + ",".join(map(repr, s.amplitudes.tolist())))
    write_text(path, "\n".join(lines) + "\n")
    manifest = {
        "n_cells": dataset.n_cells,
        "n_classes": dataset.n_classes,
        **({"class_names": list(dataset.class_names)} if dataset.class_names else {}),
        **dataset.manifest,
    }
    write_json(_manifest_path(path), manifest)


def load_csv(path) -> Dataset:
    """Parse a dataset CSV; errors carry the file's 1-based line number, blank lines counted."""
    path = Path(path)
    lines = [(n, ln) for n, ln in enumerate(read_text(path, "dataset").split("\n"), start=1) if ln]
    if not lines:
        raise DataFormatError(f"{path}: empty file")
    (header_no, header_line), *rows = lines
    header = header_line.split(",")
    if header[0] != "label" or len(header) < 2:
        raise DataFormatError(f"{path}: line {header_no}: header must be 'label,h_0,...', "
                              f"got {header_line[:60]!r}")
    n_cells = len(header) - 1
    samples = []
    for lineno, line in rows:
        fields = line.split(",")
        if len(fields) != n_cells + 1:
            raise DataFormatError(
                f"{path}: line {lineno}: expected {n_cells + 1} fields, got {len(fields)}"
            )
        try:
            label = int(fields[0])
            # HrrpSample's own checks (finite, nonnegative amplitudes) raise ValueError subclasses
            sample = HrrpSample(np.array([float(v) for v in fields[1:]], dtype=np.float64), label)
        except ValueError as exc:
            raise DataFormatError(f"{path}: line {lineno}: {exc}") from exc
        if label < 0:
            raise DataFormatError(f"{path}: line {lineno}: negative label {label}")
        samples.append(sample)
    if not samples:
        raise DataFormatError(f"{path}: no samples")

    manifest_file = _manifest_path(path)
    manifest = (read_json(manifest_file, "manifest") if manifest_file.exists()
                else {"source": str(path)})
    if not isinstance(manifest, dict):
        raise DataFormatError(f"{manifest_file}: manifest must be a JSON object")
    if "n_cells" in manifest and (
        type(manifest["n_cells"]) is not int or manifest["n_cells"] != n_cells
    ):
        raise DataFormatError(
            f"{manifest_file}: n_cells must equal the header's {n_cells} cells, "
            f"got {manifest['n_cells']!r}"
        )
    max_label = max(s.label for s in samples)
    n_classes = manifest.get("n_classes", max_label + 1)
    if type(n_classes) is not int or n_classes <= max_label:
        raise DataFormatError(
            f"{manifest_file}: n_classes must be an integer above the largest label "
            f"{max_label}, got {n_classes!r}"
        )
    class_names = manifest.get("class_names", [])
    if "class_names" in manifest and not (
            isinstance(class_names, list) and len(class_names) == n_classes
            and all(isinstance(name, str) for name in class_names)):
        raise DataFormatError(f"{manifest_file}: class_names must be a list of {n_classes} strings")
    extra = {k: v for k, v in manifest.items() if k not in ("n_cells", "n_classes", "class_names")}
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
    """Raises KeyError, TypeError or ValueError on a malformed entry."""
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


def save_class_specs(specs: list[SynthClassSpec], path) -> None:
    payload = {"classes": [class_spec_to_dict(s) for s in specs]}
    write_json(path, payload)


def load_class_specs(path) -> list[SynthClassSpec]:
    path = Path(path)
    payload = read_json(path, "class-spec file")
    if not isinstance(payload, dict) or not isinstance(payload.get("classes"), list):
        raise DataFormatError(f"{path}: expected a top-level 'classes' list")
    try:
        specs = [class_spec_from_dict(d) for d in payload["classes"]]
    except KeyError as exc:
        raise DataFormatError(f"{path}: class spec is missing required field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed class spec: {exc}") from exc
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
    test_per_class = per_class if test_per_class is None else test_per_class
    try:
        test = synth_generate(perturb_specs(specs, test_position_offset), test_per_class,
                              n_cells, seed + 10_000)
    except ConfigError as exc:  # the train split passed, so the test count or shift is at fault
        if str(exc).startswith("per_class"):
            raise ConfigError(f"test split: test_{exc}") from None
        raise ConfigError(f"test split, scatterers shifted {test_position_offset} cells: {exc}") from None
    train = normalize(train, normalization)
    test = normalize(test, normalization)
    train.manifest["role"] = "train"
    test.manifest["role"] = "test"
    test.manifest["test_position_offset"] = test_position_offset
    return train, test
