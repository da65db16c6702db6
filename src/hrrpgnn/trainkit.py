"""Training loop, Adam, evaluation metrics, and the ablation sweep.

Everything here is deterministic given the seeds it is handed: batch
order comes from one generator seeded at the start of training, and the
optimizer walks parameters in the model's fixed tensor order. Training a
model twice from the same model seed, data, and shuffle seed produces
bit-identical parameters.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset
from .errors import ConfigError
from .model import ABLATION_ORDER, GraphClassifier, ModelConfig, with_ablation

_COMPONENT_NAMES = {"a": "local-conv", "b": "graph-conv", "c": "attention"}


def describe_flags(flags: str) -> str:
    return "+".join(_COMPONENT_NAMES[f] for f in flags)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    shuffle: bool = True
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            # batch statistics degenerate on a single sample
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if self.eps <= 0:
            raise ConfigError(f"eps must be > 0, got {self.eps}")

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "shuffle": self.shuffle,
            "shuffle_seed": self.shuffle_seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


class Adam:
    """Adam with bias correction over a model's tensor list.

    First and second moment estimates live per parameter tensor; the
    update is p -= lr * m_hat / (sqrt(v_hat) + eps) applied in the model's
    tensor order, so runs are reproducible.
    """

    def __init__(self, model: GraphClassifier, config: TrainConfig):
        self.config = config
        self.t = 0
        self._slots = []
        for name, param, grad in model.tensors():
            self._slots.append((name, param, grad, np.zeros_like(param), np.zeros_like(param)))

    def step(self) -> None:
        c = self.config
        self.t += 1
        bc1 = 1.0 - c.beta1**self.t
        bc2 = 1.0 - c.beta2**self.t
        for _, param, grad, m, v in self._slots:
            m *= c.beta1
            m += (1.0 - c.beta1) * grad
            v *= c.beta2
            v += (1.0 - c.beta2) * grad * grad
            param -= c.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + c.eps)


def _batches(n: int, batch_size: int, rng: np.random.Generator, shuffle: bool):
    """Index batches (shuffled unless disabled); a trailing singleton folds into its neighbor."""
    order = rng.permutation(n) if shuffle else np.arange(n)
    edges = list(range(0, n, batch_size))
    batches = [order[i : i + batch_size] for i in edges]
    if len(batches) > 1 and len(batches[-1]) == 1:
        batches[-2] = np.concatenate([batches[-2], batches[-1]])
        batches.pop()
    return batches


def _checked_arrays(model: GraphClassifier, dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The dataset's amplitude matrix and labels, after checking they fit the model."""
    if dataset.n_cells != model.config.n_cells:
        raise ConfigError(
            f"dataset has {dataset.n_cells} cells, model expects {model.config.n_cells}"
        )
    labels = dataset.labels()
    if labels.max() >= model.config.n_classes:
        raise ConfigError(
            f"dataset labels reach {labels.max()}, model has {model.config.n_classes} classes"
        )
    return dataset.amplitude_matrix(), labels


def dataset_loss(model: GraphClassifier, dataset: Dataset, chunk_size: int = 256) -> float:
    """Eval-mode mean cross-entropy over a dataset."""
    amps = dataset.amplitude_matrix()
    labels = dataset.labels()
    total = 0.0
    for i in range(0, len(dataset), chunk_size):
        log_probs = model.forward_batch(amps[i : i + chunk_size], training=False)
        total += model.loss_batch(log_probs, labels[i : i + chunk_size]) * len(labels[i : i + chunk_size])
    return total / len(dataset)


def train(
    model: GraphClassifier,
    dataset: Dataset,
    config: TrainConfig,
    val_dataset: Dataset | None = None,
    epoch_callback=None,
) -> list[dict]:
    """Run the optimization loop; returns the per-epoch log.

    The first row is epoch 0: the loss of the untrained model (eval mode)
    as the baseline every later epoch is judged against. Rows 1..epochs
    carry the sample-weighted mean training loss and the training-mode
    accuracy of that epoch's forward passes; when a validation set is
    given, each row also carries eval-mode ``val_accuracy``/``val_macro_f1``.

    ``epoch_callback`` receives each row as it is logged; returning a
    truthy value stops training after that epoch.
    """
    if len(dataset) < 2:
        raise ConfigError(f"training needs at least 2 samples, got {len(dataset)}")
    amps, labels = _checked_arrays(model, dataset)

    def val_columns(row):
        if val_dataset is not None:
            metrics = evaluate(model, val_dataset)
            row["val_accuracy"] = metrics.accuracy
            row["val_macro_f1"] = metrics.macro_f1
        else:
            row["val_accuracy"] = None
            row["val_macro_f1"] = None
        return row

    log = []
    baseline = val_columns(
        {
            "epoch": 0,
            "train_loss": dataset_loss(model, dataset),
            "train_accuracy": None,
            "seconds": 0.0,
        }
    )
    log.append(baseline)
    if epoch_callback is not None and epoch_callback(baseline):
        return log

    optimizer = Adam(model, config)
    rng = np.random.default_rng(config.shuffle_seed)
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        total_loss = 0.0
        n_correct = 0
        for idx in _batches(len(dataset), config.batch_size, rng, config.shuffle):
            log_probs = model.forward_batch(amps[idx], training=True)
            total_loss += model.loss_batch(log_probs, labels[idx]) * len(idx)
            n_correct += int((np.argmax(log_probs, axis=1) == labels[idx]).sum())
            model.backward(labels[idx])
            optimizer.step()
            model.step_count += 1
        row = val_columns(
            {
                "epoch": epoch,
                "train_loss": total_loss / len(dataset),
                "train_accuracy": 100.0 * n_correct / len(dataset),
                "seconds": time.perf_counter() - started,
            }
        )
        log.append(row)
        if epoch_callback is not None and epoch_callback(row):
            break
    return log


def save_epoch_log(log: list[dict], path) -> None:
    """Epoch log as CSV: ``epoch,train_loss,val_accuracy,val_macro_f1``."""

    def cell(value, fmt):
        return "" if value is None else format(value, fmt)

    lines = ["epoch,train_loss,val_accuracy,val_macro_f1"]
    for row in log:
        lines.append(
            f"{row['epoch']},{row['train_loss']:.6f},"
            f"{cell(row['val_accuracy'], '.2f')},{cell(row['val_macro_f1'], '.2f')}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# -- evaluation ----------------------------------------------------------------


@dataclass
class Metrics:
    """Test-set summary; all rate fields are percentages.

    ``confusion`` is indexed [true, predicted]. ``per_class_accuracy`` is
    the diagonal over row sums (the per-class recall); ``average_accuracy``
    is its unweighted mean, so small classes count as much as large ones.
    """

    accuracy: float
    average_accuracy: float
    per_class_accuracy: np.ndarray
    macro_recall: float
    macro_f1: float
    confusion: np.ndarray
    n_samples: int
    class_names: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "accuracy": round(self.accuracy, 2),
            "average_accuracy": round(self.average_accuracy, 2),
            "per_class_accuracy": [round(float(v), 2) for v in self.per_class_accuracy],
            "macro_recall": round(self.macro_recall, 2),
            "macro_f1": round(self.macro_f1, 2),
            "confusion": self.confusion.tolist(),
            "n_samples": self.n_samples,
            "class_names": list(self.class_names),
        }


def confusion_matrix(true: np.ndarray, pred: np.ndarray, n_classes: int) -> np.ndarray:
    conf = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(conf, (true, pred), 1)
    return conf


def metrics_from_confusion(conf: np.ndarray, class_names=None) -> Metrics:
    n_classes = conf.shape[0]
    total = int(conf.sum())
    row_sums = conf.sum(axis=1)
    col_sums = conf.sum(axis=0)
    diag = np.diag(conf).astype(np.float64)

    empty = [i for i in range(n_classes) if row_sums[i] == 0]
    if empty:
        warnings.warn(
            f"classes {empty} have no true samples; their recall/F1 count as 0",
            stacklevel=2,
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        recall = np.where(row_sums > 0, diag / np.maximum(row_sums, 1), 0.0)
        precision = np.where(col_sums > 0, diag / np.maximum(col_sums, 1), 0.0)
    pr = precision + recall
    f1 = np.where(pr > 0, 2.0 * precision * recall / np.maximum(pr, 1e-300), 0.0)

    per_class = 100.0 * recall
    return Metrics(
        accuracy=100.0 * float(diag.sum()) / total if total else 0.0,
        average_accuracy=float(per_class.mean()),
        per_class_accuracy=per_class,
        macro_recall=100.0 * float(recall.mean()),
        macro_f1=100.0 * float(f1.mean()),
        confusion=conf,
        n_samples=total,
        class_names=list(class_names) if class_names else [f"class{i}" for i in range(n_classes)],
    )


def evaluate(model: GraphClassifier, dataset: Dataset, chunk_size: int = 256) -> Metrics:
    """Eval-mode accuracy/confusion metrics over a dataset."""
    amps, labels = _checked_arrays(model, dataset)
    preds = np.concatenate(
        [model.predict_batch(amps[i : i + chunk_size]) for i in range(0, len(dataset), chunk_size)]
    )
    conf = confusion_matrix(labels, preds, model.config.n_classes)
    return metrics_from_confusion(conf, dataset.class_names)


def format_confusion(metrics: Metrics) -> str:
    """Aligned text rendering of the confusion matrix (rows = true class)."""
    names = metrics.class_names
    width = max(len(n) for n in names + ["true\\pred"])
    cell = max(6, max(len(str(int(v))) for v in metrics.confusion.ravel()))
    head = "true\\pred".ljust(width) + "".join(n.rjust(cell + 2) for n in names)
    rows = [head]
    for i, name in enumerate(names):
        rows.append(
            name.ljust(width)
            + "".join(str(int(v)).rjust(cell + 2) for v in metrics.confusion[i])
        )
    return "\n".join(rows)


# -- ablation sweep --------------------------------------------------------------


def run_ablation_suite(
    train_ds: Dataset,
    test_ds: Dataset,
    model_config: ModelConfig,
    train_config: TrainConfig,
    seeds: list[int],
    rows: tuple = ABLATION_ORDER,
    progress=None,
) -> list[dict]:
    """Train/evaluate every module subset; one result row per configuration.

    A failure inside one configuration is captured in that row's ``error``
    field and the sweep continues, so one bad config cannot sink the table.
    """
    if not seeds:
        raise ConfigError("need at least one seed")
    results = []
    for flags in rows:
        row = {
            "flags": flags,
            "components": describe_flags(flags),
            "seeds": list(seeds),
            "accuracy": [],
            "average_accuracy": [],
            "macro_f1": [],
            "epoch0_loss": [],
            "final_loss": [],
            "error": None,
        }
        try:
            for seed in seeds:
                cfg = with_ablation(model_config, flags)
                cfg = ModelConfig.from_dict({**cfg.to_dict(), "seed": seed})
                model = GraphClassifier(cfg)
                shifted = TrainConfig.from_dict(
                    {**train_config.to_dict(), "shuffle_seed": train_config.shuffle_seed + seed}
                )
                log = train(model, train_ds, shifted)
                metrics = evaluate(model, test_ds)
                row["accuracy"].append(metrics.accuracy)
                row["average_accuracy"].append(metrics.average_accuracy)
                row["macro_f1"].append(metrics.macro_f1)
                row["epoch0_loss"].append(log[0]["train_loss"])
                row["final_loss"].append(log[-1]["train_loss"])
                if progress is not None:
                    progress(flags, seed, metrics)
        except Exception as exc:  # noqa: BLE001 - row-level isolation is the point
            row["error"] = f"{type(exc).__name__}: {exc}"
        results.append(row)
    return results


def _mean_std(values: list) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def ablation_table(results: list[dict]) -> str:
    """Aligned summary table, one line per configuration."""
    header = ("config", "components", "accuracy", "avg-accuracy", "macro-F1")
    lines = []
    for row in results:
        if row["error"] is not None:
            lines.append((row["flags"], row["components"], "ERROR", row["error"], ""))
            continue
        acc_m, acc_s = _mean_std(row["accuracy"])
        avg_m, _ = _mean_std(row["average_accuracy"])
        f1_m, _ = _mean_std(row["macro_f1"])
        lines.append(
            (
                row["flags"],
                row["components"],
                f"{acc_m:.2f} ± {acc_s:.2f}",
                f"{avg_m:.2f}",
                f"{f1_m:.2f}",
            )
        )
    widths = [max(len(header[i]), *(len(ln[i]) for ln in lines)) for i in range(len(header))]
    fmt = "  ".join("{:<" + str(w) + "}" for w in widths)
    out = [fmt.format(*header), fmt.format(*("-" * w for w in widths))]
    out.extend(fmt.format(*ln) for ln in lines)
    return "\n".join(out)


def save_ablation_csv(results: list[dict], path) -> None:
    """Long-format CSV: one line per (configuration, seed), plus error rows."""
    lines = ["config,components,seed,accuracy,average_accuracy,macro_f1,error"]
    for row in results:
        if row["error"] is not None:
            err = row["error"].replace(",", ";")
            lines.append(f"{row['flags']},{row['components']},,,,,{err}")
            continue
        for i, seed in enumerate(row["seeds"]):
            lines.append(
                f"{row['flags']},{row['components']},{seed},"
                f"{row['accuracy'][i]:.2f},{row['average_accuracy'][i]:.2f},"
                f"{row['macro_f1'][i]:.2f},"
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
