"""Training loop, Adam, evaluation metrics, and the ablation sweep.

Everything here is deterministic given the seeds it is handed: batch
order comes from one generator seeded at the start of training, and the
optimizer walks parameters in the model's fixed tensor order. Training a
model twice from the same model seed, data, and shuffle seed produces
bit-identical parameters.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, check_seed, write_text
from .errors import ConfigError, NumericError
from .model import ABLATION_ORDER, GraphClassifier, ModelConfig

_COMPONENT_NAMES = {"a": "local-conv", "b": "graph-conv", "c": "attention"}

# samples per forward pass in eval-mode loss and metric sweeps
EVAL_CHUNK = 256


def describe_flags(flags: str) -> str:
    return "+".join(_COMPONENT_NAMES[f] for f in flags)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 1e-3
    shuffle_seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.learning_rate < np.inf:  # NaN fails both comparisons
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        check_seed("shuffle_seed", self.shuffle_seed)


class Adam:
    """Adam with bias correction over a list of (name, param, grad) triples.

    First and second moment estimates live per parameter tensor; the
    update is p -= lr * m_hat / (sqrt(v_hat) + eps), applied to the tensors
    in the order given, so runs are reproducible.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, tensors, learning_rate: float):
        self.learning_rate = learning_rate
        self.t = 0
        self._slots = [(param, grad, np.zeros_like(param), np.zeros_like(param))
                       for _, param, grad in tensors]

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.BETA1**self.t
        bc2 = 1.0 - self.BETA2**self.t
        for param, grad, m, v in self._slots:
            m *= self.BETA1
            m += (1.0 - self.BETA1) * grad
            v *= self.BETA2
            v += (1.0 - self.BETA2) * grad * grad
            param -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + self.EPS)


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    """Consecutive ``batch_size`` slices of one shuffled order; the last holds what is left."""
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def check_fits(config: ModelConfig, *named: tuple[str, Dataset | None]) -> None:
    """Raise ``ConfigError``, naming the split, unless each given (name, dataset)
    has the model's cell and class counts; a None dataset is skipped."""
    for name, ds in named:
        if ds is not None and (ds.n_cells, ds.n_classes) != (config.n_cells, config.n_classes):
            raise ConfigError(
                f"{name} has {ds.n_cells} cells and {ds.n_classes} classes, "
                f"model has {config.n_cells} cells and {config.n_classes} classes"
            )


def _eval_chunks(model: GraphClassifier, dataset: Dataset):
    """(eval-mode log-probabilities, labels) for each ``EVAL_CHUNK`` rows of a fitting dataset."""
    check_fits(model.config, ("dataset", dataset))
    amps, labels = dataset.amplitude_matrix(), dataset.labels()
    for i in range(0, len(dataset), EVAL_CHUNK):
        yield model.forward_batch(amps[i : i + EVAL_CHUNK], training=False), labels[i : i + EVAL_CHUNK]


def dataset_loss(model: GraphClassifier, dataset: Dataset) -> float:
    """Eval-mode mean cross-entropy over a dataset."""
    total = sum(model.loss_batch(log_probs, labels) * len(labels)
                for log_probs, labels in _eval_chunks(model, dataset))
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
    Each epoch steps once per ``config.batch_size`` samples of a new
    shuffle, and the last step takes what is left, which may be one sample.

    ``epoch_callback`` receives each row once its validation columns are
    set; returning a truthy value stops training after that epoch.

    A ``NumericError`` or ``KeyboardInterrupt`` is raised again naming where
    training was, "epoch E" or, inside a step, "epoch E, step S".
    """
    check_fits(model.config, ("training set", dataset), ("validation set", val_dataset))
    amps, labels = dataset.amplitude_matrix(), dataset.labels()
    log = []

    def log_row(row):
        """Set ``row``'s validation columns and append it to the log; truthy to stop."""
        metrics = evaluate(model, val_dataset) if val_dataset is not None else None
        row["val_accuracy"] = None if metrics is None else metrics.accuracy
        row["val_macro_f1"] = None if metrics is None else metrics.macro_f1
        log.append(row)
        return epoch_callback is not None and epoch_callback(row)

    where = "epoch 0"
    try:
        if log_row(
            {
                "epoch": 0,
                "train_loss": dataset_loss(model, dataset),
                "train_accuracy": None,
            }
        ):
            return log

        optimizer = Adam(model.tensors(), config.learning_rate)
        rng = np.random.default_rng(config.shuffle_seed)
        for epoch in range(1, config.epochs + 1):
            total_loss = 0.0
            n_correct = 0
            for step, idx in enumerate(_batches(len(dataset), config.batch_size, rng), start=1):
                where = f"epoch {epoch}, step {step}"
                log_probs = model.forward_batch(amps[idx], training=True)
                total_loss += model.loss_batch(log_probs, labels[idx]) * len(idx)
                n_correct += int((np.argmax(log_probs, axis=1) == labels[idx]).sum())
                model.backward(labels[idx])
                optimizer.step()
                model.step_count += 1
            where = f"epoch {epoch}"
            if log_row(
                {
                    "epoch": epoch,
                    "train_loss": total_loss / len(dataset),
                    "train_accuracy": 100.0 * n_correct / len(dataset),
                }
            ):
                break
    except NumericError as exc:
        raise NumericError(f"{where}: {exc}") from exc
    except KeyboardInterrupt as exc:
        raise KeyboardInterrupt(f"at {where}") from exc
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
    write_text(path, "\n".join(lines) + "\n")


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
    macro_f1: float
    confusion: np.ndarray
    n_samples: int
    class_names: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "accuracy": round(self.accuracy, 2),
            "average_accuracy": round(self.average_accuracy, 2),
            "per_class_accuracy": [round(float(v), 2) for v in self.per_class_accuracy],
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
    recall = np.where(row_sums > 0, diag / np.maximum(row_sums, 1), 0.0)
    precision = np.where(col_sums > 0, diag / np.maximum(col_sums, 1), 0.0)
    pr = precision + recall
    f1 = np.where(pr > 0, 2.0 * precision * recall / np.maximum(pr, 1e-300), 0.0)

    per_class = 100.0 * recall
    return Metrics(
        accuracy=100.0 * float(diag.sum()) / total if total else 0.0,
        average_accuracy=float(per_class.mean()),
        per_class_accuracy=per_class,
        macro_f1=100.0 * float(f1.mean()),
        confusion=conf,
        n_samples=total,
        class_names=list(class_names) if class_names else [f"class{i}" for i in range(n_classes)],
    )


def evaluate(model: GraphClassifier, dataset: Dataset) -> Metrics:
    """Eval-mode accuracy/confusion metrics over a dataset."""
    conf = sum(confusion_matrix(labels, np.argmax(log_probs, axis=1), model.config.n_classes)
               for log_probs, labels in _eval_chunks(model, dataset))
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
    progress=None,
) -> list[dict]:
    """Train/evaluate every module subset; one result row each, in ``ABLATION_ORDER``.

    A failure inside one configuration is captured in that row's ``error``
    field and the sweep continues, so one bad config cannot sink the table.
    A dataset that does not fit ``model_config`` raises before the first row.
    """
    if not seeds:
        raise ConfigError("need at least one seed")
    check_fits(model_config, ("training set", train_ds), ("test set", test_ds))
    results = []
    for flags in ABLATION_ORDER:
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
                model = GraphClassifier(replace(model_config, ablation=flags, seed=seed))
                shifted = replace(train_config, shuffle_seed=train_config.shuffle_seed + seed)
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


def ablation_table(results: list[dict]) -> str:
    """Aligned summary table, one line per configuration."""
    header = ("config", "components", "accuracy", "avg-accuracy", "macro-F1")
    lines = []
    for row in results:
        if row["error"] is not None:
            lines.append((row["flags"], row["components"], "ERROR", row["error"], ""))
            continue
        lines.append(
            (
                row["flags"],
                row["components"],
                f"{np.mean(row['accuracy']):.2f} ± {np.std(row['accuracy']):.2f}",
                f"{np.mean(row['average_accuracy']):.2f}",
                f"{np.mean(row['macro_f1']):.2f}",
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
    write_text(path, "\n".join(lines) + "\n")
