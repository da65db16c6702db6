"""The three benchmark workloads, written against hrrpgnn's public Python API.

Each workload has a ``setup`` (timed and repeated by the runner), an ``op``
(one closed-loop operation: the next starts only after this one returns)
and a ``check`` that lists what is wrong with an op's outputs. The
workload seed decides every generated input; hrrpgnn only sees the
generated datasets, configs and checkpoint.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# An accuracy floor only holds once training has had time to learn: the
# shipped benchmark is still at chance (~34%) after 4 epochs and passes 90%
# at epoch 10.
ACCURACY_FLOOR = 90.0
ACCURACY_FLOOR_EPOCHS = 10
SIMPLEX_TOL = 1e-12
BATCH_SIZE = 32


@dataclass(frozen=True)
class Shape:
    """Input sizes of one workload."""

    specs: str  # "default3" or "toy2"
    n_cells: int
    per_class: int
    test_per_class: int
    epochs: int = 1
    model_seeds: int = 1


# Enough epochs that "final loss below the epoch-0 loss" holds on every seed:
# some initialisations sit at chance for a few epochs. Over 119 random seeds,
# train-501 cleared the check by 0.0 at 3 epochs, 0.0037 at 6 and 0.0090 at 8.
# Over 160 random seeds, ablate-128 rows a/ac failed it at 3 epochs; over 150
# others, every row cleared it at 8.
SHIPPED = {
    "train-501": Shape("default3", 501, 300, 300, epochs=8),
    "infer-io-501": Shape("default3", 501, 300, 300),
    "ablate-128": Shape("default3", 128, 150, 60, epochs=8, model_seeds=1),
}

TINY = {
    name: Shape("toy2", 32, 12, 8, epochs=1) for name in SHIPPED
}


def _specs(hrrpgnn, shape):
    make = {"default3": hrrpgnn.default_three_class_specs, "toy2": hrrpgnn.toy_two_class_specs}
    return make[shape.specs](shape.n_cells)


def _benchmark(hrrpgnn, shape, seed):
    return hrrpgnn.make_benchmark(
        _specs(hrrpgnn, shape),
        per_class=shape.per_class,
        n_cells=shape.n_cells,
        seed=seed,
        test_per_class=shape.test_per_class,
    )


def _same_state(a, b) -> bool:
    sa, sb = a.state_arrays(), b.state_arrays()
    return sa.keys() == sb.keys() and all(np.array_equal(sa[k], sb[k]) for k in sa)


class TrainWorkload:
    """``train()`` of the full model on the shipped benchmark, then ``save``."""

    step_kind = "train"

    def __init__(self, hrrpgnn, shape: Shape, seed: int, workdir: Path):
        self.h, self.shape, self.seed = hrrpgnn, shape, seed
        self.checkpoint = workdir / "train-model.json"

    def setup(self) -> None:
        self.train_ds, self.test_ds = _benchmark(self.h, self.shape, self.seed)
        self.model_config = self.h.ModelConfig(
            n_cells=self.shape.n_cells, n_classes=self.train_ds.n_classes, seed=self.seed
        )
        self.train_config = self.h.TrainConfig(
            epochs=self.shape.epochs, batch_size=BATCH_SIZE, shuffle_seed=self.seed
        )

    def op(self) -> dict:
        model = self.h.GraphClassifier(self.model_config)
        started = time.perf_counter()
        log = self.h.train(model, self.train_ds, self.train_config)
        model.save(self.checkpoint)
        wall = time.perf_counter() - started
        return {"wall": wall, "model": model, "log": log}

    def check(self, out: dict) -> list[str]:
        problems = []
        losses = [row["train_loss"] for row in out["log"]]
        if len(losses) != self.shape.epochs + 1 or not np.all(np.isfinite(losses)):
            problems.append(f"training log has {len(losses)} rows or non-finite losses: {losses}")
        elif not losses[-1] < losses[0]:
            problems.append(f"final loss {losses[-1]} is not below the epoch-0 loss {losses[0]}")
        if not _same_state(self.h.GraphClassifier.load(self.checkpoint), out["model"]):
            problems.append("saved checkpoint does not reload to the trained parameters")
        if self.shape.epochs >= ACCURACY_FLOOR_EPOCHS:
            accuracy = self.h.evaluate(out["model"], self.test_ds).accuracy
            if accuracy < ACCURACY_FLOOR:
                problems.append(f"test accuracy {accuracy:.2f}% below {ACCURACY_FLOOR}%")
        return problems


class InferIoWorkload:
    """The ``gen-data`` -> ``eval`` path: write both CSV splits, read one back, evaluate."""

    step_kind = "eval"

    def __init__(self, hrrpgnn, shape: Shape, seed: int, workdir: Path):
        self.h, self.shape, self.seed = hrrpgnn, shape, seed
        self.workdir = workdir
        self.checkpoint = workdir / "infer-model.json"

    def setup(self) -> None:
        # evaluation cost does not depend on the weights, so an untrained
        # checkpoint initialised from the seed stands in for a trained one
        n_classes = len(_specs(self.h, self.shape))
        self.model = self.h.GraphClassifier(
            self.h.ModelConfig(n_cells=self.shape.n_cells, n_classes=n_classes, seed=self.seed)
        )
        self.model.save(self.checkpoint)

    def op(self) -> dict:
        train_csv, test_csv = self.workdir / "train.csv", self.workdir / "test.csv"
        started = time.perf_counter()
        train_ds, test_ds = _benchmark(self.h, self.shape, self.seed)
        self.h.save_csv(train_ds, train_csv)
        self.h.save_csv(test_ds, test_csv)
        written = time.perf_counter()
        loaded = self.h.load_csv(test_csv)
        model = self.h.GraphClassifier.load(self.checkpoint)
        evaluating = time.perf_counter()
        metrics = self.h.evaluate(model, loaded)
        done = time.perf_counter()
        return {
            "wall": done - started,
            "write": written - started,
            "read": done - written,
            "evaluate": done - evaluating,
            "samples": len(loaded),
            "generated": test_ds,
            "loaded": loaded,
            "model": model,
            "metrics": metrics,
        }

    def check(self, out: dict) -> list[str]:
        problems = []
        generated, loaded = out["generated"], out["loaded"]
        if not (
            len(loaded) == len(generated)
            and np.array_equal(loaded.amplitude_matrix(), generated.amplitude_matrix())
            and np.array_equal(loaded.labels(), generated.labels())
        ):
            problems.append("test CSV does not round-trip bit-exactly")
        if not _same_state(out["model"], self.model):
            problems.append("checkpoint does not round-trip bit-exactly")
        metrics = out["metrics"]
        if int(metrics.confusion.sum()) != len(generated) or metrics.n_samples != len(generated):
            problems.append(
                f"confusion matrix counts {int(metrics.confusion.sum())} of {len(generated)} samples"
            )
        log_probs = out["model"].forward_batch(loaded.amplitude_matrix()[:32])
        drift = float(np.max(np.abs(np.exp(log_probs).sum(axis=1) - 1.0)))
        if not drift <= SIMPLEX_TOL:
            problems.append(f"exp(log_probs) rows sum to 1 only within {drift:.3g}")
        return problems


class AblateWorkload:
    """``run_ablation_suite`` over all seven module subsets at the 128-cell geometry."""

    step_kind = "train"

    def __init__(self, hrrpgnn, shape: Shape, seed: int, workdir: Path):
        self.h, self.shape, self.seed = hrrpgnn, shape, seed

    def setup(self) -> None:
        self.train_ds, self.test_ds = _benchmark(self.h, self.shape, self.seed)
        self.model_config = self.h.ModelConfig(
            n_cells=self.shape.n_cells, n_classes=self.train_ds.n_classes, seed=self.seed
        )
        self.train_config = self.h.TrainConfig(
            epochs=self.shape.epochs, batch_size=BATCH_SIZE, shuffle_seed=self.seed
        )
        self.seeds = [self.seed + i for i in range(self.shape.model_seeds)]

    def op(self) -> dict:
        started = time.perf_counter()
        rows = self.h.run_ablation_suite(
            self.train_ds, self.test_ds, self.model_config, self.train_config, seeds=self.seeds
        )
        return {"wall": time.perf_counter() - started, "rows": rows}

    def check(self, out: dict) -> list[str]:
        rows = out["rows"]
        problems = []
        if [r["flags"] for r in rows] != list(self.h.ABLATION_ORDER):
            problems.append(f"rows {[r['flags'] for r in rows]} are not in ABLATION_ORDER")
        for r in rows:
            if r["error"] is not None:
                problems.append(f"row {r['flags']} failed: {r['error']}")
            elif len(r["final_loss"]) != len(self.seeds) or not all(
                np.isfinite(f) and f < e0 for e0, f in zip(r["epoch0_loss"], r["final_loss"])
            ):
                problems.append(
                    f"row {r['flags']}: final losses {r['final_loss']} not all below "
                    f"epoch-0 losses {r['epoch0_loss']}"
                )
        return problems


WORKLOADS = {
    "train-501": TrainWorkload,
    "infer-io-501": InferIoWorkload,
    "ablate-128": AblateWorkload,
}
