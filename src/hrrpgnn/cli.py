"""Command-line front end.

Subcommands: gen-data, train, eval, ablate, gradcheck. Option values
resolve in three layers: built-in defaults, then a --config JSON file,
then explicit flags; the merged result is echoed to
``<out>/resolved_config.json`` so a run can be reproduced from its
artifacts alone.

Exit codes: 0 success, 2 usage/configuration problem or unwritable
output, 3 unreadable or malformed input file, 4 numeric failure (NaN,
gradient check above tolerance); each error class carries its own.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .data import (
    default_three_class_specs,
    load_class_specs,
    load_csv,
    make_benchmark,
    read_json,
    save_class_specs,
    save_csv,
    toy_two_class_specs,
)
from .errors import DataFormatError, HrrpGnnError, UsageError
from .gradcheck import check_all_ablations, layer_suite, worst_error
from .model import GraphClassifier, ModelConfig
from .trainkit import (
    TrainConfig,
    ablation_table,
    evaluate,
    format_confusion,
    run_ablation_suite,
    save_ablation_csv,
    save_epoch_log,
    train,
)

_ALL_OPTION_STRINGS: set[str] = set()


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, with typo suggestions."""

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        _ALL_OPTION_STRINGS.update(action.option_strings)
        return action

    def error(self, message):
        if "unrecognized arguments:" in message:
            bad = [t for t in message.split(":", 1)[1].split() if t.startswith("--")]
            hints = []
            for token in bad:
                close = difflib.get_close_matches(token, sorted(_ALL_OPTION_STRINGS), n=1)
                if close:
                    hints.append(f"did you mean {close[0]} instead of {token}?")
            if hints:
                message += "\n" + "\n".join(hints)
        raise UsageError(message)


# -- config merging -------------------------------------------------------------

_GEN_DEFAULTS = {
    "preset": "default3",
    "spec": None,
    "per_class": 300,
    "test_per_class": 300,
    "n_cells": 501,
    "seed": 0,
    "test_offset": 0.5,
    "normalization": "max_abs",
}

# the ModelConfig fields with defaults; n_cells and n_classes come from the data
_MODEL_DEFAULTS = {f.name: f.default for f in fields(ModelConfig) if f.default is not MISSING}

_TRAIN_DEFAULTS = {
    "epochs": 100,
    "batch_size": 32,
    "lr": 1e-3,
    "shuffle_seed": 0,
}


# what a --config value may be, by the type of its built-in default
_CONFIG_TYPES = {
    int: ("an integer", (int,)),
    float: ("a number", (int, float)),
    str: ("a string", (str,)),
    type(None): ("a string or null", (str, type(None))),
}


def _merge(defaults: dict, config_path, args) -> dict:
    """defaults < config file < explicit CLI flags."""
    merged = dict(defaults)
    if config_path is not None:
        path = Path(config_path)
        loaded = read_json(path, "config file")
        if not isinstance(loaded, dict):
            raise UsageError(f"{path}: config must be a JSON object")
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise UsageError(
                f"{path}: unknown config keys {unknown}; valid keys: {sorted(defaults)}"
            )
        for key, value in loaded.items():
            expected, types = _CONFIG_TYPES[type(defaults[key])]
            if type(value) not in types:
                raise UsageError(
                    f"{path}: config key {key!r} must be {expected}, got {type(value).__name__}"
                )
        merged.update(loaded)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _write_resolved(out_dir: Path, command: str, resolved: dict) -> None:
    payload = {"command": command, **resolved}
    (out_dir / "resolved_config.json").write_text(
        json.dumps(payload, indent=1) + "\n", encoding="utf-8", newline="\n"
    )


def _model_config(resolved: dict, n_cells: int, n_classes: int) -> ModelConfig:
    return ModelConfig(n_cells, n_classes, **{key: resolved[key] for key in _MODEL_DEFAULTS})


def _train_config(resolved: dict) -> TrainConfig:
    return TrainConfig(
        epochs=resolved["epochs"],
        batch_size=resolved["batch_size"],
        learning_rate=resolved["lr"],
        shuffle_seed=resolved["shuffle_seed"],
    )


def _resolve_train_data(data_arg):
    """--data accepts a CSV file or a directory holding train.csv (and test.csv)."""
    p = Path(data_arg)
    if p.is_dir():
        train_path = p / "train.csv"
        test_path = p / "test.csv"
        return train_path, (test_path if test_path.exists() else None)
    return p, None


# -- subcommands -----------------------------------------------------------------


def cmd_gen_data(args) -> int:
    resolved = _merge(_GEN_DEFAULTS, args.config, args)
    if resolved["spec"] is not None:
        specs = load_class_specs(resolved["spec"])
    elif resolved["preset"] == "default3":
        specs = default_three_class_specs(resolved["n_cells"])
    elif resolved["preset"] == "toy2":
        specs = toy_two_class_specs(resolved["n_cells"])
    else:
        raise UsageError(f"unknown preset {resolved['preset']!r}; use default3 or toy2")

    train_ds, test_ds = make_benchmark(
        specs,
        per_class=resolved["per_class"],
        n_cells=resolved["n_cells"],
        seed=resolved["seed"],
        test_per_class=resolved["test_per_class"],
        test_position_offset=resolved["test_offset"],
        normalization=resolved["normalization"],
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # only once settings and inputs are accepted
    save_csv(train_ds, out_dir / "train.csv")
    save_csv(test_ds, out_dir / "test.csv")
    save_class_specs(specs, out_dir / "class_specs.json")
    _write_resolved(out_dir, "gen-data", resolved)
    print(f"wrote {out_dir / 'train.csv'} ({len(train_ds)} samples, {train_ds.n_cells} cells)")
    print(f"wrote {out_dir / 'test.csv'} ({len(test_ds)} samples)")
    print(f"classes: {', '.join(train_ds.class_names)}")
    return 0


def _epoch_printer(epochs: int, quiet: bool):
    if quiet:
        return None

    def show(row):
        epoch = row["epoch"]
        if epoch == 0:
            print(f"epoch    0/{epochs}  loss {row['train_loss']:.4f}  (untrained baseline)")
        elif epoch == 1 or epoch == epochs or epoch % 10 == 0:
            extra = ""
            if row["val_accuracy"] is not None:
                extra = f"  val-acc {row['val_accuracy']:6.2f}%"
            print(
                f"epoch {epoch:>4}/{epochs}  loss {row['train_loss']:.4f}  "
                f"train-acc {row['train_accuracy']:6.2f}%{extra}"
            )

    return show


def cmd_train(args) -> int:
    defaults = {**_MODEL_DEFAULTS, **_TRAIN_DEFAULTS}
    resolved = _merge(defaults, args.config, args)
    train_path, test_path = _resolve_train_data(args.data)
    if args.test_data is not None:
        test_path = Path(args.test_data)
    train_ds = load_csv(train_path)
    val_ds = load_csv(args.val_data) if args.val_data is not None else None
    test_ds = load_csv(test_path) if test_path is not None else None
    model = GraphClassifier(_model_config(resolved, train_ds.n_cells, train_ds.n_classes))
    tc = _train_config(resolved)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # only once settings and inputs are accepted
    log = train(model, train_ds, tc, val_dataset=val_ds,
                epoch_callback=_epoch_printer(tc.epochs, args.quiet))

    model.save(out_dir / "model.json")
    save_epoch_log(log, out_dir / "epoch_log.csv")
    resolved["data"] = str(args.data)
    _write_resolved(out_dir, "train", resolved)
    print(f"final training loss {log[-1]['train_loss']:.4f}, "
          f"accuracy {log[-1]['train_accuracy']:.2f}%")
    print(f"wrote {out_dir / 'model.json'}")

    if test_ds is not None:
        metrics = evaluate(model, test_ds)
        print(f"test accuracy {metrics.accuracy:.2f}%  average {metrics.average_accuracy:.2f}%")
        print(format_confusion(metrics))
        (out_dir / "metrics.json").write_text(
            json.dumps(metrics.to_dict(), indent=1) + "\n", encoding="utf-8", newline="\n"
        )
    return 0


def _metrics_csv(metrics) -> str:
    lines = ["metric,value"]
    lines.append(f"accuracy,{metrics.accuracy:.2f}")
    lines.append(f"average_accuracy,{metrics.average_accuracy:.2f}")
    lines.append(f"macro_f1,{metrics.macro_f1:.2f}")
    lines.append(f"n_samples,{metrics.n_samples}")
    for name, acc in zip(metrics.class_names, metrics.per_class_accuracy):
        lines.append(f"accuracy[{name}],{acc:.2f}")
    return "\n".join(lines) + "\n"


def cmd_eval(args) -> int:
    model = GraphClassifier.load(args.checkpoint)
    dataset = load_csv(args.data)
    metrics = evaluate(model, dataset)
    print(f"samples          {metrics.n_samples}")
    print(f"accuracy         {metrics.accuracy:.2f}%")
    print(f"average accuracy {metrics.average_accuracy:.2f}%")
    print(f"macro F1         {metrics.macro_f1:.2f}%")
    for name, acc in zip(metrics.class_names, metrics.per_class_accuracy):
        print(f"  {name:<12} {acc:6.2f}%")
    print(format_confusion(metrics))
    if args.out is not None:
        Path(args.out).write_text(_metrics_csv(metrics), encoding="utf-8", newline="\n")
        print(f"wrote {args.out}")
    return 0


def cmd_ablate(args) -> int:
    defaults = {**_MODEL_DEFAULTS, **_TRAIN_DEFAULTS, "seeds": 5}
    resolved = _merge(defaults, args.config, args)
    n_seeds = resolved["seeds"]
    if n_seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {n_seeds}")
    seeds = list(range(n_seeds))

    data_dir = Path(args.data)
    if not data_dir.is_dir():
        raise DataFormatError(f"--data must be a directory with train.csv/test.csv, got {data_dir}")
    train_ds = load_csv(data_dir / "train.csv")
    test_ds = load_csv(data_dir / "test.csv")
    base = _model_config(resolved, train_ds.n_cells, train_ds.n_classes)
    tc = _train_config(resolved)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)  # only once settings and inputs are accepted

    def progress(flags, seed, metrics):
        if not args.quiet:
            print(f"[{flags:>3}] seed {seed}: accuracy {metrics.accuracy:.2f}%")

    results = run_ablation_suite(train_ds, test_ds, base, tc, seeds, progress=progress)
    table = ablation_table(results)
    print(table)
    save_ablation_csv(results, out_dir / "ablation.csv")
    (out_dir / "ablation_table.txt").write_text(table + "\n", encoding="utf-8", newline="\n")
    resolved["data"] = str(args.data)
    _write_resolved(out_dir, "ablate", resolved)
    failed = [r["flags"] for r in results if r["error"] is not None]
    if failed:
        print(f"configurations with errors: {', '.join(failed)}", file=sys.stderr)
        return 4
    return 0


def cmd_gradcheck(args) -> int:
    if not 0.0 < args.tol < np.inf:  # NaN fails both comparisons
        raise UsageError(f"--tol must be finite and > 0, got {args.tol}")
    per_layer = layer_suite(seed=args.seed)
    if args.layer is not None:
        if args.layer not in per_layer:
            raise UsageError(
                f"unknown layer {args.layer!r}; one of {sorted(per_layer)} or omit --layer"
            )
        results = {args.layer: per_layer[args.layer]}
        for name, err in per_layer[args.layer].items():
            print(f"{args.layer}.{name:<20} {err:.3e}")
    else:
        for layer_name, tensors in per_layer.items():
            print(f"[layer {layer_name:<10}] worst {max(tensors.values()):.3e}")
        whole = check_all_ablations(seed=args.seed)
        for flags, tensors in whole.items():
            print(f"[model {flags:<5}] worst {max(tensors.values()):.3e}")
        results = {"layers": per_layer, "model": whole}
    worst = worst_error(results)
    print(f"worst relative error {worst:.3e} (tolerance {args.tol:.0e})")
    if not np.isfinite(worst) or worst > args.tol:
        print("FAIL: analytic gradients disagree with finite differences", file=sys.stderr)
        return 4
    print("OK")
    return 0


# -- parser ------------------------------------------------------------------------


def _add_training_flags(p) -> None:
    """The options train and ablate share."""
    p.add_argument("--config", help="JSON file with option defaults")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--shuffle-seed", type=int, dest="shuffle_seed")
    p.add_argument("--d-out", type=int, dest="d_out", help="conv channels")
    p.add_argument("--g-out", type=int, dest="g_out", help="graph-conv features")
    p.add_argument("--quiet", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hrrpgnn",
        description="Graph-network classifier for radar range profiles.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    sub.parser_class = _Parser

    p = sub.add_parser("gen-data", help="generate a synthetic train/test benchmark")
    p.add_argument("--out", required=True, help="directory for train.csv/test.csv")
    p.add_argument("--config", help="JSON file with option defaults")
    p.add_argument("--preset", choices=("default3", "toy2"), help="built-in class geometry")
    p.add_argument("--spec", help="class-spec JSON file (overrides --preset)")
    p.add_argument("--per-class", type=int, dest="per_class", help="training samples per class")
    p.add_argument("--test-per-class", type=int, dest="test_per_class")
    p.add_argument("--n-cells", type=int, dest="n_cells", help="range cells per profile (default 501)")
    p.add_argument("--seed", type=int)
    p.add_argument("--test-offset", type=float, dest="test_offset",
                   help="scatterer shift (cells) applied to the test split")
    p.add_argument("--normalization", choices=("max_abs", "l2", "none"))
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--data", required=True,
                   help="dataset CSV, or a directory holding train.csv (+ test.csv)")
    p.add_argument("--out", required=True, help="run directory for checkpoint and logs")
    p.add_argument("--test-data", dest="test_data",
                   help="CSV to evaluate once after training (overrides the directory's test.csv)")
    p.add_argument("--val-data", dest="val_data",
                   help="CSV evaluated every epoch into the epoch log")
    _add_training_flags(p)
    p.add_argument("--seed", type=int, help="parameter initialization seed")
    p.add_argument("--ablation", help="module subset of 'abc' (default abc)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset CSV")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--checkpoint", required=True, help="model.json from a training run")
    p.add_argument("--out", help="also write the metrics as CSV here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train/evaluate every module subset")
    p.add_argument("--data", required=True, help="directory holding train.csv and test.csv")
    p.add_argument("--out", required=True)
    _add_training_flags(p)
    p.add_argument("--seeds", type=int, help="number of seeds per configuration (default 5)")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference check of the backward passes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layer", help="check a single layer (conv1d, batchnorm, leaky_relu, "
                                   "graphconv, attention, mean_pool, dense)")
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # a diverging run is reported once, by numerics' finiteness check
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return args.func(args)
    except HrrpGnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # reads raise DataFormatError, so this is an output path
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
