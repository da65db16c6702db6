"""Command-line front end.

Subcommands: gen-data, train, eval, ablate, gradcheck. Option values
resolve in three layers: built-in defaults, then a --config JSON file,
then explicit flags; the merged result is echoed to
``<out>/resolved_config.json`` so a run can be reproduced from its
artifacts alone.

``main`` alone makes and removes run directories: it creates gen-data's,
train's and ablate's --out with its missing parents before the command
runs, then removes each one it made that is still empty. eval's --out
is a CSV file, which eval checks and writes itself.

Exit codes: 0 success, 2 usage/configuration problem or unwritable
output, 3 unreadable or malformed input file, 4 numeric failure (NaN,
gradient check above tolerance), 130 interrupted (Ctrl-C); each error
class carries its own.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import errno
import os
import re
import sys
import warnings
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .data import (
    NORMALIZATION_MODES,
    default_three_class_specs,
    load_class_specs,
    load_csv,
    make_benchmark,
    read_json,
    save_class_specs,
    save_csv,
    toy_two_class_specs,
    write_json,
    write_text,
)
from .errors import DataFormatError, HrrpGnnError, UsageError
from .gradcheck import LAYER_NAMES, check_all_ablations, layer_suite, worst_error
from .model import GraphClassifier, ModelConfig
from .trainkit import (
    TrainConfig,
    ablation_table,
    check_fits,
    evaluate,
    format_confusion,
    run_ablation_suite,
    save_ablation_csv,
    save_epoch_log,
    train,
)

# each --preset name and the function that builds its class specs for a cell count
_PRESETS = {"default3": default_three_class_specs, "toy2": toy_two_class_specs}


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, with typo suggestions."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern has no exponent, infinity or NaN, so it took "-1e-3"
        # and "-inf" for option names; float() reads each of these in any letter case
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)

    def parse_known_args(self, args=None, namespace=None):
        """Reject unknown arguments here, where the hints can come from this command's options."""
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            message = f"unrecognized arguments: {' '.join(extras)}"
            options = sorted(self._option_string_actions)
            hints = []
            for token in (t for t in extras if t.startswith("--")):
                close = difflib.get_close_matches(token, options, n=1)
                if close:
                    hints.append(f"{close[0]} instead of {token}")
            self.error(f"{message}; did you mean {', '.join(hints)}?" if hints else message)
        return namespace, extras

    def error(self, message):
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

# each training key of the flags and --config, and the TrainConfig field it sets
_TRAIN_FIELDS = {"epochs": "epochs", "batch_size": "batch_size", "lr": "learning_rate",
                 "shuffle_seed": "shuffle_seed"}
_TRAIN_DEFAULTS = {key: getattr(TrainConfig, name) for key, name in _TRAIN_FIELDS.items()}


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
    write_json(out_dir / "resolved_config.json", payload)


def _model_config(resolved: dict, n_cells: int, n_classes: int) -> ModelConfig:
    return ModelConfig(n_cells, n_classes, **{k: v for k, v in resolved.items() if k in _MODEL_DEFAULTS})


def _train_config(resolved: dict) -> TrainConfig:
    return TrainConfig(**{name: resolved[key] for key, name in _TRAIN_FIELDS.items()})


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
    elif resolved["preset"] in _PRESETS:
        specs = _PRESETS[resolved["preset"]](resolved["n_cells"])
    else:
        raise UsageError(f"unknown preset {resolved['preset']!r}; use {' or '.join(_PRESETS)}")

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
    test_name = str(test_path)
    if args.test_data is not None:
        test_path, test_name = Path(args.test_data), f"--test-data {args.test_data}"
    train_ds = load_csv(train_path)
    val_ds = load_csv(args.val_data) if args.val_data is not None else None
    test_ds = load_csv(test_path) if test_path is not None else None
    model = GraphClassifier(_model_config(resolved, train_ds.n_cells, train_ds.n_classes))
    check_fits(model.config, (f"--val-data {args.val_data}", val_ds), (test_name, test_ds))
    tc = _train_config(resolved)
    out_dir = Path(args.out)
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
        write_json(out_dir / "metrics.json", metrics.to_dict())
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
    out = None if args.csv is None else Path(args.csv)
    if out is not None and (out.is_dir() or not out.parent.is_dir()):  # before any work
        code = errno.EISDIR if out.is_dir() else errno.ENOENT
        raise OSError(code, os.strerror(code), str(out))
    model = GraphClassifier.load(args.checkpoint)
    dataset = load_csv(args.data)
    check_fits(model.config, (f"--data {args.data}", dataset))
    metrics = evaluate(model, dataset)
    print(f"samples          {metrics.n_samples}")
    print(f"accuracy         {metrics.accuracy:.2f}%")
    print(f"average accuracy {metrics.average_accuracy:.2f}%")
    print(f"macro F1         {metrics.macro_f1:.2f}%")
    for name, acc in zip(metrics.class_names, metrics.per_class_accuracy):
        print(f"  {name:<12} {acc:6.2f}%")
    print(format_confusion(metrics))
    if args.csv is not None:
        write_text(args.csv, _metrics_csv(metrics))
        print(f"wrote {args.csv}")
    return 0


def cmd_ablate(args) -> int:
    defaults = {**_MODEL_DEFAULTS, **_TRAIN_DEFAULTS, "seeds": 5}
    del defaults["ablation"], defaults["seed"]  # each row sets its own, over seeds 0..seeds-1
    resolved = _merge(defaults, args.config, args)
    n_seeds = resolved["seeds"]
    if n_seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {n_seeds}")
    try:
        seeds = list(range(n_seeds))
    except (OverflowError, MemoryError):  # a list length Python refuses before allocating
        raise UsageError(f"--seeds must be small enough to list, got {n_seeds}") from None

    data_dir = Path(args.data)
    if not data_dir.is_dir():
        raise DataFormatError(f"--data must be a directory with train.csv/test.csv, got {data_dir}")
    train_ds = load_csv(data_dir / "train.csv")
    test_ds = load_csv(data_dir / "test.csv")
    base = _model_config(resolved, train_ds.n_cells, train_ds.n_classes)
    check_fits(base, (str(data_dir / "test.csv"), test_ds))
    GraphClassifier(base)  # widths too large to allocate fail here, not in every row
    tc = _train_config(resolved)
    out_dir = Path(args.out)

    def progress(flags, seed, metrics):
        if not args.quiet:
            print(f"[{flags:>3}] seed {seed}: accuracy {metrics.accuracy:.2f}%")

    results = run_ablation_suite(train_ds, test_ds, base, tc, seeds, progress=progress)
    table = ablation_table(results)
    print(table)
    save_ablation_csv(results, out_dir / "ablation.csv")
    write_text(out_dir / "ablation_table.txt", table + "\n")
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
    p.add_argument("--preset", choices=_PRESETS, help="built-in class geometry")
    p.add_argument("--spec", help="class-spec JSON file (overrides --preset)")
    p.add_argument("--per-class", type=int, dest="per_class", help="training samples per class")
    p.add_argument("--test-per-class", type=int, dest="test_per_class")
    p.add_argument("--n-cells", type=int, dest="n_cells", help="range cells per profile (default 501)")
    p.add_argument("--seed", type=int)
    p.add_argument("--test-offset", type=float, dest="test_offset",
                   help="scatterer shift (cells) applied to the test split")
    p.add_argument("--normalization", choices=NORMALIZATION_MODES)
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
    p.add_argument("--out", dest="csv", help="also write the metrics as CSV here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train/evaluate every module subset")
    p.add_argument("--data", required=True, help="directory holding train.csv and test.csv")
    p.add_argument("--out", required=True)
    _add_training_flags(p)
    p.add_argument("--seeds", type=int, help="number of seeds per configuration (default 5)")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference check of the backward passes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layer", choices=LAYER_NAMES, help="check a single layer")
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    made = []  # the directories this run creates for --out, deepest first
    try:
        args = parser.parse_args(argv)
        if getattr(args, "out", None) is not None:  # a run directory; eval's CSV is args.csv
            out = Path(args.out)
            made = [d for d in (out, *out.parents) if not os.path.lexists(d)]
            out.mkdir(parents=True, exist_ok=True)
        # a diverging run is reported once, by numerics' finiteness check, and a
        # warning is one "warning:" line, without the source line Python adds
        with (np.errstate(over="ignore", invalid="ignore", divide="ignore"),
              warnings.catch_warnings()):
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return args.func(args)
    except HrrpGnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # reads raise DataFormatError, so this is an output path
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except KeyboardInterrupt as exc:  # train's carries "at epoch E[, step S]"
        print(f"error: interrupted {exc}".rstrip(), file=sys.stderr)
        return 130
    finally:
        for d in made:  # rmdir removes only an empty directory, so a written run stays
            with contextlib.suppress(OSError):
                d.rmdir()


if __name__ == "__main__":
    sys.exit(main())
