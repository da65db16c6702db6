"""Seeded mutation fuzz of the CLI's input contract.

Each case takes one valid input file (a checkpoint, a dataset CSV, its
manifest, a test split's manifest, a class-spec file or a --config file),
damages it once and runs the command that reads it through ``cli.main``
in-process. Whatever the
damage, the run must end in a documented exit code, a rejection must be one
stderr line without a traceback, no temp file may be left behind, and a
rejected run must not have created its --out directory. Every run passes the
size flags explicitly, so a huge but valid size in a file cannot turn a case
into a long run.
"""

import json
import random

import pytest

from hrrpgnn.cli import main

# what a JSON value may be replaced with
REPLACEMENTS = [None, True, False, 0, -0.0, 1e308, float("nan"), float("inf"), float("-inf"),
                "x", [], {}, 2**70]

_TINY = ["--epochs", "1", "--quiet"]
_SIZES = ["--n-cells", "16", "--per-class", "2", "--test-per-class", "2"]

# input kind: (its base file in the prepared directory, the command line that reads it as
# {file}, with {dir}/{gen}/{run}/{out} placeholders, whether the file is JSON)
TARGETS = {
    "checkpoint": ("run/model.json",
                   ["eval", "--data", "{gen}/test.csv", "--checkpoint", "{file}"], True),
    "csv": ("gen/train.csv",
            ["train", "--data", "{file}", "--out", "{out}", "--d-out", "2", "--g-out", "2",
             *_TINY], False),
    "manifest": ("gen/train.manifest.json",
                 ["train", "--data", "{dir}/train.csv", "--out", "{out}", "--d-out", "2",
                  "--g-out", "2", *_TINY], True),
    "test-manifest": ("gen/test.manifest.json",
                      ["train", "--data", "{dir}", "--out", "{out}", "--d-out", "2", "--g-out", "2",
                       *_TINY], True),
    "class-specs": ("gen/class_specs.json",
                    ["gen-data", "--spec", "{file}", *_SIZES, "--out", "{out}"], True),
    "gen-data-config": ("gen-config.json",
                        ["gen-data", "--config", "{file}", *_SIZES, "--out", "{out}"], True),
    "train-config": ("train-config.json",
                     ["train", "--data", "{gen}", "--config", "{file}", "--out", "{out}", *_TINY],
                     True),
    "ablate-config": ("ablate-config.json",
                      ["ablate", "--data", "{gen}", "--config", "{file}", "--out", "{out}",
                       "--seeds", "1", *_TINY], True),
}
SEEDS = range(40)


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A toy2 benchmark at 16 cells, a checkpoint trained on it, and three config files."""
    root = tmp_path_factory.mktemp("fuzzbase")
    gen, run = root / "gen", root / "run"
    assert main(["gen-data", "--preset", "toy2", "--n-cells", "16", "--per-class", "4",
                 "--test-per-class", "4", "--out", str(gen)]) == 0
    assert main(["train", "--data", str(gen), "--out", str(run), "--d-out", "2", "--g-out", "2",
                 *_TINY]) == 0
    gen_config = {"preset": "toy2", "spec": None, "seed": 3, "test_offset": 0.5,
                  "normalization": "l2", "per_class": 2, "test_per_class": 2, "n_cells": 16}
    train_config = {"epochs": 1, "batch_size": 4, "lr": 0.01, "shuffle_seed": 1, "d_out": 2,
                    "g_out": 2, "ablation": "ac", "seed": 1}
    (root / "gen-config.json").write_text(json.dumps(gen_config), encoding="utf-8")
    # ablate takes train's keys but ablation and seed, which each of its rows sets itself
    ablate_config = {k: v for k, v in train_config.items() if k not in ("ablation", "seed")}
    ablate_config["seeds"] = 1
    (root / "train-config.json").write_text(json.dumps(train_config), encoding="utf-8")
    (root / "ablate-config.json").write_text(json.dumps(ablate_config), encoding="utf-8")
    return root


def _json_paths(value, path=()):
    """The key/index path of every value in a parsed JSON document, containers included."""
    if path:
        yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _json_paths(child, path + (key,))


def _mutate(data: bytes, is_json: bool, rnd: random.Random) -> tuple[bytes, str]:
    """One damaged copy of ``data`` and a description of the damage."""
    kind = rnd.choice(["truncate", "flip", "replace"] if is_json else ["truncate", "flip"])
    if kind == "truncate":
        cut = rnd.randrange(len(data))
        return data[:cut], f"truncated at byte {cut}"
    if kind == "flip":
        out = bytearray(data)
        where = sorted(rnd.randrange(len(data)) for _ in range(rnd.randint(1, 3)))
        for i in where:
            out[i] ^= rnd.randrange(1, 256)
        return bytes(out), f"flipped bytes {where}"
    doc = json.loads(data)
    path = rnd.choice(list(_json_paths(doc)))
    value = rnd.choice(REPLACEMENTS)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(doc).encode(), f"replaced {list(path)} with {value!r}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("target", sorted(TARGETS))
def test_damaged_input_keeps_the_contract(target, seed, base, tmp_path, capsys):
    source, argv, is_json = TARGETS[target]
    rnd = random.Random(f"{target}-{seed}")
    damaged, how = _mutate((base / source).read_bytes(), is_json, rnd)
    # the damaged file takes the base file's name, beside a copy of its dataset's other files
    work = tmp_path / "in"
    work.mkdir()
    for name in ("train.csv", "train.manifest.json", "test.csv", "test.manifest.json"):
        (work / name).write_bytes((base / "gen" / name).read_bytes())
    path = work / source.rsplit("/", 1)[-1]
    path.write_bytes(damaged)
    out = tmp_path / "out"
    args = [a.format(file=path, dir=work, gen=base / "gen", run=base / "run", out=out)
            for a in argv]
    capsys.readouterr()
    try:
        rc = main(args)
    except Exception as exc:  # noqa: BLE001 - any escape is the failure being looked for
        pytest.fail(f"{target} {how}: {type(exc).__name__}: {exc}")
    err = capsys.readouterr().err
    assert rc in (0, 2, 3, 4), f"{target} {how}: exit {rc}: {err}"
    if rc != 0:
        assert len(err.strip().splitlines()) <= 1, f"{target} {how}: {err}"
        assert "Traceback" not in err, f"{target} {how}: {err}"
    assert not list(tmp_path.rglob("*.tmp")), f"{target} {how}: temp file left behind"
    if rc in (2, 3):
        assert not out.exists(), f"{target} {how}: rejected, but {out} was created"
