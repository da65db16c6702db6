"""Seeded fuzz of the Python API's integer contract.

Every size, count and seed argument of the public constructors and functions
takes each of ``test_cli_fuzz.REPLACEMENTS`` in turn, then values drawn from a
generator seeded by the argument's name: integers below the minimum, small legal
integers as Python or numpy integers, and the same small values as floats,
strings and numpy bools. The other arguments stay valid. A value the integer
rule refuses (a bool, a non-integer, or an integer below the minimum) must raise
an ``HrrpGnnError`` carrying the rule's one wording. A legal value must either
be stored as a plain ``int`` (``Dense`` keeps ``out_dim`` only as a weight
shape) or raise an ``HrrpGnnError`` whose subject, the text before its first
" must ", names the argument (a count too large to allocate).

Accepted values that would make a call run long are only constructed: configs
are built but never trained or turned into a model. As a count or size, 2**70
reaches ``synth_generate`` and ``make_benchmark`` only because their allocation
guard refuses it before allocating anything, and ``Dataset`` only as a class
count. The layer constructors allocate their weights at once, so they are not
given 2**70. ``Dataset``'s cell count is its amplitude array's width, not an
argument: every value offered for it is refused by name, and each integer width
from 0 to ``BASE``'s is given as a slice of ``BASE``'s array instead.
"""

import random
import re

import numpy as np
import pytest
from test_cli_fuzz import REPLACEMENTS

from hrrpgnn.data import Dataset, make_benchmark, synth_generate, toy_two_class_specs
from hrrpgnn.errors import HrrpGnnError
from hrrpgnn.gradcheck import check_layer, check_model, layer_suite
from hrrpgnn.layers import AttentionPool, BatchNorm1d, Conv1d, Dense, GraphConv
from hrrpgnn.model import ModelConfig
from hrrpgnn.trainkit import TrainConfig, run_ablation_suite

# scatterers at 0.75 and 2.25 cells, so the specs fit every n_cells >= 3
SPECS = toy_two_class_specs(3)
BASE = synth_generate(SPECS, per_class=2, n_cells=16, seed=0)
_INT_TYPES = [int, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint64]
_NOT_INT_TYPES = [float, np.float64, str, np.bool_]


def _model_config(name, value):
    sizes = {"n_cells": 16, "n_classes": 2, "d_out": 2, "g_out": 2, "seed": 0}
    return getattr(ModelConfig(**{**sizes, name: value}), name)


def _train_config(name, value):
    return getattr(TrainConfig(**{name: value}), name)


def _synth_generate(name, value):
    ds = synth_generate(SPECS, **{"per_class": 2, "n_cells": 16, "seed": 0, name: value})
    return ds.n_cells if name == "n_cells" else ds.manifest[name]


def _make_benchmark(name, value):
    sizes = {"per_class": 2, "test_per_class": 2, "n_cells": 16, "seed": 0}
    train_ds, test_ds = make_benchmark(SPECS, **{**sizes, name: value})
    if value is None:  # test_per_class defaults to per_class
        return None
    return {"per_class": train_ds.manifest["per_class"], "n_cells": test_ds.n_cells,
            "test_per_class": test_ds.manifest["per_class"], "seed": train_ds.manifest["seed"]}[name]


def _dataset(name, value):
    return Dataset(BASE.amplitudes, BASE.label_ids, value, list(BASE.class_names)).n_classes


def _dataset_width(value):
    with pytest.raises(TypeError, match="n_cells"):
        Dataset(BASE.amplitudes, BASE.label_ids, 2, [], n_cells=value)
    if not ((type(value) is int or isinstance(value, np.integer)) and 0 <= value <= BASE.n_cells):
        return
    try:
        stored = Dataset(BASE.amplitudes[:, :value], BASE.label_ids, 2, []).n_cells
    except HrrpGnnError as exc:
        assert value == 0 and str(exc) == "n_cells must be an integer >= 1, got 0", \
            f"width {value!r}: {exc}"
    else:
        assert value >= 1 and type(stored) is int and stored == value, f"width {value!r}: {stored!r}"


# each layer's size arguments, with valid values
_LAYERS = {
    Conv1d: {"in_channels": 2, "out_channels": 2},
    BatchNorm1d: {"channels": 2},
    GraphConv: {"in_dim": 2, "out_dim": 2, "n_nodes": 3},
    AttentionPool: {"feature_dim": 2},
    Dense: {"in_dim": 2, "out_dim": 2},
}


def _layer(cls):
    def build(name, value):
        rng = {} if cls is BatchNorm1d else {"rng": np.random.default_rng(0)}
        # Dense holds out_dim only as its weights' shape
        return getattr(cls(**{**_LAYERS[cls], name: value}, **rng), name, None)

    return build


def _ablation_seed(name, value):
    train_ds, test_ds = make_benchmark(SPECS, per_class=2, n_cells=16, seed=0)
    rows = run_ablation_suite(train_ds, test_ds, ModelConfig(16, 2, d_out=2, g_out=2),
                              TrainConfig(epochs=1, batch_size=4), [value])
    assert [row["error"] for row in rows] == [None] * len(rows)
    return rows[0]["seeds"][0]


def _layer_suite_seed(name, value):
    layer_suite(value)


def _check_layer_seed(name, value):
    check_layer(Dense(3, 2, np.random.default_rng(0)), np.ones((2, 3)), value)


def _check_model_seed(name, value):
    check_model(ModelConfig(3, 2, d_out=1, g_out=1), value)


# target: (call(name, value) -> the value as stored, or None where nothing holds it,
# argument name, the name its error gives, minimum)
TARGETS = {
    **{f"ModelConfig.{name}": (_model_config, name, name, minimum)
       for name, minimum in [("n_cells", 3), ("n_classes", 1), ("d_out", 1), ("g_out", 1),
                             ("seed", 0)]},
    **{f"TrainConfig.{name}": (_train_config, name, name, minimum)
       for name, minimum in [("epochs", 1), ("batch_size", 1), ("shuffle_seed", 0)]},
    **{f"synth_generate.{name}": (_synth_generate, name, name, minimum)
       for name, minimum in [("per_class", 1), ("n_cells", 3), ("seed", 0)]},
    **{f"make_benchmark.{name}": (_make_benchmark, name, name, minimum)
       for name, minimum in [("per_class", 1), ("test_per_class", 1), ("n_cells", 3),
                             ("seed", 0)]},
    "Dataset.n_classes": (_dataset, "n_classes", "n_classes", 1),
    **{f"{cls.__name__}.{name}": (_layer(cls), name, name, 1)
       for cls, sizes in _LAYERS.items() for name in sizes},
    "run_ablation_suite.seeds": (_ablation_seed, "seeds", "seeds[0]", 0),
    "layer_suite.seed": (_layer_suite_seed, "seed", "seed", 0),
    "check_layer.seed": (_check_layer_seed, "seed", "seed", 0),
    "check_model.seed": (_check_model_seed, "seed", "seed", 0),
}


def _drawn(rnd: random.Random, minimum: int) -> list:
    """Integers below ``minimum``, small legal integers, and those as non-integers."""
    values = [rnd.randrange(-2**70, minimum), np.int64(rnd.randrange(-2**63, minimum))]
    for _ in range(3):
        small = rnd.randrange(minimum, minimum + 4)
        values.append(rnd.choice(_INT_TYPES)(small))
        values.append(rnd.choice(_NOT_INT_TYPES)(small))
    return values


@pytest.mark.parametrize("target", sorted([*TARGETS, "Dataset.n_cells"]))
def test_every_integer_argument_keeps_the_rule(target):
    if target == "Dataset.n_cells":
        for value in [*REPLACEMENTS, *_drawn(random.Random(target), 1)]:
            _dataset_width(value)
        return
    call, name, label, minimum = TARGETS[target]
    values = [*REPLACEMENTS, *_drawn(random.Random(target), minimum)]
    # a layer draws its weights when built, with no allocation guard: ModelConfig's refuses
    # such a size before any layer is built
    if target.split(".")[0] in {cls.__name__ for cls in _LAYERS}:
        values.remove(2**70)
    for value in values:
        legal = ((type(value) is int or isinstance(value, np.integer)) and value >= minimum
                 or value is None and target == "make_benchmark.test_per_class")
        try:
            stored = call(name, value)
        except HrrpGnnError as exc:
            message = str(exc)
            if legal:
                subject = message.split(" must ", 1)[0]
                assert re.search(rf"(?<!\w){name}\b", subject), f"{target}={value!r}: {message}"
            else:
                rule = f"{label} must be an integer >= {minimum}, got {value!r}"
                assert rule in message, f"{target}={value!r}: {message}"
        else:
            assert legal, f"{target}={value!r} was accepted"
            assert stored is None or type(stored) is int and stored == value, \
                f"{target}={value!r}: {stored!r}"
