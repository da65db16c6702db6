"""The assembled graph network: configuration, forward/backward, checkpoints.

The full pipeline per sample is

    amplitudes -> graph (nodes + adjacency)
               -> [conv -> batchnorm -> leaky_relu] x 2      (module a)
               -> graph convolution over the adjacency        (module b)
               -> attention pooling                           (module c)
               -> dense head -> log-softmax

Any nonempty subset of the three modules {a, b, c} can be enabled; a
disabled attention module degrades to uniform mean pooling so every
configuration keeps a comparable head, and disabled modules simply drop
out of the chain. Feature widths rewire accordingly: the graph
convolution consumes d_out channels when the conv blocks are on and the
raw single channel otherwise, and the head consumes whatever the last
enabled stage produces.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import check_seed, read_json
from .errors import ConfigError, DataFormatError, ShapeError, UsageError
from .layers import (
    AttentionPool,
    BatchNorm1d,
    Conv1d,
    Dense,
    GraphConv,
    LeakyReLU,
    MeanPool,
)
from .numerics import log_softmax, softmax

CHECKPOINT_FORMAT = "hrrpgnn-checkpoint"
CHECKPOINT_VERSION = 2


# The seven legal configurations, in the canonical reporting order.
ABLATION_ORDER = ("a", "b", "c", "ab", "ac", "bc", "abc")


@dataclass(frozen=True)
class ModelConfig:
    n_cells: int
    n_classes: int
    d_out: int = 16
    g_out: int = 32
    # the enabled modules: a=local conv, b=graph conv, c=attention
    ablation: str = "abc"
    seed: int = 0

    def __post_init__(self):
        if self.n_cells < 3:
            raise ConfigError(f"n_cells must be >= 3 (conv kernel width), got {self.n_cells}")
        for name in ("d_out", "g_out", "n_classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        check_seed("seed", self.seed)
        flags = self.ablation
        if not (isinstance(flags, str) and flags and set(flags) <= set("abc")
                and len(set(flags)) == len(flags)):
            raise ConfigError(f"ablation must be a nonempty subset of 'abc', got {flags!r}")
        object.__setattr__(self, "ablation", "".join(f for f in "abc" if f in flags))

    @property
    def gconv_in_dim(self) -> int:
        return self.d_out if "a" in self.ablation else 1

    @property
    def head_dim(self) -> int:
        if "b" in self.ablation:
            return self.g_out
        return self.gconv_in_dim


class GraphClassifier:
    """The network with all parameter tensors, gradient slots, and wiring.

    Parameters are drawn deterministically from one generator seeded with
    ``config.seed``, layer by layer in construction order (conv1, conv2,
    gconv, att, fc): weights uniform(-sqrt(1/fan_in), +sqrt(1/fan_in)),
    biases zero, BN gamma 1 / beta 0 with running stats (0, 1). Every layer
    is always constructed (so checkpoints have a stable tensor set for a
    given config) but only the layers in ``chain`` run; the others'
    gradients stay zero.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.conv1 = Conv1d(1, config.d_out, rng)
        self.bn1 = BatchNorm1d(config.d_out)
        self.act1 = LeakyReLU()
        self.conv2 = Conv1d(config.d_out, config.d_out, rng)
        self.bn2 = BatchNorm1d(config.d_out)
        self.act2 = LeakyReLU()
        self.gconv = GraphConv(config.gconv_in_dim, config.g_out, config.n_cells, rng)
        self.att = AttentionPool(config.head_dim, rng)
        self.mean_pool = MeanPool()
        self.fc = Dense(config.head_dim, config.n_classes, rng)
        flags = config.ablation
        # the (name, layer) pairs that run, in forward order
        self.chain = (
            ([("conv1", self.conv1), ("bn1", self.bn1), ("act1", self.act1),
              ("conv2", self.conv2), ("bn2", self.bn2), ("act2", self.act2)]
             if "a" in flags else [])
            + ([("gconv", self.gconv)] if "b" in flags else [])
            + [("att", self.att) if "c" in flags else ("mean_pool", self.mean_pool)]
            + [("fc", self.fc)]
        )
        self._logits = None
        self._batch_size = None
        self.step_count = 0

    # -- parameters ----------------------------------------------------

    def _layers(self):
        yield "conv1", self.conv1
        yield "bn1", self.bn1
        yield "conv2", self.conv2
        yield "bn2", self.bn2
        yield "gconv", self.gconv
        yield "att", self.att
        yield "fc", self.fc

    def tensors(self):
        """All trainable (name, param, grad) triples in a fixed order."""
        for prefix, layer in self._layers():
            yield from layer.tensors(prefix)

    def state_arrays(self) -> dict:
        """Every persistent tensor (parameters plus BN running stats), by name."""
        state = {name: param for name, param, _ in self.tensors()}
        for prefix, layer in self._layers():
            if isinstance(layer, BatchNorm1d):
                state[f"{prefix}.running_mean"] = layer.running_mean
                state[f"{prefix}.running_var"] = layer.running_var
        return state

    # -- forward / backward ---------------------------------------------

    def forward_batch(self, amplitudes: np.ndarray, training: bool = False) -> np.ndarray:
        """Log class probabilities for a (batch x n_cells) amplitude stack."""
        amps = np.asarray(amplitudes, dtype=np.float64)
        if amps.ndim != 2:
            raise ShapeError(f"expected (batch, n_cells) amplitudes, got shape {amps.shape}")
        if amps.shape[1] != self.config.n_cells:
            raise ShapeError(
                f"samples have {amps.shape[1]} cells, model is configured for {self.config.n_cells}"
            )
        x = amps[:, None, :]
        for name, layer in self.chain:
            if name == "gconv":  # the amplitudes define the graph conv's adjacency
                x = layer.forward(x, amps, training)
            else:
                x = layer.forward(x, training)
        self._logits = x
        self._batch_size = amps.shape[0]
        return log_softmax(x, axis=1)

    def backward(self, labels: np.ndarray) -> None:
        """Fill gradient slots with d(mean NLL)/d(params) for the cached forward."""
        if self._logits is None:
            raise UsageError("backward called before forward")
        labels = np.asarray(labels)
        if labels.shape != (self._batch_size,):
            raise UsageError(
                f"labels shape {labels.shape} does not match forward batch size {self._batch_size}"
            )
        self._check_labels(labels)
        # d(mean NLL over batch)/d(logits) = (softmax - one-hot labels) / batch
        g = softmax(self._logits, axis=1)
        g[np.arange(self._batch_size), labels] -= 1.0
        g /= self._batch_size
        for _, layer in reversed(self.chain):
            g = layer.backward(g)

    def _check_labels(self, labels: np.ndarray) -> None:
        if labels.size and (labels.min() < 0 or labels.max() >= self.config.n_classes):
            raise UsageError(
                f"labels must lie in [0, {self.config.n_classes}), got range "
                f"[{labels.min()}, {labels.max()}]"
            )

    def loss_batch(self, log_probs: np.ndarray, labels: np.ndarray) -> float:
        """Mean cross-entropy over the batch: mean of -log_probs[label]."""
        labels = np.asarray(labels)
        self._check_labels(labels)
        return float(-log_probs[np.arange(labels.shape[0]), labels].mean())

    # -- inference -------------------------------------------------------

    def predict_batch(self, amplitudes: np.ndarray) -> np.ndarray:
        """Class indices (eval mode); ties resolve to the lowest index."""
        log_probs = self.forward_batch(amplitudes, training=False)
        return np.argmax(log_probs, axis=1)

    # -- checkpointing ----------------------------------------------------

    def save(self, path) -> None:
        """Write a self-describing JSON checkpoint; round-trips bit-exactly."""
        tensors = {
            name: {"shape": list(arr.shape), "data": [float(v) for v in arr.ravel()]}
            for name, arr in self.state_arrays().items()
        }
        payload = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "config": asdict(self.config),
            "step": self.step_count,
            "tensors": tensors,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "GraphClassifier":
        payload = read_json(path, "checkpoint")
        if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
            found = repr(payload.get("format")) if isinstance(payload, dict) else type(payload).__name__
            raise DataFormatError(f"{path} is not a model checkpoint (format={found})")
        if payload.get("version") != CHECKPOINT_VERSION:
            raise DataFormatError(f"checkpoint {path} has version {payload.get('version')!r}, "
                                  f"only version {CHECKPOINT_VERSION} can be read")
        try:
            config, stored, step = payload["config"], payload["tensors"], payload["step"]
        except KeyError as exc:
            raise DataFormatError(f"checkpoint {path} is missing field {exc}") from exc
        if not isinstance(config, dict):
            raise DataFormatError(
                f"checkpoint {path}: config must be a JSON object, got {type(config).__name__}"
            )
        unknown = sorted(set(config) - {f.name for f in fields(ModelConfig)})
        if unknown:
            raise DataFormatError(f"checkpoint {path} has unknown config fields {unknown}")
        if type(step) is not int or step < 0:
            raise DataFormatError(
                f"checkpoint {path}: step must be a nonnegative integer, got {step!r}"
            )
        if not isinstance(stored, dict):
            raise DataFormatError(
                f"checkpoint {path}: tensors must be a JSON object, got {type(stored).__name__}"
            )
        try:
            model = cls(ModelConfig(**config))
        except (TypeError, ValueError) as exc:  # ConfigError is a ValueError
            raise DataFormatError(f"checkpoint {path} has an invalid config: {exc}") from exc
        state = model.state_arrays()
        missing = sorted(set(state) - set(stored))
        if missing:
            raise DataFormatError(f"checkpoint {path} is missing tensors: {missing}")
        for name, arr in state.items():
            try:
                shape = tuple(stored[name]["shape"])
                data = np.array(stored[name]["data"], dtype=np.float64)
            except (KeyError, TypeError, ValueError) as exc:
                raise DataFormatError(f"checkpoint tensor {name} is malformed: {exc}") from exc
            if shape != arr.shape:
                raise DataFormatError(
                    f"checkpoint tensor {name} has shape {list(shape)}, expected {list(arr.shape)}"
                )
            if data.size != arr.size:
                raise DataFormatError(
                    f"checkpoint tensor {name} has {data.size} values, its shape needs {arr.size}"
                )
            if not np.all(np.isfinite(data)):
                raise DataFormatError(f"checkpoint tensor {name} has non-finite values")
            arr[...] = data.reshape(arr.shape)
        model.step_count = step
        return model

