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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError, DataFormatError, ShapeError, UsageError
from .graphgen import factored_adjacency_batch
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


@dataclass(frozen=True)
class AblationConfig:
    """Which of the three network modules are active."""

    local_conv: bool = True
    graph_conv: bool = True
    attention: bool = True

    def __post_init__(self):
        if not (self.local_conv or self.graph_conv or self.attention):
            raise ConfigError("at least one of local_conv/graph_conv/attention must be enabled")

    @classmethod
    def from_flags(cls, flags: str) -> "AblationConfig":
        """Parse a subset of "abc": a=local conv, b=graph conv, c=attention."""
        unknown = set(flags) - set("abc")
        if unknown:
            raise ConfigError(f"unknown ablation flags {sorted(unknown)}; use a subset of 'abc'")
        if len(set(flags)) != len(flags):
            raise ConfigError(f"duplicate ablation flags in {flags!r}")
        return cls("a" in flags, "b" in flags, "c" in flags)

    @property
    def flags(self) -> str:
        return ("a" if self.local_conv else "") + ("b" if self.graph_conv else "") + (
            "c" if self.attention else ""
        )


# The seven legal configurations, in the canonical reporting order.
ABLATION_ORDER = ("a", "b", "c", "ab", "ac", "bc", "abc")


@dataclass(frozen=True)
class ModelConfig:
    n_cells: int
    n_classes: int
    d_out: int = 16
    g_out: int = 32
    leaky_slope: float = 0.01
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1
    per_node_bias: bool = True
    ablation: AblationConfig = field(default_factory=AblationConfig)
    seed: int = 0

    def __post_init__(self):
        if self.n_cells < 3:
            raise ConfigError(f"n_cells must be >= 3 (conv kernel width), got {self.n_cells}")
        for name in ("d_out", "g_out", "n_classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ConfigError(f"leaky_slope must lie in (0, 1), got {self.leaky_slope}")

    @property
    def gconv_in_dim(self) -> int:
        return self.d_out if self.ablation.local_conv else 1

    @property
    def head_dim(self) -> int:
        if self.ablation.graph_conv:
            return self.g_out
        return self.d_out if self.ablation.local_conv else 1

    def to_dict(self) -> dict:
        return {
            "n_cells": self.n_cells,
            "n_classes": self.n_classes,
            "d_out": self.d_out,
            "g_out": self.g_out,
            "leaky_slope": self.leaky_slope,
            "bn_eps": self.bn_eps,
            "bn_momentum": self.bn_momentum,
            "per_node_bias": self.per_node_bias,
            "ablation": self.ablation.flags,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["ablation"] = AblationConfig.from_flags(d.get("ablation", "abc"))
        return cls(**d)


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


class GraphClassifier:
    """The network with all parameter tensors, gradient slots, and wiring.

    Parameters are initialized deterministically from ``config.seed``:
    weights uniform(-sqrt(1/fan_in), +sqrt(1/fan_in)), biases zero, BN
    gamma 1 / beta 0 with running stats (0, 1). Every layer is always
    constructed (so checkpoints have a stable tensor set for a given
    config) but disabled layers never run and their gradients stay zero.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        self.step_count = 0
        self.conv1 = Conv1d(1, config.d_out)
        self.bn1 = BatchNorm1d(config.d_out, config.bn_eps, config.bn_momentum)
        self.act1 = LeakyReLU(config.leaky_slope)
        self.conv2 = Conv1d(config.d_out, config.d_out)
        self.bn2 = BatchNorm1d(config.d_out, config.bn_eps, config.bn_momentum)
        self.act2 = LeakyReLU(config.leaky_slope)
        self.gconv = GraphConv(
            config.gconv_in_dim, config.g_out, config.n_cells, config.per_node_bias
        )
        self.att = AttentionPool(config.head_dim)
        self.mean_pool = MeanPool()
        self.fc = Dense(config.head_dim, config.n_classes)
        self._logits = None
        self._batch_size = None
        self.init_params(config.seed)

    # -- parameters ----------------------------------------------------

    def init_params(self, seed: int) -> None:
        """Reset all parameters deterministically; same seed, same tensors."""
        rng = np.random.default_rng(seed)
        # Fixed draw order keeps initialization reproducible.
        for layer in (self.conv1, self.bn1, self.conv2, self.bn2, self.gconv, self.att, self.fc):
            layer.init(rng)
        self.step_count = 0

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

    def zero_grads(self) -> None:
        for _, param, grad in self.tensors():
            grad[...] = 0.0

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
        ab = self.config.ablation
        x = amps[:, None, :]
        if ab.local_conv:
            x = self.act1.forward(self.bn1.forward(self.conv1.forward(x, training), training))
            x = self.act2.forward(self.bn2.forward(self.conv2.forward(x, training), training))
        if ab.graph_conv:
            x = self.gconv.forward(x, factored_adjacency_batch(amps), training)
        if ab.attention:
            pooled = self.att.forward(x, training)
        else:
            pooled = self.mean_pool.forward(x, training)
        logits = self.fc.forward(pooled, training)
        self._logits = logits
        self._batch_size = amps.shape[0]
        return log_softmax(logits, axis=1)

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
        self.zero_grads()
        # d(mean NLL over batch)/d(logits) = (softmax - one_hot) / batch
        probs = softmax(self._logits, axis=1)
        g = (probs - one_hot(labels, self.config.n_classes)) / self._batch_size
        g = self.fc.backward(g)
        ab = self.config.ablation
        g = self.att.backward(g) if ab.attention else self.mean_pool.backward(g)
        if ab.graph_conv:
            g = self.gconv.backward(g)
        if ab.local_conv:
            g = self.conv2.backward(self.bn2.backward(self.act2.backward(g)))
            g = self.conv1.backward(self.bn1.backward(self.act1.backward(g)))

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
            "version": 1,
            "config": self.config.to_dict(),
            "step": self.step_count,
            "tensors": tensors,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "GraphClassifier":
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
            found = repr(payload.get("format")) if isinstance(payload, dict) else type(payload).__name__
            raise DataFormatError(f"{path} is not a model checkpoint (format={found})")
        try:
            unknown = sorted(set(payload["config"]) - {f.name for f in fields(ModelConfig)})
            if unknown:
                raise DataFormatError(f"checkpoint {path} has unknown config fields {unknown}")
            model = cls(ModelConfig.from_dict(payload["config"]))
            stored = payload["tensors"]
            step = int(payload["step"])
        except (KeyError, TypeError) as exc:
            raise DataFormatError(f"checkpoint {path} is missing field {exc}") from exc
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


def with_ablation(config: ModelConfig, flags: str) -> ModelConfig:
    """The same config rewired for a different module subset."""
    return replace(config, ablation=AblationConfig.from_flags(flags))
