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
enabled stage produces. With module b on, the graph convolution and the
pooling after it run as one layer (``layers.GraphConv``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .data import check_seed, read_json, write_json
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
CHECKPOINT_VERSION = 5


# The seven legal configurations, in the canonical reporting order.
ABLATION_ORDER = ("a", "b", "c", "ab", "ac", "bc", "abc")

# rows per pass through the chain in eval mode: the training batch size, small
# enough that each layer's temporaries stay in cache
_EVAL_BLOCK = 32


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
        return self.g_out if "b" in self.ablation else self.gconv_in_dim


class GraphClassifier:
    """The network of one ablation row: its layers, their tensors, and the wiring.

    Parameters are drawn deterministically from one generator seeded with
    ``config.seed``, layer by layer in a fixed order (conv1, conv2, gconv,
    the attention scores, fc) whatever the row: weights
    uniform(-sqrt(1/fan_in), +sqrt(1/fan_in)), gconv and fc biases zero, BN
    gamma 1 / beta 0 with running stats (0, 1). So a tensor starts the same
    in every row that has it. The scores are gconv's own with modules b and
    c, and att's otherwise. The model holds only the layers in ``chain``;
    the attribute of a dropped layer is None. Sizes too large to allocate
    are a ConfigError.
    """

    def __init__(self, config: ModelConfig):
        self.config = config
        rng = np.random.default_rng(config.seed)
        flags = config.ablation
        gconv_scores = "b" in flags and "c" in flags
        try:
            built = {
                "conv1": Conv1d(1, config.d_out, rng),
                "bn1": BatchNorm1d(config.d_out),
                "act1": LeakyReLU(),
                "conv2": Conv1d(config.d_out, config.d_out, rng),
                "bn2": BatchNorm1d(config.d_out),
                "act2": LeakyReLU(),
                "gconv": GraphConv(config.gconv_in_dim, config.g_out, config.n_cells, rng,
                                   attention=gconv_scores),
                # every row draws one score vector, between gconv's weights and fc's
                "att": None if gconv_scores else AttentionPool(config.head_dim, rng),
                "mean_pool": MeanPool(),
                "fc": Dense(config.head_dim, config.n_classes, rng),
            }
        except (ValueError, MemoryError) as exc:  # numpy's "array is too big" is a ValueError
            raise ConfigError(f"model widths must be small enough to allocate, got d_out="
                              f"{config.d_out}, g_out={config.g_out}, n_classes={config.n_classes}"
                              f": {exc}") from None
        readout = "gconv" if "b" in flags else "att" if "c" in flags else "mean_pool"
        # the (name, layer) pairs that run, in forward order, which is checkpoint order
        self.chain = [(name, built[name]) for name in
                      (["conv1", "bn1", "act1", "conv2", "bn2", "act2"] if "a" in flags else [])
                      + [readout, "fc"]]
        kept = dict(self.chain)
        for name in built:
            setattr(self, name, kept.get(name))
        self._logits = None
        self.step_count = 0

    # -- parameters ----------------------------------------------------

    def tensors(self):
        """The row's trainable (name, param, grad) triples, in checkpoint order."""
        for prefix, layer in self.chain:
            yield from layer.tensors(prefix)

    def state_arrays(self) -> dict:
        """Every persistent tensor by name: the parameters, then each layer's ``BUFFERS``."""
        state = {name: param for name, param, _ in self.tensors()}
        for prefix, layer in self.chain:
            state.update((f"{prefix}.{name}", getattr(layer, name)) for name in layer.BUFFERS)
        return state

    # -- forward / backward ---------------------------------------------

    def forward_batch(self, amplitudes: np.ndarray, training: bool = False) -> np.ndarray:
        """Log class probabilities for a (batch x n_cells) amplitude stack.

        The mode is decided here; layers take none. Training mode runs the
        whole batch through the chain in one pass, because BatchNorm needs
        its batch statistics, and keeps the logits for ``backward``. Eval
        mode is exact per sample, so it runs the rows ``_EVAL_BLOCK`` at a
        time: each row gets what its block alone would give, and each
        BatchNorm runs only as its ``eval_affine()``, folded into the conv
        before it. The layer caches then hold only the last block, so
        ``backward`` is refused until the next training-mode call. The
        readout's ``alpha`` after an eval pass covers the last block only.
        """
        amps = np.asarray(amplitudes, dtype=np.float64)
        if amps.ndim != 2:
            raise ShapeError(f"expected (batch, n_cells) amplitudes, got shape {amps.shape}")
        if amps.shape[1] != self.config.n_cells:
            raise ShapeError(
                f"samples have {amps.shape[1]} cells, model is configured for {self.config.n_cells}"
            )
        self._logits = None  # until a training-mode pass completes
        # an empty batch still makes one (empty) pass
        blocks = [amps] if training else [
            amps[i : i + _EVAL_BLOCK] for i in range(0, max(len(amps), 1), _EVAL_BLOCK)
        ]
        logits = np.concatenate([self._run_chain(block, training) for block in blocks])
        if training:
            self._logits = logits
        return log_softmax(logits, axis=1)

    def _run_chain(self, amps: np.ndarray, training: bool) -> np.ndarray:
        """Logits of the enabled layers for a checked (batch, n_cells) stack."""
        x = amps[:, None, :]
        for i, (name, layer) in enumerate(self.chain):
            if name == "gconv":  # the amplitudes define the graph conv's adjacency
                x = layer.forward(x, amps)
            elif training or not isinstance(layer, (Conv1d, BatchNorm1d)):
                x = layer.forward(x)
            elif isinstance(layer, Conv1d):  # eval: the BatchNorm after it runs inside it
                x = layer.forward(x, affine=self.chain[i + 1][1].eval_affine())
        return x

    def backward(self, labels: np.ndarray) -> None:
        """Fill gradient slots with d(mean NLL)/d(params) for the cached forward."""
        if self._logits is None:
            raise UsageError("backward needs a training-mode forward")
        batch_size = self._logits.shape[0]
        labels = np.asarray(labels)
        if labels.shape != (batch_size,):
            raise UsageError(
                f"labels shape {labels.shape} does not match forward batch size {batch_size}"
            )
        self._check_labels(labels)
        # d(mean NLL over batch)/d(logits) = (softmax - one-hot labels) / batch
        g = softmax(self._logits, axis=1)
        g[np.arange(batch_size), labels] -= 1.0
        g /= batch_size
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

    # -- checkpointing ----------------------------------------------------

    def save(self, path) -> None:
        """Write a self-describing JSON checkpoint; round-trips bit-exactly."""
        tensors = {
            name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in self.state_arrays().items()
        }
        payload = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "config": asdict(self.config),
            "step": self.step_count,
            "tensors": tensors,
        }
        write_json(path, payload)

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
        unknown = sorted(set(stored) - set(state))
        if unknown:
            raise DataFormatError(f"checkpoint {path} has unknown tensors: {unknown}")
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

