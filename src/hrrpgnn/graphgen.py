"""Range profiles and the definition of their graph.

Each range profile becomes a fully connected graph: one node per range
cell carrying the cell amplitude as its (initially single-channel)
feature, and an N x N edge-weight matrix

    e[i, j] = h[i] * h[j] / (|i - j| + 1)

so nearby high-amplitude cells couple strongly. The +1 keeps the diagonal
finite (e[i, i] = h[i]**2) and the whole matrix is the outer product
h h^T scaled elementwise by the reciprocal cell distance, which is how
``build_adjacency`` computes it. ``build_adjacency`` is the definition-level
reference; the network never materializes it and instead applies the same
product in factored form inside ``layers.GraphConv``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError


@dataclass(frozen=True)
class HrrpSample:
    """One range profile: N nonnegative cell amplitudes and a class label."""

    amplitudes: np.ndarray
    label: int

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.float64)
        if amps.ndim != 1:
            raise ShapeError(f"amplitudes must be 1-D, got ndim={amps.ndim}")
        # one pass on the hot path (false on NaN too); -0.0 passes
        if not ((amps >= 0.0) & (amps < np.inf)).all():
            if not np.isfinite(amps).all():
                raise ConfigError("amplitudes must be finite")
            raise ConfigError(f"amplitudes must be nonnegative, got {amps.min()}")
        object.__setattr__(self, "amplitudes", amps)


def reciprocal_distance(n_cells: int) -> np.ndarray:
    """The N x N matrix of 1 / (|i - j| + 1) factors (index-unit distances)."""
    idx = np.arange(n_cells, dtype=np.float64)
    return 1.0 / (np.abs(idx[:, None] - idx[None, :]) + 1.0)


def build_adjacency(amplitudes) -> np.ndarray:
    """Edge-weight matrix e[i, j] = h[i] h[j] / (|i - j| + 1).

    Computed as the outer product of the amplitude vector with itself,
    scaled elementwise by the reciprocal distance matrix.
    """
    h = np.asarray(amplitudes, dtype=np.float64)
    if h.ndim != 1 or h.shape[0] < 1:
        raise ShapeError(f"amplitudes must be a nonempty 1-D vector, got shape {h.shape}")
    return np.outer(h, h) * reciprocal_distance(h.shape[0])
