"""Range-profile-to-graph transformation.

Each range profile becomes a fully connected graph: one node per range
cell carrying the cell amplitude as its (initially single-channel)
feature, and an N x N edge-weight matrix

    e[i, j] = h[i] * h[j] / (|i - j| + 1)

so nearby high-amplitude cells couple strongly. The +1 keeps the diagonal
finite (e[i, i] = h[i]**2) and the whole matrix is the outer product
h h^T scaled elementwise by the reciprocal cell distance, which is how
``build_adjacency`` computes it.
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
        if not np.all(np.isfinite(amps)):
            raise ConfigError("amplitudes must be finite")
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


@dataclass(frozen=True)
class FactoredAdjacency:
    """The adjacency stack in factored form: e[b, i, j] = h[b, i] r[i, j] h[b, j].

    The edge matrix is diag(h) R diag(h), so products against it never need
    the (batch, N, N) stack materialized; the whole batch shares the single
    N x N reciprocal-distance matrix R. This is the form the network runs
    on; ``build_adjacency`` is the per-sample definition it reproduces.
    """

    amplitudes: np.ndarray  # (batch, N)
    recip: np.ndarray  # (N, N)

    @property
    def batch_size(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.amplitudes.shape[1]

    def matmul_right(self, x3: np.ndarray) -> np.ndarray:
        """X @ E for a (batch, features, N) stack: ((X * h) @ R) * h."""
        if x3.shape[0] != self.batch_size or x3.shape[2] != self.n_nodes:
            raise ShapeError(
                f"features shape {x3.shape} does not match adjacency "
                f"({self.batch_size} samples, {self.n_nodes} nodes)"
            )
        h = self.amplitudes[:, None, :]
        out = (x3 * h) @ self.recip
        out *= h
        return out


def factored_adjacency_batch(amplitudes: np.ndarray) -> FactoredAdjacency:
    """Factored adjacency for a (batch, N) amplitude stack."""
    h = np.asarray(amplitudes, dtype=np.float64)
    if h.ndim != 2:
        raise ShapeError(f"expected (batch, N) amplitudes, got shape {h.shape}")
    return FactoredAdjacency(h, reciprocal_distance(h.shape[1]))
