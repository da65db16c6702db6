"""The graph of a range profile.

Each profile becomes a fully connected graph with one node per range cell,
carrying the cell amplitude, and the N x N edge weights

    e[i, j] = h[i] * h[j] / (|i - j| + 1)

so nearby high-amplitude cells couple strongly; the +1 keeps the diagonal
finite. E is h h^T scaled elementwise by the reciprocal distances R below;
``layers.GraphConv`` applies it in that factored form and never forms E.
"""

import numpy as np


def reciprocal_distance(n_cells: int) -> np.ndarray:
    """The N x N matrix R of 1 / (|i - j| + 1) factors (index-unit distances)."""
    idx = np.arange(n_cells, dtype=np.float64)
    return 1.0 / (np.abs(idx[:, None] - idx[None, :]) + 1.0)
