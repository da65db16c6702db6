"""The graph of a range profile.

Each profile becomes a fully connected graph with one node per range cell,
carrying the cell amplitude, and the N x N edge weights

    e[i, j] = h[i] * h[j] / (|i - j| + 1)

so nearby high-amplitude cells couple strongly; the +1 keeps the diagonal
finite. E is h h^T scaled elementwise by the reciprocal distances R below;
``layers.GraphConv`` applies it in that factored form and never forms E.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def reciprocal_distance(n_cells: int) -> np.ndarray:
    """The N x N Toeplitz matrix R of 1 / (|i - j| + 1), copied once from windows of a vector."""
    r = 1.0 / (np.arange(n_cells) + 1.0)
    return sliding_window_view(np.concatenate((r[:0:-1], r)), n_cells)[::-1].copy()
