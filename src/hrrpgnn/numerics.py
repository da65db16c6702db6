"""Numerically stable softmax and log-softmax.

The array carrier throughout the package is a row-major (C-order)
``numpy.ndarray`` of ``float64``. Every function here is a pure function of
its inputs; gradient checks elsewhere rely on the ~1e-4 relative tolerances
that only double precision delivers, so inputs are always promoted to
float64.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError


def _check_finite(v: np.ndarray, what: str) -> None:
    bad = v.size - np.count_nonzero(np.isfinite(v))
    if bad:
        raise NumericError(
            f"{what} requires finite input, got {bad} non-finite entries in shape {v.shape}"
        )


def softmax(v, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis`` (max-subtraction applied unconditionally).

    Output entries lie in (0, 1] and sum to 1 along the axis.
    """
    v = np.asarray(v, dtype=np.float64)
    _check_finite(v, "softmax")
    shifted = v - np.max(v, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(v, axis: int = -1) -> np.ndarray:
    """Stable log-softmax: v - max(v) - log(sum(exp(v - max(v))))."""
    v = np.asarray(v, dtype=np.float64)
    _check_finite(v, "log_softmax")
    shifted = v - np.max(v, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
