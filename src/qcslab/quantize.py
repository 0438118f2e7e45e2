"""Scalar quantizers: uniform midpoint and 1-bit sign.

The uniform quantizer partitions [-T, T] into 2^B equal cells of width
Delta = T * 2^(1-B) and maps to cell midpoints, so any input inside the
range incurs error at most Delta/2. At B = 1 a sweep takes signs instead.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateRangeError, InvalidParameterError

MAX_BITS = 32


def dynamic_range(y: np.ndarray) -> float:
    """Peak magnitude T = max |y_i| used to span the quantizer range."""
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise InvalidParameterError("dynamic_range needs a nonempty vector")
    if not np.all(np.isfinite(y)):
        raise InvalidParameterError("dynamic_range needs finite values")
    t = float(np.max(np.abs(y)))
    if t == 0.0:
        raise DegenerateRangeError("all-zero input has no usable range")
    return t


def uniform_quantize(v: np.ndarray, t: float, b: int) -> np.ndarray:
    """Quantize to cell midpoints of a 2^b uniform partition of [-t, t].

    Inputs are clamped to the range first, so outputs saturate at
    +-(t - delta/2).
    """
    if not (t > 0 and math.isfinite(t)):
        raise InvalidParameterError("range T must be positive and finite")
    if not 1 <= b <= MAX_BITS:
        raise InvalidParameterError(f"bits must be in [1, {MAX_BITS}]")
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise InvalidParameterError("uniform_quantize needs finite values")
    delta = t * 2.0 ** (1 - b)
    idx = np.floor((v + t) / delta)
    idx = np.clip(idx, 0, 2.0**b - 1)
    return -t + delta * (idx + 0.5)


def sign_quantize(v: np.ndarray) -> np.ndarray:
    """Map to {-1, +1} elementwise with sign(0) = +1."""
    v = np.asarray(v, dtype=float)
    return np.where(v >= 0, 1.0, -1.0)
