"""Sparse signals, sensing matrices, and the noisy measurement model.

The acquisition chain is y = Phi (x + n) with a K-sparse signal x and
white signal noise n of per-entry variance sigma_n2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateMatrixError,
    DimensionMismatchError,
    InvalidParameterError,
)


@dataclass(frozen=True)
class SparseSignal:
    """Ground-truth sparse vector with its support."""

    values: np.ndarray
    support: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        support = np.asarray(self.support, dtype=int)
        if values.ndim != 1:
            raise InvalidParameterError("values must be a vector")
        if support.ndim != 1:
            raise InvalidParameterError("support must be a vector of indices")
        if len(np.unique(support)) != support.size:
            raise InvalidParameterError("support indices must be distinct")
        if support.size and (support.min() < 0 or support.max() >= values.size):
            raise InvalidParameterError("support indices out of range")
        off = np.setdiff1d(np.arange(values.size), support)
        if off.size and np.any(values[off] != 0.0):
            raise InvalidParameterError("values must vanish off the support")
        values.flags.writeable = False
        support.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "support", support)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.support.shape[0]


@dataclass(frozen=True)
class SensingMatrix:
    """Read-only M x N dense measurement operator."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2:
            raise DimensionMismatchError(f"entries must be 2-D, not {entries.shape}")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


def gen_sparse_signal(
    n: int, k: int, sigma_x2: float, rng: np.random.Generator
) -> SparseSignal:
    """Draw a K-sparse signal with a uniform random support.

    Nonzero amplitudes are independent N(0, sigma_x2), so the expected
    signal energy is k * sigma_x2.
    """
    if k < 1 or k > n:
        raise InvalidParameterError(f"sparsity k={k} must satisfy 1 <= k <= n={n}")
    if sigma_x2 <= 0:
        raise InvalidParameterError("sigma_x2 must be positive")
    support = np.sort(rng.choice(n, size=k, replace=False))
    values = np.zeros(n)
    values[support] = math.sqrt(sigma_x2) * rng.standard_normal(k)
    return SparseSignal(values=values, support=support)


def sigma_n_for_isnr(k: int, sigma_x2: float, n: int, isnr_db: float) -> float:
    """Signal-noise variance giving the requested input SNR in dB.

    Inverts isnr = 10 log10(k sigma_x2 / (n sigma_n2)); an ISNR of +inf
    maps to zero noise. An ISNR with no finite noise variance (NaN, -inf,
    or so low that the variance overflows) is rejected.
    """
    if k < 1 or n < 1 or sigma_x2 <= 0:
        raise InvalidParameterError("k, n, sigma_x2 must be positive")
    if isnr_db == math.inf:
        return 0.0
    try:
        sigma_n2 = (k * sigma_x2 / n) * 10.0 ** (-isnr_db / 10.0)
    except OverflowError:
        sigma_n2 = math.inf
    if not math.isfinite(sigma_n2):
        raise InvalidParameterError(
            f"ISNR {isnr_db!r} dB gives no finite noise variance"
        )
    return sigma_n2


def gen_gaussian_matrix(
    m: int,
    n: int,
    rng: np.random.Generator,
    out: Optional[np.ndarray] = None,
) -> SensingMatrix:
    """I.i.d. Gaussian sensing matrix with per-entry variance 1/m.

    With out, a float64 vector of at least m*n entries, the entries are
    drawn into its first m*n: the result aliases out, so it is valid only
    until out is written again. The draws are the same as without out.
    """
    if m < 1 or n < 1:
        raise InvalidParameterError("matrix dimensions must be >= 1")
    if out is None:
        entries = rng.standard_normal((m, n))
    elif out.ndim != 1 or out.size < m * n:
        raise InvalidParameterError(
            f"out must be a vector of at least {m * n} entries, not {out.shape}"
        )
    else:
        entries = rng.standard_normal(out=out[: m * n].reshape(m, n))
    entries /= math.sqrt(m)
    return SensingMatrix(entries)


def make_tight_frame(phi: SensingMatrix) -> SensingMatrix:
    """Project a full-row-rank matrix onto the tight-frame manifold.

    Rows are orthonormalized with a QR factorization of the transpose and
    rescaled so that Phi Phi^T = (N/M) I. The row space is preserved.
    """
    m, n = phi.rows, phi.cols
    if m > n:
        raise InvalidParameterError("tight frame requires rows <= cols")
    q, r = np.linalg.qr(phi.entries.T)
    diag = np.abs(np.diag(r))
    if diag.min() <= n * np.finfo(float).eps * max(diag.max(), 1e-300):
        raise DegenerateMatrixError("input matrix is rank deficient")
    entries = math.sqrt(n / m) * q.T
    return SensingMatrix(entries)


def measure(phi: SensingMatrix, x: np.ndarray) -> np.ndarray:
    """Measurements Phi x; noisy ones are measure(phi, x) + measure(phi, n)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (phi.cols,):
        raise DimensionMismatchError(
            f"signal length {x.shape} != matrix cols {phi.cols}"
        )
    return phi.entries @ x
