"""Sparse signals, sensing matrices, and the noisy measurement model.

The acquisition chain is y = Phi (x + n) with a K-sparse signal x and
white signal noise n of per-entry variance sigma_n2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DegenerateMatrixError,
    DimensionMismatchError,
    InvalidParameterError,
)


class MatrixKind(Enum):
    IID_GAUSSIAN = "iid_gaussian"
    TIGHT_FRAME = "tight_frame"


@dataclass(frozen=True)
class SparseSignal:
    """Ground-truth sparse vector with its support and amplitude variance."""

    values: np.ndarray
    support: np.ndarray
    sigma_x2: float
    n: int
    k: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        support = np.asarray(self.support, dtype=int)
        if values.ndim != 1 or values.shape[0] != self.n:
            raise InvalidParameterError("values must be a length-n vector")
        if support.ndim != 1 or support.shape[0] != self.k:
            raise InvalidParameterError("support must hold exactly k indices")
        if len(np.unique(support)) != self.k:
            raise InvalidParameterError("support indices must be distinct")
        if support.size and (support.min() < 0 or support.max() >= self.n):
            raise InvalidParameterError("support indices out of range")
        off = np.setdiff1d(np.arange(self.n), support)
        if off.size and np.any(values[off] != 0.0):
            raise InvalidParameterError("values must vanish off the support")
        values.flags.writeable = False
        support.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "support", support)


@dataclass(frozen=True)
class SensingMatrix:
    """M x N dense measurement operator with provenance metadata."""

    rows: int
    cols: int
    entries: np.ndarray
    kind: MatrixKind

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.shape != (self.rows, self.cols):
            raise DimensionMismatchError(
                f"entries shape {entries.shape} != ({self.rows}, {self.cols})"
            )
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)


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
    return SparseSignal(values=values, support=support, sigma_x2=sigma_x2, n=n, k=k)


def sigma_n_for_isnr(k: int, sigma_x2: float, n: int, isnr_db: float) -> float:
    """Signal-noise variance giving the requested input SNR in dB.

    Inverts isnr = 10 log10(k sigma_x2 / (n sigma_n2)); an infinite ISNR
    maps to zero noise.
    """
    if k < 1 or n < 1 or sigma_x2 <= 0:
        raise InvalidParameterError("k, n, sigma_x2 must be positive")
    if math.isinf(isnr_db) and isnr_db > 0:
        return 0.0
    return (k * sigma_x2 / n) * 10.0 ** (-isnr_db / 10.0)


def isnr_db(x: SparseSignal, sigma_n2: float) -> float:
    """Input SNR in dB from expected powers k*sigma_x2 and n*sigma_n2."""
    if sigma_n2 < 0:
        raise InvalidParameterError("sigma_n2 must be nonnegative")
    if sigma_n2 == 0:
        return math.inf
    return 10.0 * math.log10(x.k * x.sigma_x2 / (x.n * sigma_n2))


def gen_gaussian_matrix(m: int, n: int, rng: np.random.Generator) -> SensingMatrix:
    """I.i.d. Gaussian sensing matrix with per-entry variance 1/m."""
    if m < 1 or n < 1:
        raise InvalidParameterError("matrix dimensions must be >= 1")
    entries = rng.standard_normal((m, n))
    entries /= math.sqrt(m)
    return SensingMatrix(rows=m, cols=n, entries=entries, kind=MatrixKind.IID_GAUSSIAN)


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
    return SensingMatrix(rows=m, cols=n, entries=entries, kind=MatrixKind.TIGHT_FRAME)


def measure(phi: SensingMatrix, x: np.ndarray) -> np.ndarray:
    """Measurements Phi x; noisy ones are measure(phi, x) + measure(phi, n)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (phi.cols,):
        raise DimensionMismatchError(
            f"signal length {x.shape} != matrix cols {phi.cols}"
        )
    return phi.entries @ x


def noise_fold_variance(n: int, m: int, sigma_n2: float) -> float:
    """Folded per-measurement noise variance (n/m) * sigma_n2, for m <= n."""
    if m < 1 or m > n:
        raise InvalidParameterError("folding law requires 1 <= m <= n")
    if sigma_n2 < 0:
        raise InvalidParameterError("sigma_n2 must be nonnegative")
    return (n / m) * sigma_n2
