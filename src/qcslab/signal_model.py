"""Sparse signals, sensing matrices, and the noisy measurement model.

The acquisition chain is y = Phi (x + n) with a K-sparse signal x and
white signal noise n of per-entry variance sigma_n2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, InvalidParameterError, QcsLabError, check_entries


@dataclass(frozen=True)
class SparseSignal:
    """Ground-truth sparse vector with its support, as gen_sparse_signal draws it."""

    values: np.ndarray
    support: np.ndarray


@dataclass(frozen=True)
class SensingMatrix:
    """Read-only M x N dense measurement operator."""

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.ndim != 2:
            raise InvalidParameterError(f"entries must be 2-D, not {entries.shape}")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


# n is capped by numpy's longest float64 array, far below the largest float.
_MAX_N = np.iinfo(np.intp).max // 8


def check_signal(n: int, k: int, sigma_x2: float) -> None:
    """Reject, naming the field, a signal model outside 1 <= k <= n <= _MAX_N
    and 0 < sigma_x2 with k * sigma_x2 finite, so that no later formula (n
    times a budget multiplier, an ISNR's noise variance) overflows on it."""
    if n < 1:
        raise ConfigError("n", "must be >= 1")
    if n > _MAX_N:
        raise ConfigError("n", f"must be at most {_MAX_N}, numpy's longest float64 array")
    if not 1 <= k <= n:
        raise ConfigError("k", "must satisfy 1 <= k <= n")
    if not 0 < sigma_x2 < math.inf:
        raise ConfigError("sigma_x2", "must be positive and finite")
    if k * sigma_x2 == math.inf:
        raise ConfigError("sigma_x2", f"makes k * sigma_x2 overflow at k = {k}")


def gen_sparse_signal(
    n: int, k: int, sigma_x2: float, rng: np.random.Generator
) -> SparseSignal:
    """Draw a K-sparse signal with a uniform random support.

    Nonzero amplitudes are independent N(0, sigma_x2), so the expected
    signal energy is k * sigma_x2.
    """
    check_signal(n, k, sigma_x2)
    support = np.sort(rng.choice(n, size=k, replace=False))
    values = np.zeros(n)
    values[support] = math.sqrt(sigma_x2) * rng.standard_normal(k)
    return SparseSignal(values=values, support=support)


def sigma_n_for_isnr(k: int, sigma_x2: float, n: int, isnr_db: float) -> float:
    """Signal-noise variance giving the requested input SNR in dB.

    Inverts isnr = 10 log10(k sigma_x2 / (n sigma_n2)); an ISNR of +inf
    maps to zero noise. After check_signal, an ISNR with no finite noise
    variance (NaN, -inf, or so low that it overflows) raises ConfigError.
    """
    check_signal(n, k, sigma_x2)
    if isnr_db == math.inf:
        return 0.0
    try:
        sigma_n2 = (k * sigma_x2 / n) * 10.0 ** (-isnr_db / 10.0)
    except OverflowError:
        sigma_n2 = math.inf
    if not math.isfinite(sigma_n2):
        raise ConfigError("isnr", f"ISNR {isnr_db!r} dB gives no finite noise variance")
    return sigma_n2


def check_isnr_list(field: str, isnr_list, n: int, k: int, sigma_x2: float) -> None:
    """Reject a signal model that check_signal refuses, then an ISNR list
    that is empty, repeats an ISNR or holds one with no finite noise
    variance (sigma_n_for_isnr); the ConfigError of the list names field."""
    check_signal(n, k, sigma_x2)
    for isnr in isnr_list:
        try:
            sigma_n_for_isnr(k, sigma_x2, n, isnr)
        except ConfigError as exc:
            raise ConfigError(field, exc.message) from exc
    check_entries(field, isnr_list)


def empty_matrix(m: int, n: int) -> np.ndarray:
    """An uninitialized m x n float64 array.

    A shape too large for numpy to represent raises MemoryError naming
    it, as one too large to allocate does.
    """
    try:
        return np.empty((m, n))
    except ValueError as exc:
        raise MemoryError(f"matrix ({m}, {n}): {exc}") from None


def gen_gaussian_matrix(
    m: int,
    n: int,
    rng: np.random.Generator,
    out: Optional[np.ndarray] = None,
) -> SensingMatrix:
    """I.i.d. Gaussian sensing matrix with per-entry variance 1/m.

    With out, a C-contiguous float64 array of at least m rows and n
    columns, the entries are drawn into out[:m]: the result aliases out,
    so it is valid only until out is written again. Without out they go
    into a fresh empty_matrix(m, n); the draws are the same either way.
    """
    if m < 1 or n < 1:
        raise InvalidParameterError("matrix dimensions must be >= 1")
    if out is None:
        out = empty_matrix(m, n)
    elif out.ndim != 2 or out.shape[0] < m or out.shape[1] != n:
        raise InvalidParameterError(
            f"out must have at least {m} rows and {n} columns, not shape {out.shape}"
        )
    entries = rng.standard_normal(out=out[:m])
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
        raise QcsLabError("input matrix is rank deficient")
    entries = math.sqrt(n / m) * q.T
    return SensingMatrix(entries)


def measure(phi: SensingMatrix, x: np.ndarray) -> np.ndarray:
    """Measurements Phi x; noisy ones are measure(phi, x) + measure(phi, n)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (phi.cols,):
        raise InvalidParameterError(
            f"signal length {x.shape} != matrix cols {phi.cols}"
        )
    return phi.entries @ x
