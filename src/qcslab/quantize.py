"""Scalar quantizers: uniform midpoint, Lloyd-Max, and 1-bit sign.

The uniform quantizer partitions [-T, T] into 2^B equal cells of width
Delta = T * 2^(1-B) and maps to cell midpoints, so any input inside the
range incurs error at most Delta/2. The Lloyd-Max design solves the
centroid and nearest-neighbor conditions for a zero-mean Gaussian source
from closed-form cell moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import DegenerateRangeError, InvalidParameterError

MAX_BITS = 32
# lloyd_max's stopping rule: the largest nearest-neighbor residual of the
# unit-variance design, and the cap on Newton steps.
_LLOYD_TOL = 1e-10
_LLOYD_MAX_ITER = 500


@dataclass(frozen=True)
class LloydMaxSpec:
    """Codebook of an MSE-optimal scalar quantizer (levels and thresholds)."""

    levels: np.ndarray
    thresholds: np.ndarray
    converged: bool = True
    iterations: int = 0
    mse: float = float("nan")

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=float)
        thresholds = np.asarray(self.thresholds, dtype=float)
        if levels.ndim != 1 or thresholds.ndim != 1:
            raise InvalidParameterError("levels and thresholds must be vectors")
        if thresholds.shape[0] != levels.shape[0] - 1:
            raise InvalidParameterError("need exactly len(levels)-1 thresholds")
        if np.any(np.diff(thresholds) <= 0) or np.any(np.diff(levels) <= 0):
            raise InvalidParameterError("levels/thresholds must be strictly increasing")
        levels.flags.writeable = False
        thresholds.flags.writeable = False
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "thresholds", thresholds)


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


_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _half_line_moments(edges: np.ndarray):
    """Density at the edges and N(0, 1) moments of the cells [e_i, e_i+1].

    Edges start at 0 and end at +inf. Returns the density at every edge,
    then each cell's mass Phi(b) - Phi(a), taken from upper tails (erfc),
    first moment phi(a) - phi(b) and second moment mass + a phi(a) - b phi(b).
    """
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * edges * edges)
    tail = np.array([0.5 * math.erfc(u / math.sqrt(2.0)) for u in edges.tolist()])
    lo, hi = edges[:-1], edges[1:]
    mass = tail[:-1] - tail[1:]
    first = -pdf[:-1] * np.expm1(-0.5 * (hi - lo) * (hi + lo))
    edge_term = np.append(lo * pdf[:-1], 0.0)
    second = mass + edge_term[:-1] - edge_term[1:]
    return pdf, mass, first, second


def _solve_tridiagonal(sub, diag, sup, rhs) -> np.ndarray:
    """Thomas algorithm: sub[i] and sup[i] couple rows i+1, i and i, i+1.

    No pivoting: the Lloyd-Max Jacobian is diagonally dominant, because a
    cell centroid of a log-concave density moves less than its edges.
    """
    sub, diag, sup, out = sub.tolist(), diag.tolist(), sup.tolist(), rhs.tolist()
    for i in range(len(sub)):
        w = sub[i] / diag[i]
        diag[i + 1] -= w * sup[i]
        out[i + 1] -= w * out[i]
    out[-1] /= diag[-1]
    for i in range(len(sub) - 1, -1, -1):
        out[i] = (out[i] - sup[i] * out[i + 1]) / diag[i]
    return np.array(out)


def lloyd_max(b: int, sigma2: float) -> LloydMaxSpec:
    """Design the MSE-optimal 2^b-level quantizer for N(0, sigma2).

    The codebook is odd-symmetric, so only the 2^(b-1) positive cells are
    designed. Each iteration takes the cell centroids and the residual of
    the nearest-neighbor condition t_j = (c_j + c_(j+1)) / 2, then a
    Newton step on the thresholds; its Jacobian is tridiagonal, with
    dc/da = phi(a) (c - a) / mass and dc/db = phi(b) (b - c) / mass.
    The Panter-Dite thresholds (equal-mass cells of N(0, 3 sigma2)) start
    the iteration; from there the undamped step keeps the thresholds
    ordered at every supported b (checked for b = 1..16). It stops once
    every residual is at most _LLOYD_TOL * sigma, about five iterations; a
    residual relative to the level spacing would stall above 1e-10 from
    b = 12 on, where Phi(b) - Phi(a) rounds away a narrow cell's mass.
    After _LLOYD_MAX_ITER iterations the last iterate is returned with
    converged=False.
    """
    if b < 1:
        raise InvalidParameterError("bits must be >= 1")
    if b > 16:
        raise InvalidParameterError("lloyd_max supports at most 16 bits")
    if sigma2 <= 0:
        raise InvalidParameterError("sigma2 must be positive")
    sigma = math.sqrt(sigma2)
    cells = 2 ** (b - 1)
    start = NormalDist(0.0, math.sqrt(3.0))
    inner = np.array([start.inv_cdf(0.5 + j / (2 * cells)) for j in range(1, cells)])
    converged = False
    for iterations in range(1, _LLOYD_MAX_ITER + 1):
        edges = np.concatenate(([0.0], inner, [math.inf]))
        pdf, mass, first, _ = _half_line_moments(edges)
        centroids = first / mass
        resid = inner - 0.5 * (centroids[:-1] + centroids[1:])
        if np.all(np.abs(resid) <= _LLOYD_TOL):
            converged = True
            break
        d_lo = pdf[:-1] * (centroids - edges[:-1]) / mass
        d_hi = pdf[1:-1] * (edges[1:-1] - centroids[:-1]) / mass[:-1]
        inner = inner - _solve_tridiagonal(
            -0.5 * d_lo[1:-1], 1.0 - 0.5 * (d_hi + d_lo[1:]), -0.5 * d_hi[1:], resid
        )
    midpoints = 0.5 * (centroids[:-1] + centroids[1:])
    _, mass, first, second = _half_line_moments(
        np.concatenate(([0.0], midpoints, [math.inf]))
    )
    c = centroids
    mse = 2.0 * sigma2 * float(np.sum(second - 2.0 * c * first + c * c * mass))
    levels = sigma * np.concatenate((-c[::-1], c))
    return LloydMaxSpec(
        levels=levels,
        thresholds=0.5 * (levels[:-1] + levels[1:]),
        converged=converged,
        iterations=iterations,
        mse=mse,
    )


def apply_codebook(v: np.ndarray, spec: LloydMaxSpec) -> np.ndarray:
    """Map each value to the level of the Lloyd-Max cell it falls in."""
    idx = np.searchsorted(spec.thresholds, np.asarray(v, dtype=float), side="right")
    return spec.levels[idx]
