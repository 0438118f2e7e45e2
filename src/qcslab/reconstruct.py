"""Sparse reconstruction algorithms and recovery metrics.

Provides oracle-assisted least squares on a known support, an l1
minimizer subject to an l2 data-fidelity ball (solved with an adaptive
primal-dual iteration plus a final minimum-norm feasibility polish), and
binary iterative hard thresholding in its one-sided l1 and l2 variants
for sign measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import (
    DegenerateSupportError,
    DimensionMismatchError,
    InvalidParameterError,
)
from .quantize import sign_quantize
from .signal_model import SensingMatrix

RSNR_CAP_DB = 300.0


class BihtVariant(Enum):
    ONE_SIDED_L1 = "one_sided_l1"
    ONE_SIDED_L2 = "one_sided_l2"


@dataclass
class ReconResult:
    """Solver output: the estimate plus convergence diagnostics."""

    estimate: np.ndarray
    iterations: int
    converged: bool
    consistency_hamming: Optional[float] = None


def oracle_ls(phi: SensingMatrix, y: np.ndarray, support) -> np.ndarray:
    """Least-squares coefficients on the true support, zero elsewhere."""
    y = np.asarray(y, dtype=float)
    if y.shape != (phi.rows,):
        raise DimensionMismatchError("measurement length != matrix rows")
    idx = np.unique(np.asarray(support, dtype=int))
    if idx.size == 0 or idx.size > phi.rows:
        raise InvalidParameterError("support size must be in [1, rows]")
    if idx.min() < 0 or idx.max() >= phi.cols:
        raise InvalidParameterError("support indices out of range")
    sub = phi.entries[:, idx]
    sol, _, rank, _ = np.linalg.lstsq(sub, y, rcond=None)
    if rank < idx.size:
        raise DegenerateSupportError("support submatrix is rank deficient")
    x_hat = np.zeros(phi.cols)
    x_hat[idx] = sol
    return x_hat


def hard_threshold(v: np.ndarray, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries (ties go to lower indices)."""
    return _hard_threshold(np.asarray(v, dtype=float), k)[0]


def _hard_threshold(v: np.ndarray, k: int):
    """hard_threshold's output and the k indices it kept."""
    if k < 1 or k > v.size:
        raise InvalidParameterError("k must satisfy 1 <= k <= len(v)")
    if k == v.size:
        return v.copy(), np.arange(k)
    keep = np.argsort(-np.abs(v), kind="stable")[:k]
    out = np.zeros_like(v)
    out[keep] = v[keep]
    return out, keep


def _operator_norm(a: np.ndarray, iters: int = 60) -> float:
    # Deterministic power iteration on A^T A.
    v = np.ones(a.shape[1]) / math.sqrt(a.shape[1])
    est = 0.0
    for _ in range(iters):
        w = a.T @ (a @ v)
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        est = nw
        v = w / nw
    return math.sqrt(est)


def _feasibility_polish(a: np.ndarray, y: np.ndarray, x: np.ndarray, eps: float):
    """Minimal l2 correction moving x onto the fidelity ball, if reachable.

    The correction d is the minimum-norm least-squares solution of
    A d = r for the residual r = y - A x, from a Gram matrix formed here
    only: d = A^T (A A^T)^-1 r when m <= n, d = (A^T A)^-1 A^T r when
    m > n. A singular Gram matrix (rank-deficient A, such as one with a
    zero row or column) falls back to its pseudo-inverse.
    """
    r = y - a @ x
    rn = float(np.linalg.norm(r))
    if rn <= eps:
        return x, True
    wide = a.shape[0] <= a.shape[1]
    gram = a @ a.T if wide else a.T @ a
    rhs = r if wide else a.T @ r
    try:
        z = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        z = np.linalg.pinv(gram, hermitian=True) @ rhs
    d = a.T @ z if wide else z
    ad = a @ d
    proj_sq = float(ad @ ad)
    out_sq = max(rn * rn - proj_sq, 0.0)
    if proj_sq == 0.0:
        return x, False
    if eps * eps < out_sq:
        # Fidelity ball does not intersect the affine slice along d.
        return x + d, False
    t = 1.0 - math.sqrt(max(eps * eps - out_sq, 0.0) / proj_sq)
    t = min(max(t, 0.0), 1.0)
    x_new = x + t * d
    feasible = float(np.linalg.norm(y - a @ x_new)) <= eps * (1.0 + 1e-9) + 1e-12
    return x_new, feasible


# Residual balancing of the primal and dual steps (Goldstein, Esser &
# Baraniuk, arXiv:1305.0546): the initial trade factor, its decay per
# adaptation, and the residual ratio that triggers one.
_ADAPT_ALPHA0 = 0.5
_ADAPT_ETA = 0.95
_ADAPT_DELTA = 1.5
# bpdn's stopping tolerance: the relative change of the l1 objective that
# counts as stationary; a thousandth of it is the residual test's slack.
_STOP_TOL = 1e-6


def bpdn(
    phi: SensingMatrix,
    y: np.ndarray,
    eps: float,
    max_iter: int = 2000,
) -> ReconResult:
    """Minimize ||x||_1 subject to ||y - Phi x||_2 <= eps.

    Runs the Chambolle-Pock primal-dual iteration on the constrained
    form with adaptive steps: tau * sigma stays (0.99 / ||Phi||)^2, and
    every 10 iterations tau is traded against sigma to balance the
    primal residual ||x - x+|| / tau against the dual residual
    ||(p - p+) / sigma + Phi x_bar - Phi x+|| (Goldstein, Esser &
    Baraniuk). Phi x is kept current, so each iteration makes one
    product with Phi and one with Phi^T. The iteration stops when the l1
    objective is stationary and the residual is within eps (1 + 1e-3).
    A final minimum-norm polish then moves the iterate onto the fidelity
    ball; a converged result is stationary and has
    ||y - Phi x|| <= eps (1 + 1e-9) + 1e-12, checked against the full Phi
    and y.
    """
    if max_iter < 1:
        raise InvalidParameterError("max_iter must be >= 1")
    if eps < 0:
        raise InvalidParameterError("eps must be nonnegative")
    a = phi.entries
    y = np.asarray(y, dtype=float)
    if y.shape != (phi.rows,):
        raise DimensionMismatchError("measurement length != matrix rows")

    if np.linalg.norm(y) <= eps:
        return ReconResult(
            estimate=np.zeros(phi.cols), iterations=0, converged=True
        )

    lip = _operator_norm(a)
    if lip == 0.0:
        return ReconResult(
            estimate=np.zeros(phi.cols), iterations=0, converged=False
        )
    tau = 0.99 / lip
    sigma = 0.99 / lip
    alpha = _ADAPT_ALPHA0

    x = np.zeros(phi.cols)
    ax = np.zeros(phi.rows)
    ax_bar = ax
    p = np.zeros(phi.rows)
    obj_prev = math.inf
    stationary = False
    it = 0
    for it in range(1, max_iter + 1):
        # Dual step in Moreau form: p+ = sigma (w - proj_ball(w)).
        dev = p / sigma + ax_bar - y
        dn = math.sqrt(float(dev @ dev))
        p_new = (sigma * (1.0 - eps / dn) if dn > eps else 0.0) * dev
        v = x - tau * (a.T @ p_new)
        x_new = v - v.clip(-tau, tau)
        ax_new = a @ x_new
        ax_bar_prev = ax_bar
        ax_bar = 2.0 * ax_new - ax
        if it % 10 == 0:
            obj = float(np.sum(np.abs(x_new)))
            resid = float(np.linalg.norm(y - ax_new))
            obj_gap = abs(obj - obj_prev) <= _STOP_TOL * max(obj, 1e-12)
            feas_gap = resid <= eps * (1.0 + 1e-3) + _STOP_TOL * 1e-3
            if obj_gap and feas_gap:
                x = x_new
                stationary = True
                break
            obj_prev = obj
            primal = float(np.linalg.norm(x - x_new)) / tau
            dual = float(np.linalg.norm((p - p_new) / sigma + ax_bar_prev - ax_new))
            if primal > _ADAPT_DELTA * dual:
                tau, sigma = tau / (1.0 - alpha), sigma * (1.0 - alpha)
                alpha *= _ADAPT_ETA
            elif dual > _ADAPT_DELTA * primal:
                tau, sigma = tau * (1.0 - alpha), sigma / (1.0 - alpha)
                alpha *= _ADAPT_ETA
        x, ax, p = x_new, ax_new, p_new

    x, feasible = _feasibility_polish(a, y, x, eps)
    return ReconResult(estimate=x, iterations=it, converged=stationary and feasible)


def _sign_mismatch(ax: np.ndarray, y_sign: np.ndarray) -> np.ndarray:
    """Rows where sign(Phi x), with sign(0) = +1, disagrees with y_sign."""
    return sign_quantize(ax) != y_sign


def _gather_rows_share(n: int) -> float:
    """Largest share of Phi's rows up to which biht gathers the
    sign-disagreeing ones for the gradient; above it the gradient runs on
    the full Phi.

    The rows are gathered _GATHER_BLOCK at a time, so each copy is at
    most 64 rows (512 KB at n=1000) whatever the share. A gathered row
    then costs about twice what a row costs in the full product, plus a
    per-block overhead that weighs more on short rows, so the bound rises
    with the row length n toward 1/2: 1/4 at n=256, 0.375 at n=512 and
    0.436 at n=1000. Below n=128 the gradient always runs on the full Phi.
    Measured on one BLAS thread, blocked gather against Phi^T u (medians
    of 61 runs):
    - n=256, m=512: they tie at 25% (0.030 against 0.028 ms); the gather
      loses at 30% (0.037 against 0.028 ms);
    - n=512: at 35% the gather wins (0.176 against 0.188 ms at m=1024),
      at 40% it loses (0.213 against 0.194 ms; 0.412 against 0.400 ms at
      m=2048);
    - n=1000: at m=1000 and 3000 they tie at 40-45% (1.15 against 1.18 ms
      at 45%, m=3000) and the gather loses at 50%; at m=7000 it still
      wins at 50% (2.19 against 2.76 ms).
    """
    return 0.5 - 64 / n


_GATHER_BLOCK = 64


def _gather_gradient(a: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """a^T u for u nonzero only on rows, gathered _GATHER_BLOCK rows at a time."""
    g = np.zeros(a.shape[1])
    for lo in range(0, rows.size, _GATHER_BLOCK):
        part = slice(lo, lo + _GATHER_BLOCK)
        g += u[part] @ a[rows[part]]
    return g


def biht(
    phi: SensingMatrix,
    y_sign: np.ndarray,
    k: int,
    variant: BihtVariant = BihtVariant.ONE_SIDED_L1,
    max_iter: int = 100,
) -> ReconResult:
    """Binary iterative hard thresholding on sign measurements.

    Runs projected (sub)gradient steps x <- H_k(x - g) on the
    one-sided sign-consistency objective from the unit-norm proxy
    H_k(Phi^T y); later iterates are not renormalized. Returns the
    iterate with the lowest sign-disagreement fraction seen, which is
    never worse than the starting proxy; stops early once the signs match
    exactly. The scale of the signal is unrecoverable, so the
    estimate is reported with unit l2 norm.

    Each product touches only what can be nonzero. Phi x reads a k x m
    block that holds, contiguously, the k columns H_k kept; the block
    lasts the whole call, and a step that changes the kept columns copies
    in only those that entered, over the rows of those that left (k*m*8
    bytes, 560 KB at k=10, m=7000). The gradient Phi^T u, which vanishes
    off the sign-disagreeing rows, reads only those rows, in blocks,
    while they are at most _gather_rows_share(n) of them.
    """
    if max_iter < 1:
        raise InvalidParameterError("max_iter must be >= 1")
    y_sign = np.asarray(y_sign, dtype=float)
    if y_sign.shape != (phi.rows,):
        raise DimensionMismatchError("sign vector length != matrix rows")
    if not np.all(np.abs(y_sign) == 1.0):
        raise InvalidParameterError("y_sign entries must be +-1")
    a = phi.entries
    m, n = a.shape

    x, cols = _hard_threshold(a.T @ y_sign, k)
    nx = np.linalg.norm(x)
    if nx == 0.0:
        return ReconResult(
            estimate=np.zeros(n),
            iterations=0,
            converged=False,
            consistency_hamming=1.0,
        )
    x = x / nx
    # Row i of block is column cols[i] of Phi; held marks those columns.
    block = a.T[cols]
    held = np.zeros(n, dtype=bool)
    held[cols] = True
    gather_rows = _gather_rows_share(n) * m

    best_x = x.copy()
    best_ham = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        ax = x[cols] @ block
        bad = _sign_mismatch(ax, y_sign)
        ham = float(np.mean(bad))
        if ham < best_ham:
            best_ham = ham
            best_x = x.copy()
        if ham == 0.0:
            break
        # Off the disagreeing rows y * Phi x >= 0, so both one-sided
        # gradients are zero there; on them y * Phi x <= 0.
        rows = np.flatnonzero(bad)
        y_bad = y_sign[rows]
        r = y_bad * ax[rows]
        u = y_bad * (np.sign(r) if variant is BihtVariant.ONE_SIDED_L1 else r)
        if rows.size <= gather_rows:
            g = _gather_gradient(a, rows, u)
        else:
            u_full = np.zeros(m)
            u_full[rows] = u
            g = a.T @ u_full
        x_next, keep = _hard_threshold(x - g, k)
        if not np.any(x_next):
            if not np.any(g):
                return ReconResult(
                    estimate=np.zeros(n),
                    iterations=it,
                    converged=False,
                    consistency_hamming=best_ham,
                )
            # Thresholded to zero with a live gradient: restart from the step.
            x_next, keep = _hard_threshold(-g, k)
        entering = ~held[keep]
        if entering.any():
            held[cols] = False
            held[keep] = True
            leaving = np.flatnonzero(~held[cols])
            cols[leaving] = keep[entering]
            block[leaving] = a.T[cols[leaving]]
        x = x_next

    nb = np.linalg.norm(best_x)
    return ReconResult(
        estimate=best_x / nb if nb > 0 else best_x,
        iterations=it,
        converged=best_ham == 0.0,
        consistency_hamming=best_ham,
    )


def squared_error(
    x_true: np.ndarray, x_hat: np.ndarray, rescale_1bit: bool = False
) -> float:
    """Squared reconstruction error |x - x_hat|^2.

    With rescale_1bit a nonzero estimate is first scaled to the true norm,
    since sign measurements lose the signal scale.
    """
    x_true = np.asarray(x_true, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if x_true.shape != x_hat.shape:
        raise DimensionMismatchError("length mismatch")
    if rescale_1bit:
        nh = float(np.linalg.norm(x_hat))
        if nh > 0:
            x_hat = x_hat * (float(np.linalg.norm(x_true)) / nh)
    return float(np.sum((x_true - x_hat) ** 2))


def rsnr_db(x_true: np.ndarray, x_hat: np.ndarray, rescale_1bit: bool = False) -> float:
    """Reconstruction SNR 10 log10(|x|^2 / |x - x_hat|^2) in dB.

    The error is squared_error's, rescaled for 1-bit estimates. Exact
    recovery is capped at 300 dB.
    """
    err = squared_error(x_true, x_hat, rescale_1bit)
    nt = float(np.linalg.norm(x_true))
    if nt == 0.0:
        raise InvalidParameterError("x_true must be nonzero")
    if err == 0.0:
        return RSNR_CAP_DB
    return min(10.0 * math.log10(nt * nt / err), RSNR_CAP_DB)


def hamming_consistency(
    y_sign: np.ndarray, phi: SensingMatrix, x_hat: np.ndarray
) -> float:
    """Fraction of measurements whose re-measured sign disagrees."""
    y_sign = np.asarray(y_sign, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if y_sign.shape != (phi.rows,) or x_hat.shape != (phi.cols,):
        raise DimensionMismatchError("shape mismatch")
    return float(np.mean(_sign_mismatch(phi.entries @ x_hat, y_sign)))
