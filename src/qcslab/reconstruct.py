"""Sparse reconstruction algorithms and recovery metrics.

Provides oracle-assisted least squares on a known support, an l1
minimizer subject to an l2 data-fidelity ball (solved exactly by the l1
homotopy, with a KKT certificate), and binary iterative hard
thresholding in its one-sided l1 and l2 variants for sign measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import InvalidParameterError, QcsLabError
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
        raise InvalidParameterError("measurement length != matrix rows")
    idx = np.unique(np.asarray(support, dtype=int))
    if idx.size == 0 or idx.size > phi.rows:
        raise InvalidParameterError("support size must be in [1, rows]")
    if idx.min() < 0 or idx.max() >= phi.cols:
        raise InvalidParameterError("support indices out of range")
    sub = phi.entries[:, idx]
    sol, _, rank, _ = np.linalg.lstsq(sub, y, rcond=None)
    if rank < idx.size:
        raise QcsLabError("support submatrix is rank deficient")
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
    keep = np.argsort(-np.abs(v), kind="stable")[:k]
    out = np.zeros_like(v)
    out[keep] = v[keep]
    return out, keep


# Steps between exact recomputations of the path point, the residual and
# the correlations; in between, the correlations and the squared residual
# norm are updated along the path. Also the number of rank-one terms the
# inverse Gram matrix gathers before they are folded in (_ActiveSet).
_REFRESH_STEPS = 32
# An entering column whose squared distance from the span of the active
# columns is at most this share of its squared norm counts as dependent.
_DEPENDENT_TOL = 1e-10
# A segment whose updated squared residual norm ends within this share of
# eps^2 is checked again on an exactly recomputed residual before bpdn
# steps through it, so that update drift never skips the stopping point.
# On the qcsbench ci_sweep, fig3_bpdn and a budget-7N fig3 slice the
# updated value drifted at most 3e-11 of the exact one between
# recomputations.
_STOP_MARGIN = 1e-3


# Joins after which _ActiveSet forms the Gram matrix Phi^T Phi once and
# reads each later joining column's row from it. Forming it is one BLAS
# syrk (m n^2 / 2 multiply-adds); a join before that is one product
# Phi^T phi_j (m n). On one BLAS thread of a 2-vCPU Xeon VM the syrk cost
# 48-106 join products at n=1000 for m from 375 to 3000 (336 at m=125),
# and 20-63 at n=256 for m from 125 to 3000.
_GRAM_JOINS = 64


class _ActiveSet:
    """The active columns of the l1 path and the inverse of their Gram matrix.

    Entry i belongs to column idx[i] of Phi, with path sign sign[i] and
    coefficient x[i]; idx is a permutation of all n columns whose first k
    entries are the active ones. Row i of the row store rows holds
    Phi^T phi_idx[i] for i < k, so the Gram matrix of the active columns
    is rows[:k, idx[:k]]. For the first _GRAM_JOINS calls to add, the
    store has min(m, n, _GRAM_JOINS) rows and the joining column's row is
    one product with Phi. The next call replaces it with Phi^T Phi, n x n
    with its rows permuted with idx, and from then on a join or a removal
    is a swap of two rows. A call that stops within _GRAM_JOINS joins so
    never holds n^2 entries.

    The inverse of the active Gram matrix is held as base[:k, :k] +
    U diag(weights) U^T with U = lowrank[:k, :r]: adding a column appends
    one rank-one term (the bordered inverse's Schur complement), and so
    does removing one (its downdate). When _REFRESH_STEPS terms have
    gathered, one matrix product folds them into base. A step so costs
    O(k^2) in BLAS products and never an elementwise pass over k x k
    entries, which at k = 900 takes longer than the product with the
    inverse. The other buffers are sized for min(m, n) columns, and every
    buffer is updated in place.
    """

    def __init__(self, a: np.ndarray):
        n = a.shape[1]
        cap = min(a.shape)
        self.a = a
        self.k = 0
        self.joins = 0
        self.idx = np.arange(n)
        self.pos = np.arange(n)  # pos[idx[i]] = i
        self.sign = np.empty(cap)
        self.x = np.empty(cap)
        self.rows = np.empty((min(cap, _GRAM_JOINS), n))
        self.base = np.empty((cap, cap))
        self.lowrank = np.empty((cap, _REFRESH_STEPS))
        self.weights = np.empty(_REFRESH_STEPS)
        self.r = 0

    def apply(self, v: np.ndarray) -> np.ndarray:
        """The inverse Gram matrix times v."""
        k, r = self.k, self.r
        u = self.lowrank[:k, :r]
        return self.base[:k, :k] @ v + u @ (self.weights[:r] * (v @ u))

    def _append_term(self, vec: np.ndarray, weight: float) -> None:
        r = self.r
        self.lowrank[: vec.size, r] = vec
        self.weights[r] = weight
        self.r = r + 1
        if self.r == _REFRESH_STEPS:
            k = self.k
            u = self.lowrank[:k]
            self.base[:k, :k] += (u * self.weights) @ u.T
            self.r = 0

    def _swap(self, p: int, q: int, move_rows: bool = True) -> None:
        """Exchange places p and q of idx, and with rows of the row store."""
        i, j = self.idx[p], self.idx[q]
        self.idx[p], self.idx[q] = j, i
        self.pos[i], self.pos[j] = q, p
        if move_rows:
            pq = [p, q]
            self.rows[pq] = self.rows[[q, p]]

    def _fill_gram(self) -> None:
        """Phi^T Phi as the row store, rows permuted with idx."""
        active = self.idx[: self.k].copy()
        self.rows = self.a.T @ self.a
        self.idx[:] = self.pos[:] = np.arange(self.idx.size)
        for i, j in enumerate(active):
            self._swap(i, self.pos[j])

    def add(self, j: int, sign: float) -> bool:
        """Append column j to a set with room for it; False, leaving the
        set as it was, if j depends on the active columns."""
        k = self.k
        gram = self.joins >= _GRAM_JOINS
        if self.joins == _GRAM_JOINS:
            self._fill_gram()
        self.joins += 1
        self._swap(k, self.pos[j], move_rows=gram)
        row = self.rows[k]
        if not gram:
            np.matmul(self.a[:, j], self.a, out=row)
        b = self.rows[:k, j]
        u = self.apply(b)
        schur = row[j] - float(b @ u)
        if not schur > _DEPENDENT_TOL * row[j]:
            return False
        self.base[k, : k + 1] = 0.0
        self.base[:k, k] = 0.0
        self.lowrank[k, : self.r] = 0.0
        self.sign[k], self.x[k] = sign, 0.0
        self.k = k + 1
        self._append_term(np.append(u, -1.0), 1.0 / schur)
        return True

    def remove(self, p: int) -> None:
        """Drop entry p; the last entry takes its place."""
        q = self.k - 1
        base, u = self.base, self.lowrank[: q + 1, : self.r]
        if p != q:
            pq, qp = [p, q], [q, p]
            self._swap(p, q)
            for arr in (self.sign, self.x, self.lowrank):
                arr[pq] = arr[qp]
            base[pq, : q + 1] = base[qp, : q + 1]
            base[: q + 1, pq] = base[: q + 1, qp]
        col = base[: q + 1, q] + u @ (self.weights[: self.r] * u[q])
        self.k = q
        self._append_term(col[:q], -1.0 / col[q])

    def solve(self, rhs: np.ndarray, gram: np.ndarray) -> np.ndarray:
        """Gram^-1 rhs from the inverse, refined once against the Gram matrix."""
        z = self.apply(rhs)
        z += self.apply(rhs - gram @ z)
        return z

    def estimate(self) -> np.ndarray:
        out = np.zeros(self.a.shape[1])
        out[self.idx[: self.k]] = self.x[: self.k]
        return out


# The path signs as a column, + first, for _first_entry.
_SIGNS = np.array([[1.0], [-1.0]])


def _first_entry(c, slope, lam, free, left, left_sign):
    """Smallest step gamma >= 0 at which |c_j - gamma slope_j| reaches
    lam - gamma for a free j: (gamma, j, sign of c_j there). Ties go to
    the + sign, then to the lowest index.

    Index left has just left the active set with sign left_sign, so its
    correlation starts at left_sign lam; only its crossing of the
    opposite bound counts.
    """
    # Row 0 is the + sign and row 1 the - sign, so a flat argmin breaks
    # ties as stated. Both signs go through each numpy call at once.
    den = 1.0 - _SIGNS * slope
    num = np.maximum(lam - _SIGNS * c, 0.0)
    gam = np.full(den.shape, math.inf)
    np.divide(num, den, out=gam, where=free & (den > 1e-12))
    if left_sign:
        gam[int(left_sign < 0), left] = math.inf
    flat = int(np.argmin(gam))
    best = float(gam.flat[flat])
    if best == math.inf:
        return math.inf, -1, 0.0
    row, j = divmod(flat, c.size)
    return best, j, float(_SIGNS[row, 0])


def _kkt_certified(a: np.ndarray, y: np.ndarray, x: np.ndarray, eps: float, lam: float) -> bool:
    """Whether x minimizes ||x||_1 subject to ||y - Phi x|| <= eps, with
    multiplier lam, checked on a freshly computed residual r = y - Phi x:
    ||r|| <= eps (1 + 1e-9) + 1e-12, ||Phi^T r||_inf <= lam (1 + 1e-6), and
    Phi_S^T r = lam sign(x_S) within 1e-6 lam on the support S of x."""
    r = y - a @ x
    if not float(np.linalg.norm(r)) <= eps * (1.0 + 1e-9) + 1e-12:
        return False
    c = a.T @ r
    sup = np.flatnonzero(x)
    return (
        float(np.max(np.abs(c))) <= lam * (1.0 + 1e-6)
        and float(np.max(np.abs(c[sup] - lam * np.sign(x[sup])))) <= 1e-6 * lam
    )


def bpdn(
    phi: SensingMatrix,
    y: np.ndarray,
    eps: float,
    max_iter: int = 2000,
) -> ReconResult:
    """Minimize ||x||_1 subject to ||y - Phi x||_2 <= eps.

    Follows the l1 homotopy (LASSO path; Osborne, Presnell & Turlach
    2000; Donoho & Tsaig 2008): the minimizer of
    ||y - Phi x||^2 / 2 + lam ||x||_1 is piecewise linear in lam, from
    x = 0 at lam = ||Phi^T y||_inf downward, and its residual norm falls
    as lam does. Each path step moves to the next breakpoint, where one
    index joins the active set or leaves it; a column that depends on the
    active ones is passed over until an index leaves. The step on which
    the residual norm reaches eps stops at that point, a root of
    ||r - gamma w||^2 = eps^2, found on an exactly recomputed residual.
    The cost of a step follows the active set's size k: O(k n + k^2),
    plus one product with Phi every _REFRESH_STEPS steps. Each of the
    first _GRAM_JOINS joining indices costs one product Phi^T phi_j;
    then Phi^T Phi is formed once (one BLAS syrk, 6-80 ms at n = 1000 for
    m = 125-3000; 8 MB, freed when the call returns) and a join is a swap
    of two of its rows.

    iterations counts path steps, and max_iter caps them. converged is a
    KKT certificate on the returned x (_kkt_certified): feasible, and
    optimal for the path's final lam. Its tolerances are relative to lam,
    so a y that a sparse x fits almost exactly, with a tiny eps, can end
    at a lam so small that rounding fails the check on an x that is
    optimal to working precision; converged is then False.
    """
    if max_iter < 1:
        raise InvalidParameterError("max_iter must be >= 1")
    if not eps >= 0:  # also nan
        raise InvalidParameterError(f"eps must be nonnegative, got {eps!r}")
    a = phi.entries
    y = np.asarray(y, dtype=float)
    if y.shape != (phi.rows,):
        raise InvalidParameterError("measurement length != matrix rows")
    if not np.isfinite(y).all():
        raise InvalidParameterError("y must be finite")

    n = phi.cols
    if np.linalg.norm(y) <= eps:
        return ReconResult(estimate=np.zeros(n), iterations=0, converged=True)
    corr_y = a.T @ y
    j = int(np.argmax(np.abs(corr_y)))
    lam = float(abs(corr_y[j]))
    if lam == 0.0:
        return ReconResult(estimate=np.zeros(n), iterations=0, converged=False)

    act = _ActiveSet(a)
    act.add(j, float(np.sign(corr_y[j])))
    # Columns found dependent on the active ones; cleared when one leaves.
    passed = np.zeros(n, dtype=bool)
    c = corr_y.copy()
    rr = float(y @ y)
    eps2 = eps * eps
    # The entry that just joined, and the index that just left with its sign.
    joined, left, left_sign = 0, -1, 0.0
    exact = False  # whether x, c and rr were just recomputed at lam
    since = 0
    it = 0
    while it < max_iter:
        k = act.k
        idx, s, xs = act.idx[:k], act.sign[:k], act.x[:k]
        if exact:
            gram = act.rows[:k, idx]
            xs[:] = act.solve(corr_y[idx] - lam * s, gram)
            d = act.solve(s, gram)
            r = y - a @ act.estimate()
            c = a.T @ r
            rr = float(r @ r)
            since = 0
        else:
            d = act.apply(s)
        # Along the step gamma, x_S grows by gamma d, lam falls by gamma,
        # r by gamma w with w = Phi_S d, and c = Phi^T r by gamma slope;
        # ||w||^2 = s^T d and r^T w = lam s^T d.
        sd = float(s @ d)
        if not sd > 0.0:
            break
        slope = d @ act.rows[:k]
        gam_in, j_in, s_in = math.inf, -1, 0.0
        if k < act.sign.size:  # a full set spans every column: none can join
            free = ~passed
            free[idx] = False
            gam_in, j_in, s_in = _first_entry(c, slope, lam, free, left, left_sign)
        shrinking = (np.signbit(xs) != np.signbit(d)) & (np.abs(xs) < lam * np.abs(d))
        if joined >= 0:
            shrinking[joined] = False
        gam_out, p_out = math.inf, -1
        if shrinking.any():
            ratios = np.full(k, math.inf)
            np.divide(-xs, d, out=ratios, where=shrinking)
            p_out = int(np.argmin(ratios))
            gam_out = float(ratios[p_out])
        gam = min(gam_in, gam_out, lam)

        if rr - gam * (2.0 * lam - gam) * sd <= eps2 * (1.0 + _STOP_MARGIN):
            if not exact:
                exact = True
                continue
            d_full = np.zeros(n)
            d_full[idx] = d
            w = a @ d_full
            ww = float(w @ w)
            # ||r - gamma w||^2 = rho^2 + ww (g_min - gamma)^2, with the
            # segment's least residual rho taken from its own vector: from
            # rr, (r^T w)^2 / ww and eps^2, the difference that gives the
            # root cancels when rho << eps.
            g_min = float(r @ w) / ww
            r_min = r - g_min * w
            rho2 = float(r_min @ r_min)
            if rho2 + ww * (g_min - gam) ** 2 <= eps2:
                # The smaller root; negative if the residual already fell
                # below eps within this segment.
                stop = g_min - math.sqrt((eps2 - rho2) / ww)
                xs += stop * d
                lam -= stop
                it += 1
                break

        xs += gam * d
        c -= gam * slope
        rr -= gam * (2.0 * lam - gam) * sd
        lam -= gam
        it += 1
        if lam == 0.0:
            break  # the path ended above eps: no x is feasible
        since += 1
        exact = since >= _REFRESH_STEPS
        joined, left, left_sign = -1, -1, 0.0
        if gam == gam_out:
            left, left_sign = int(idx[p_out]), float(s[p_out])
            passed[:] = False
            act.remove(p_out)
        elif act.add(j_in, s_in):
            joined = act.k - 1
        else:
            passed[j_in] = True

    x = act.estimate()
    converged = _kkt_certified(a, y, x, eps, lam)
    return ReconResult(estimate=x, iterations=it, converged=converged)


def _sign_mismatch(ax: np.ndarray, y_sign: np.ndarray) -> np.ndarray:
    """Rows where sign(Phi x), with sign(0) = +1, disagrees with y_sign."""
    return sign_quantize(ax) != y_sign


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
    off the sign-disagreeing rows, reads only those rows, _GATHER_BLOCK
    at a time.
    """
    if max_iter < 1:
        raise InvalidParameterError("max_iter must be >= 1")
    y_sign = np.asarray(y_sign, dtype=float)
    if y_sign.shape != (phi.rows,):
        raise InvalidParameterError("sign vector length != matrix rows")
    if not np.all(np.abs(y_sign) == 1.0):
        raise InvalidParameterError("y_sign entries must be +-1")
    a = phi.entries
    n = a.shape[1]

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
        g = _gather_gradient(a, rows, u)
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
        raise InvalidParameterError("length mismatch")
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
        raise InvalidParameterError("shape mismatch")
    return float(np.mean(_sign_mismatch(phi.entries @ x_hat, y_sign)))
