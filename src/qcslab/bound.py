"""Reconstruction-error bound under a fixed bit budget.

Evaluates the per-measurement error expression

    K sx2 B 2^(-2B) + N sn2 B (1 + 2^(-2B)),

its full form scaled by 2K / (budget (1 - delta)) plus a correlation
penalty, the back-of-envelope optimal bit depth, and the Gershgorin-style
eigenvalue bound used to derive it. Also provides Monte-Carlo estimators
for the restricted-isometry constant and the quantized-measurement
correlation that enter the full bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .signal_model import SensingMatrix, sigma_n_for_isnr


@dataclass(frozen=True)
class BoundParams:
    """Problem parameters the bit-depth bound depends on."""

    n: int
    k: int
    sigma_x2: float
    sigma_n2: float
    budget: float
    delta: float = 0.0
    corr_s: float = 0.0

    def __post_init__(self):
        if self.budget < 2:
            raise InvalidParameterError("budget must be >= 2 (bound needs B > 1)")
        if not 0.0 <= self.delta < 1.0:
            raise InvalidParameterError("delta must lie in [0, 1)")
        if self.sigma_x2 < 0 or self.sigma_n2 < 0:
            raise InvalidParameterError("variances must be nonnegative")
        if self.corr_s < 0:
            raise InvalidParameterError("corr_s must be nonnegative")


@dataclass(frozen=True)
class BoundCurve:
    """Bound values on an integer bit grid with the minimizing bit depth."""

    bit_grid: tuple
    values: np.ndarray
    argmin_b: int

    @property
    def argmin_on_boundary(self) -> bool:
        return self.argmin_b in (self.bit_grid[0], self.bit_grid[-1])


def bound_inner_term(b: float, p: BoundParams) -> float:
    """Per-measurement error term; the bound is proportional to it."""
    if b < 2:
        raise InvalidParameterError("inner term is defined for B >= 2")
    att = 2.0 ** (-2.0 * b)
    return p.k * p.sigma_x2 * b * att + p.n * p.sigma_n2 * b * (1.0 + att)


def budget_error_bound(b: float, p: BoundParams) -> float:
    """Full reconstruction-MSE upper bound at bit depth b.

    The number of measurements budget/b is evaluated as a real number;
    integer rounding is the caller's concern.
    """
    if b < 2:
        raise InvalidParameterError("bound is defined for B >= 2")
    lead = 2.0 * p.k / (p.budget * (1.0 - p.delta))
    corr = (p.k / (1.0 - p.delta)) * (p.budget / b - 1.0) * p.corr_s
    return lead * bound_inner_term(b, p) + corr


def optimal_bitdepth(
    p: BoundParams, b_min: int = 2, b_max: int = 12, mode: str = "inner"
) -> BoundCurve:
    """Evaluate the bound on {b_min..b_max} and locate its minimum.

    mode "inner" scores bit depths by the parenthesized term alone;
    "full" uses the complete bound. Ties resolve to the smallest B.
    """
    if not (2 <= b_min <= b_max <= 32):
        raise InvalidParameterError("need 2 <= b_min <= b_max <= 32")
    if mode not in ("inner", "full"):
        raise InvalidParameterError(f"unknown mode {mode!r}")
    fn = bound_inner_term if mode == "inner" else budget_error_bound
    grid = tuple(range(b_min, b_max + 1))
    values = np.array([fn(b, p) for b in grid])
    argmin_b = grid[int(np.argmin(values))]
    return BoundCurve(bit_grid=grid, values=values, argmin_b=argmin_b)


def envelope_optimal_b(norm_x2: float, sigma_n2: float, m: int, n: int) -> float:
    """Back-of-envelope optimal bit depth 0.5 log2(|x|^2 / sn2 * m / n)."""
    if norm_x2 <= 0 or sigma_n2 <= 0 or m < 1 or n < 1:
        raise InvalidParameterError("all arguments must be positive")
    return 0.5 * math.log2(norm_x2 / sigma_n2 * m / n)


def envelope_regime_relation(budget: float, m: int) -> float:
    """Right side 2*budget/m - log2(m) of the regime-transition relation."""
    if m < 1:
        raise InvalidParameterError("m must be >= 1")
    if budget < m:
        raise InvalidParameterError("budget must be >= m (at least 1 bit each)")
    return 2.0 * budget / m - math.log2(m)


def estimate_corr_s(samples: np.ndarray) -> float:
    """Empirical max |mean(q_i q_j)| over measurement pairs i != j.

    Rows are independent quantized measurement vectors; columns index
    measurements.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 2 or samples.shape[1] < 2:
        raise InvalidParameterError("need >= 2 sample vectors of dimension >= 2")
    second_moment = samples.T @ samples / samples.shape[0]
    off = np.abs(second_moment)
    np.fill_diagonal(off, -np.inf)
    return float(np.max(off))


def estimate_rip_delta(
    phi: SensingMatrix, k: int, trials: int, rng: np.random.Generator
) -> float:
    """Monte-Carlo lower estimate of the order-k isometry constant.

    Samples k-column submatrices and tracks the worst singular-value
    deviation from an isometry; a lower bound on the true constant since
    only sampled supports are examined.
    """
    if k < 1 or k > phi.rows or k > phi.cols:
        raise InvalidParameterError("need 1 <= k <= min(rows, cols)")
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    delta = 0.0
    for _ in range(trials):
        idx = rng.choice(phi.cols, size=k, replace=False)
        s = np.linalg.svd(phi.entries[:, idx], compute_uv=False)
        delta = max(delta, float(s[0] ** 2 - 1.0), float(1.0 - s[-1] ** 2))
    return delta


def correlated_noise_error_bound(
    sigma_diag: float, corr_s: float, m: int, k: int, delta: float
) -> float:
    """Oracle-error bound K/(1-delta) * (sz2 + (M-1)*S) for correlated noise.

    Combines the largest-eigenvalue bound with the Gershgorin estimate
    lambda_max <= sz2 + (M-1)*S for a covariance with constant diagonal
    sigma_diag and off-diagonal magnitudes at most corr_s.
    """
    if not 0.0 <= delta < 1.0:
        raise InvalidParameterError("delta must lie in [0, 1)")
    if m < 1 or k < 1:
        raise InvalidParameterError("m and k must be >= 1")
    return (k / (1.0 - delta)) * (sigma_diag + (m - 1) * corr_s)


def params_for_isnr(
    isnr_db: float,
    n: int = 1000,
    k: int = 10,
    sigma_x2: float = 1.0,
    budget: float = 3000.0,
    delta: float = 0.0,
    corr_s: float = 0.0,
) -> BoundParams:
    """BoundParams with the noise variance set from an input SNR in dB."""
    return BoundParams(
        n=n,
        k=k,
        sigma_x2=sigma_x2,
        sigma_n2=sigma_n_for_isnr(k, sigma_x2, n, isnr_db),
        budget=budget,
        delta=delta,
        corr_s=corr_s,
    )
