"""Reconstruction-error bound under a fixed bit budget.

Evaluates the per-measurement error expression

    K sx2 B 2^(-2B) + N sn2 B (1 + 2^(-2B)),

its full form scaled by 2K / (budget (1 - delta)) plus a correlation
penalty, and the back-of-envelope optimal bit depth. Also provides a
Monte-Carlo estimator for the restricted-isometry constant that enters
the full bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidParameterError
from .quantize import check_bit_grid
from .signal_model import SensingMatrix, check_signal, sigma_n_for_isnr


@dataclass(frozen=True)
class BoundParams:
    """Problem parameters the bit-depth bound depends on; a value outside
    its domain raises ConfigError naming its field."""

    n: int
    k: int
    sigma_x2: float
    sigma_n2: float
    budget: float
    delta: float = 0.0
    corr_s: float = 0.0

    def __post_init__(self):
        check_signal(self.n, self.k, self.sigma_x2)
        if not 2 <= self.budget <= sys.float_info.max:
            raise ConfigError("budget", "must lie in [2, largest float] (bound needs B > 1)")
        if not 0.0 <= self.delta < 1.0:
            raise ConfigError("delta", "must lie in [0, 1)")
        for name in ("sigma_n2", "corr_s"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(name, "must be finite and nonnegative")


@dataclass(frozen=True)
class BoundCurve:
    """Bound values on an integer bit grid with the minimizing bit depth."""

    bit_grid: tuple
    values: np.ndarray
    argmin_b: int


def bound_inner_term(b: float, p: BoundParams) -> float:
    """Per-measurement error term; the bound is proportional to it. As
    check_signal keeps k sigma_x2 finite, an overflow names sigma_n2."""
    if b < 2:
        raise InvalidParameterError("inner term is defined for B >= 2")
    att = 2.0 ** (-2.0 * b)
    term = p.k * p.sigma_x2 * b * att + p.n * p.sigma_n2 * b * (1.0 + att)
    if not math.isfinite(term):
        raise ConfigError("sigma_n2", f"makes the bound overflow at B = {b}")
    return term


def budget_error_bound(b: float, p: BoundParams) -> float:
    """Full reconstruction-MSE upper bound at bit depth b.

    The number of measurements budget/b is evaluated as a real number;
    integer rounding is the caller's concern. An overflow raises ConfigError
    naming corr_s for the correlation term, else delta when positive (at
    delta = 0 the lead 2k / budget is at most k), else sigma_n2.
    """
    if b < 2:
        raise InvalidParameterError("bound is defined for B >= 2")
    lead = 2.0 * p.k / (p.budget * (1.0 - p.delta))
    corr = (p.k / (1.0 - p.delta)) * (p.budget / b - 1.0) * p.corr_s
    bound = lead * bound_inner_term(b, p) + corr
    if not math.isfinite(bound):
        field = "corr_s" if not math.isfinite(corr) else "delta" if p.delta else "sigma_n2"
        raise ConfigError(field, f"makes the bound overflow at B = {b}")
    return bound


def optimal_bitdepth(p: BoundParams, bits, mode: str = "inner") -> BoundCurve:
    """Evaluate the bound at each bit depth in bits and locate its minimum.

    The depths are evaluated in ascending order; check_bit_grid, with 2
    as the lowest depth, owns their rule. mode "inner" scores bit depths
    by the parenthesized term alone; "full" uses the complete bound. Ties
    resolve to the smallest B. A bad grid raises ConfigError naming bits,
    a bad mode one naming mode.
    """
    check_bit_grid("bits", bits, 2)
    if mode not in ("inner", "full"):
        raise ConfigError("mode", f"must be 'inner' or 'full', got {mode!r}")
    grid = tuple(sorted(bits))
    fn = bound_inner_term if mode == "inner" else budget_error_bound
    values = np.array([fn(b, p) for b in grid])
    argmin_b = grid[int(np.argmin(values))]
    return BoundCurve(bit_grid=grid, values=values, argmin_b=argmin_b)


def envelope_optimal_b(norm_x2: float, sigma_n2: float, m: int, n: int) -> float:
    """Back-of-envelope optimal bit depth 0.5 log2(|x|^2 / sn2 * m / n)."""
    if norm_x2 <= 0 or sigma_n2 <= 0 or m < 1 or n < 1:
        raise InvalidParameterError("all arguments must be positive")
    return 0.5 * math.log2(norm_x2 / sigma_n2 * m / n)


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


def params_for_isnr(
    isnr_db: float,
    n: int = 1000,
    k: int = 10,
    sigma_x2: float = 1.0,
    budget: float = 3000.0,
    delta: float = 0.0,
    corr_s: float = 0.0,
) -> BoundParams:
    """BoundParams with the noise variance set from an input SNR in dB
    (ConfigError naming isnr when it gives no finite variance)."""
    sigma_n2 = sigma_n_for_isnr(k, sigma_x2, n, isnr_db)
    return BoundParams(
        n=n,
        k=k,
        sigma_x2=sigma_x2,
        sigma_n2=sigma_n2,
        budget=budget,
        delta=delta,
        corr_s=corr_s,
    )
