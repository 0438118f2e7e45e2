import math

import numpy as np
import pytest

import qcslab as q
from qcslab.quantize import MAX_BITS

GRID_2_12 = list(range(2, 13))

# Normalization with n*sigma_n2 = 1 and k*sigma_x2 = 10^(isnr/10) makes the
# inner term equal its dimensionless form used in the reference curves.
NORMALIZED_35 = q.BoundParams(n=1, k=1, sigma_x2=10**3.5, sigma_n2=1.0, budget=3000)


class TestBoundParams:
    def test_validation(self):
        with pytest.raises(q.InvalidParameterError):
            q.BoundParams(n=1, k=1, sigma_x2=1.0, sigma_n2=1.0, budget=1)
        with pytest.raises(q.InvalidParameterError):
            q.BoundParams(n=1, k=1, sigma_x2=1.0, sigma_n2=1.0, budget=10, delta=1.0)
        with pytest.raises(q.InvalidParameterError):
            q.BoundParams(n=1, k=1, sigma_x2=-1.0, sigma_n2=1.0, budget=10)
        with pytest.raises(q.InvalidParameterError):
            q.BoundParams(n=1, k=1, sigma_x2=1.0, sigma_n2=1.0, budget=10, corr_s=-0.1)
        base = dict(n=1, k=1, sigma_x2=1.0, sigma_n2=1.0, budget=10)
        for bad in ({"sigma_x2": math.inf}, {"sigma_n2": math.nan}, {"corr_s": math.nan}):
            with pytest.raises(q.InvalidParameterError):
                q.BoundParams(**{**base, **bad})


class TestInnerTerm:
    def test_frozen_values(self):
        # Direct arithmetic from the formula at the 35 dB normalization.
        assert q.bound_inner_term(7, NORMALIZED_35) == pytest.approx(
            8.35149802375358, rel=1e-12
        )
        assert q.bound_inner_term(6, NORMALIZED_35) == pytest.approx(
            10.633707510012275, rel=1e-12
        )
        assert q.bound_inner_term(8, NORMALIZED_35) == pytest.approx(
            8.386142292501022, rel=1e-12
        )

    def test_domain(self):
        with pytest.raises(q.InvalidParameterError):
            q.bound_inner_term(1, NORMALIZED_35)

    def test_noiseless_reduction(self):
        p = q.BoundParams(n=50, k=5, sigma_x2=2.0, sigma_n2=0.0, budget=100)
        for b in (2, 5, 9):
            assert q.bound_inner_term(b, p) == pytest.approx(
                5 * 2.0 * b * 4.0 ** (-b), rel=1e-12
            )


class TestFullBound:
    def test_collapse_without_correlation(self):
        p = q.params_for_isnr(20.0, budget=3000.0)
        for b in (2, 5, 8):
            expected = (2 * p.k / p.budget) * q.bound_inner_term(b, p)
            assert q.budget_error_bound(b, p) == pytest.approx(expected, rel=1e-12)

    def test_budget_scaling(self):
        p1 = q.params_for_isnr(20.0, budget=3000.0)
        p2 = q.params_for_isnr(20.0, budget=6000.0)
        assert q.budget_error_bound(6, p2) == pytest.approx(
            q.budget_error_bound(6, p1) / 2, rel=1e-12
        )

    def test_correlation_additivity(self):
        base = q.params_for_isnr(20.0, budget=3000.0, delta=0.2)
        corr = q.params_for_isnr(20.0, budget=3000.0, delta=0.2, corr_s=0.05)
        extra = (corr.k / (1 - 0.2)) * (3000.0 / 6 - 1) * 0.05
        assert q.budget_error_bound(6, corr) == pytest.approx(
            q.budget_error_bound(6, base) + extra, rel=1e-12
        )

    def test_decreasing_in_budget(self):
        budgets = [500.0, 1000.0, 2000.0, 8000.0]
        vals = [
            q.budget_error_bound(4, q.params_for_isnr(10.0, budget=bb)) for bb in budgets
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestOptimalBitdepth:
    def test_reference_minima(self):
        targets = {35.0: 7, 20.0: 5, 10.0: 2, 5.0: 2}
        for isnr, best in targets.items():
            curve = q.optimal_bitdepth(q.params_for_isnr(isnr), GRID_2_12)
            assert curve.argmin_b == best

    def test_noiseless_minimum_at_top(self):
        p = q.BoundParams(n=1000, k=10, sigma_x2=1.0, sigma_n2=0.0, budget=3000)
        curve = q.optimal_bitdepth(p, GRID_2_12)
        assert curve.argmin_b == 12

    def test_heavy_noise_minimum_at_bottom(self):
        p = q.BoundParams(n=1000, k=10, sigma_x2=1.0, sigma_n2=1e6, budget=3000)
        curve = q.optimal_bitdepth(p, GRID_2_12)
        assert curve.argmin_b == 2

    def test_single_point_grid(self):
        curve = q.optimal_bitdepth(q.params_for_isnr(20.0), [5])
        assert curve.bit_grid == (5,)
        assert curve.argmin_b == 5

    def test_scale_invariance_of_argmin(self):
        for isnr in (35.0, 20.0, 10.0, 5.0):
            ref = q.optimal_bitdepth(q.params_for_isnr(isnr), GRID_2_12).argmin_b
            for c in (1e-3, 17.0, 1e4):
                p = q.params_for_isnr(isnr)
                scaled = q.BoundParams(
                    n=p.n,
                    k=p.k,
                    sigma_x2=c * p.sigma_x2,
                    sigma_n2=c * p.sigma_n2,
                    budget=p.budget,
                )
                assert q.optimal_bitdepth(scaled, GRID_2_12).argmin_b == ref

    def test_sparse_grid_evaluates_only_its_depths(self):
        p = q.params_for_isnr(20.0)
        full = q.optimal_bitdepth(p, GRID_2_12)
        curve = q.optimal_bitdepth(p, [6, 2, 4])
        assert curve.bit_grid == (2, 4, 6)
        expected = [full.values[full.bit_grid.index(b)] for b in (2, 4, 6)]
        assert curve.values.tolist() == expected

    def test_grid_validation(self):
        for bits in ([], [4, 4], [1, 4], [MAX_BITS + 1]):
            with pytest.raises(q.InvalidParameterError):
                q.optimal_bitdepth(NORMALIZED_35, bits)


class TestEnvelope:
    def test_optimal_b_values(self):
        assert q.envelope_optimal_b(1.0, 1.0, 100, 100) == pytest.approx(0.0)
        assert q.envelope_optimal_b(4096.0, 1.0, 100, 100) == pytest.approx(6.0)
        assert q.envelope_optimal_b(4096.0, 1.0, 25, 100) == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(q.InvalidParameterError):
            q.envelope_optimal_b(0.0, 1.0, 1, 1)


class TestRipDelta:
    def test_orthonormal_columns_give_zero(self):
        rng = np.random.default_rng(0)
        mat, _ = np.linalg.qr(rng.standard_normal((30, 30)))
        phi = q.SensingMatrix(mat)
        assert q.estimate_rip_delta(phi, 5, 50, np.random.default_rng(1)) <= 1e-12

    def test_k1_reduces_to_column_norms(self):
        rng = np.random.default_rng(4)
        phi = q.gen_gaussian_matrix(50, 30, rng)
        norms = np.sum(phi.entries**2, axis=0)
        bound = float(np.max(np.abs(norms - 1.0)))
        est = q.estimate_rip_delta(phi, 1, 500, np.random.default_rng(2))
        assert est <= bound + 1e-12
        assert est > 0

    def test_monotone_in_k(self):
        phi = q.gen_gaussian_matrix(200, 1000, np.random.default_rng(5))
        deltas = [
            q.estimate_rip_delta(phi, k, 500, np.random.default_rng(100 + k))
            for k in (5, 10, 20)
        ]
        assert deltas[0] < deltas[1] < deltas[2]
        assert all(0 < d < 1 for d in deltas)

