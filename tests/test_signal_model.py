import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcslab as q


class TestGenSparseSignal:
    def test_support_size(self):
        rng = np.random.default_rng(0)
        x = q.gen_sparse_signal(1000, 10, 1.0, rng)
        assert np.count_nonzero(x.values) == 10
        assert (x.values.size, x.support.size) == (1000, 10)
        assert np.all(x.values[np.setdiff1d(np.arange(1000), x.support)] == 0)

    def test_full_support_when_k_equals_n(self):
        x = q.gen_sparse_signal(5, 5, 1.0, np.random.default_rng(1))
        assert set(x.support.tolist()) == set(range(5))

    @pytest.mark.parametrize("k", [0, 1001])
    def test_invalid_sparsity(self, k):
        with pytest.raises(q.InvalidParameterError):
            q.gen_sparse_signal(1000, k, 1.0, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "values, support",
        [
            (np.zeros((2, 2)), [0]),
            (np.zeros(4), [[0]]),
            (np.zeros(4), [1, 1]),
            (np.zeros(4), [4]),
            (np.array([0.0, 1.0, 0.0]), [0]),
        ],
        ids=["values-2d", "support-2d", "repeated", "out-of-range", "off-support"],
    )
    def test_record_rejects_inconsistent_arrays(self, values, support):
        with pytest.raises(q.InvalidParameterError):
            q.SparseSignal(values, support)

    def test_energy_matches_expectation(self):
        # Monte-Carlo oracle: mean ||x||^2 over many draws approaches k*sigma_x2.
        rng = np.random.default_rng(42)
        total = 0.0
        draws = 10_000
        for _ in range(draws):
            x = q.gen_sparse_signal(1000, 10, 1.0, rng)
            total += float(x.values @ x.values)
        assert abs(total / draws - 10.0) <= 0.5


class TestIsnr:
    def test_sigma_n_examples(self):
        assert q.sigma_n_for_isnr(10, 1.0, 1000, 10.0) == pytest.approx(1e-3, rel=1e-12)
        assert q.sigma_n_for_isnr(1000, 1.0, 1000, 0.0) == pytest.approx(1.0, rel=1e-12)
        assert q.sigma_n_for_isnr(10, 1.0, 1000, 35.0) == pytest.approx(
            3.1622776601683796e-06, rel=1e-12
        )

    def test_infinite_isnr_gives_zero_noise(self):
        assert q.sigma_n_for_isnr(5, 1.0, 100, math.inf) == 0.0

    @pytest.mark.parametrize("isnr", [math.nan, -math.inf, -4000.0])
    def test_no_finite_noise_variance_rejected(self, isnr):
        with pytest.raises(q.InvalidParameterError, match="ISNR"):
            q.sigma_n_for_isnr(5, 1.0, 100, isnr)

    @given(st.floats(min_value=-20.0, max_value=60.0))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, target):
        sn2 = q.sigma_n_for_isnr(10, 1.0, 1000, target)
        assert 10 * math.log10(10 * 1.0 / (1000 * sn2)) == pytest.approx(target, abs=1e-9)


class TestGaussianMatrix:
    def test_entry_variance(self):
        phi = q.gen_gaussian_matrix(500, 1000, np.random.default_rng(123))
        var = float(np.var(phi.entries))
        assert abs(var - 1 / 500) <= 0.05 / 500

    def test_degenerate_and_wide_shapes(self):
        one = q.gen_gaussian_matrix(1, 1, np.random.default_rng(0))
        assert one.entries.shape == (1, 1)
        wide = q.gen_gaussian_matrix(2000, 1000, np.random.default_rng(0))
        assert wide.rows == 2000 and wide.cols == 1000
        assert not wide.entries.flags.writeable
        with pytest.raises(q.InvalidParameterError, match="entries must be 2-D"):
            q.SensingMatrix(np.zeros(3))

    @pytest.mark.parametrize("m, n", [(1, 1), (7, 3), (300, 1000)])
    def test_entries_are_scaled_standard_normals(self, m, n):
        phi = q.gen_gaussian_matrix(m, n, np.random.default_rng(42))
        draw = np.random.default_rng(42).standard_normal((m, n)) / np.sqrt(m)
        assert np.array_equal(phi.entries, draw)

    def test_buffer_draw_matches_fresh_draw(self):
        for m, n, rows in [(300, 1000, 300), (7, 3, 9), (1, 1, 4)]:
            buf = np.full((rows, n), np.nan)
            phi = q.gen_gaussian_matrix(m, n, np.random.default_rng(42), out=buf)
            fresh = q.gen_gaussian_matrix(m, n, np.random.default_rng(42))
            assert phi.entries.tobytes() == fresh.entries.tobytes()
            assert np.shares_memory(phi.entries, buf)
            assert np.isnan(buf[m:]).all()
        for bad in [np.empty(20), np.empty((3, 5)), np.empty((4, 6))]:
            with pytest.raises(q.InvalidParameterError):
                q.gen_gaussian_matrix(4, 5, np.random.default_rng(0), out=bad)


class TestTightFrame:
    def test_gram_identity(self):
        phi = q.gen_gaussian_matrix(250, 1000, np.random.default_rng(7))
        tf = q.make_tight_frame(phi)
        gram = tf.entries @ tf.entries.T
        assert np.max(np.abs(gram - 4.0 * np.eye(250))) <= 1e-8

    def test_row_norms_at_half_rate(self):
        phi = q.gen_gaussian_matrix(500, 1000, np.random.default_rng(8))
        tf = q.make_tight_frame(phi)
        gram = tf.entries @ tf.entries.T
        assert np.allclose(np.diag(gram), 2.0, atol=1e-10)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) <= 1e-8

    def test_idempotent_property_and_row_space(self):
        phi = q.gen_gaussian_matrix(60, 200, np.random.default_rng(9))
        tf = q.make_tight_frame(phi)
        tf2 = q.make_tight_frame(tf)
        gram = tf2.entries @ tf2.entries.T
        assert np.max(np.abs(gram - (200 / 60) * np.eye(60))) <= 1e-8
        # Same row space: the orthogonal projectors coincide.
        def projector(a):
            qmat, _ = np.linalg.qr(a.T)
            return qmat @ qmat.T

        assert np.allclose(projector(phi.entries), projector(tf.entries), atol=1e-10)

    def test_rank_deficient_rejected(self):
        rng = np.random.default_rng(10)
        base = rng.standard_normal((4, 50))
        base[3] = base[0] + base[1]
        phi = q.SensingMatrix(base)
        with pytest.raises(q.QcsLabError, match="input matrix is rank deficient"):
            q.make_tight_frame(phi)

    def test_wide_required(self):
        phi = q.gen_gaussian_matrix(20, 10, np.random.default_rng(0))
        with pytest.raises(q.InvalidParameterError):
            q.make_tight_frame(phi)


class TestMeasure:
    def test_zero_signal_no_noise(self):
        phi = q.gen_gaussian_matrix(10, 30, np.random.default_rng(0))
        y = q.measure(phi, np.zeros(30))
        assert np.array_equal(y, np.zeros(10))

    def test_scalar_identity(self):
        phi = q.SensingMatrix(np.array([[1.0]]))
        assert q.measure(phi, np.array([2.0]))[0] == 2.0

    def test_noiseless_is_exact_product(self):
        rng = np.random.default_rng(4)
        phi = q.gen_gaussian_matrix(40, 100, rng)
        x = rng.standard_normal(100)
        assert np.array_equal(q.measure(phi, x), phi.entries @ x)

    def test_folded_noise_variance(self):
        rng = np.random.default_rng(12)
        tf = q.make_tight_frame(q.gen_gaussian_matrix(250, 1000, rng))
        samples = np.concatenate(
            [q.measure(tf, rng.standard_normal(1000)) for _ in range(60)]
        )
        assert samples.size >= 10_000
        assert abs(float(np.var(samples)) - 4.0) <= 0.2

    def test_dimension_mismatch(self):
        phi = q.gen_gaussian_matrix(10, 30, np.random.default_rng(0))
        with pytest.raises(q.InvalidParameterError, match="signal length"):
            q.measure(phi, np.zeros(29))


class TestMeasurementCovariance:
    def test_tight_frame_measurements_uncorrelated(self):
        # Reduced-scale statistical check of the whitening law: diagonal
        # near (k/m) sigma_x2, off-diagonal z-scores standard normal.
        m, n, k, draws = 64, 256, 4, 20_000
        rng = np.random.default_rng(77)
        tf = q.make_tight_frame(q.gen_gaussian_matrix(m, n, rng))
        y = np.empty((m, draws))
        for t in range(draws):
            x = q.gen_sparse_signal(n, k, 1.0, rng)
            y[:, t] = tf.entries @ x.values
        cov = y @ y.T / draws
        second = (y**2) @ (y**2).T / draws
        se = np.sqrt(np.maximum(second - cov**2, 1e-30) / draws)
        # Diagonal: every variance within its Bonferroni bar (family-wise
        # false-alarm rate 1e-3 over the m entries) of k/m.
        z_diag = np.abs(np.diag(cov) - k / m) / np.diag(se)
        assert float(np.max(z_diag)) <= NormalDist().inv_cdf(1 - 1e-3 / (2 * m))
        iu = np.triu_indices(m, k=1)
        z = np.abs(cov[iu]) / se[iu]
        # Calibrated fluctuations: ~N(0,1) scores, extreme value within the
        # Gumbel range for this many pairs, exceedance rate near 0.27%.
        assert abs(float(np.mean(z**2)) - 1.0) <= 0.1
        assert float(np.max(z)) <= math.sqrt(2 * math.log(z.size)) + 1.5
        assert float(np.mean(z > 3)) <= 0.01


class TestSeeding:
    def test_derive_seed_stable_and_distinct(self):
        a = q.derive_seed(1, 10, 2.0, "x")
        assert a == q.derive_seed(1, 10, 2.0, "x")
        assert a != q.derive_seed(2, 10, 2.0, "x")
        assert a != q.derive_seed(1, 10, 2.5, "x")
        assert 0 <= a < 2**63

