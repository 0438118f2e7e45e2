import numpy as np
import pytest

import qcslab as q
from qcslab.reconstruct import BihtVariant
from qcslab.signal_model import MatrixKind


def _instance(n, k, m, seed, sigma_n2=0.0):
    rng = np.random.default_rng(seed)
    x = q.gen_sparse_signal(n, k, 1.0, rng)
    phi = q.gen_gaussian_matrix(m, n, rng)
    y = phi.entries @ x.values
    if sigma_n2 > 0:
        y = y + phi.entries @ (np.sqrt(sigma_n2) * rng.standard_normal(n))
    return x, phi, y


class TestHardThreshold:
    def test_examples(self):
        assert np.array_equal(q.hard_threshold(np.array([3.0, -4.0, 1.0]), 2), [3, -4, 0])
        v = np.array([0.3, -2.0, 1.5])
        assert np.array_equal(q.hard_threshold(v, 3), v)
        assert np.array_equal(q.hard_threshold(np.array([1.0, 1.0, 1.0]), 1), [1, 0, 0])

    def test_invalid_k(self):
        with pytest.raises(q.InvalidParameterError):
            q.hard_threshold(np.array([1.0]), 0)
        with pytest.raises(q.InvalidParameterError):
            q.hard_threshold(np.array([1.0]), 2)


class TestOracleLs:
    def test_exact_on_noiseless(self):
        for seed in range(5):
            x, phi, y = _instance(200, 5, 50, seed)
            x_hat = q.oracle_ls(phi, y, x.support)
            assert np.max(np.abs(x_hat - x.values)) <= 1e-10

    def test_zero_measurements(self):
        _, phi, _ = _instance(200, 5, 50, 0)
        assert np.array_equal(q.oracle_ls(phi, np.zeros(50), [1, 2, 3]), np.zeros(200))

    def test_rank_deficient_support(self):
        rng = np.random.default_rng(2)
        entries = rng.standard_normal((20, 40))
        entries[:, 1] = entries[:, 0]
        phi = q.SensingMatrix(20, 40, entries, MatrixKind.IID_GAUSSIAN)
        with pytest.raises(q.DegenerateSupportError):
            q.oracle_ls(phi, rng.standard_normal(20), [0, 1])

    def test_support_larger_than_rows(self):
        _, phi, y = _instance(200, 5, 50, 0)
        with pytest.raises(q.InvalidParameterError):
            q.oracle_ls(phi, y, list(range(51)))

    def test_near_consistency_after_quantization(self):
        # Re-quantized oracle reconstructions match the quantized data on
        # all but a few percent of cells; exact agreement is not guaranteed
        # for midpoint quantization, so assert a small flip fraction.
        fracs = []
        for seed in range(5):
            x, phi, y = _instance(1000, 10, 300, 100 + seed)
            t = q.dynamic_range(y)
            y_q = q.uniform_quantize(y, t, 4)
            x_hat = q.oracle_ls(phi, y_q, x.support)
            re_q = q.uniform_quantize(phi.entries @ x_hat, t, 4)
            fracs.append(float(np.mean(re_q != y_q)))
        assert max(fracs) <= 0.12

    def test_exact_consistency_small_instance(self):
        x, phi, y = _instance(64, 1, 30, 0)
        t = q.dynamic_range(y)
        y_q = q.uniform_quantize(y, t, 4)
        x_hat = q.oracle_ls(phi, y_q, x.support)
        assert np.array_equal(q.uniform_quantize(phi.entries @ x_hat, t, 4), y_q)


class TestBpdn:
    def test_zero_when_eps_dominates(self):
        _, phi, y = _instance(100, 3, 40, 1)
        res = q.bpdn(phi, y, float(np.linalg.norm(y)) * 1.01)
        assert res.converged
        assert np.array_equal(res.estimate, np.zeros(100))

    def test_negative_eps_rejected(self):
        _, phi, y = _instance(100, 3, 40, 1)
        with pytest.raises(q.InvalidParameterError):
            q.bpdn(phi, y, -1.0)

    def test_noiseless_high_accuracy(self):
        for seed in range(5):
            x, phi, y = _instance(256, 4, 100, 10 + seed)
            res = q.bpdn(phi, y, 1e-6)
            assert q.rsnr_db(x.values, res.estimate) > 60.0

    def test_quantized_feasibility_and_l1(self):
        for seed in range(5):
            x, phi, y = _instance(256, 4, 100, 20 + seed)
            t = q.dynamic_range(y)
            y_q = q.uniform_quantize(y, t, 4)
            eps = float(np.linalg.norm(y - y_q))
            res = q.bpdn(phi, y_q, eps)
            assert res.converged
            resid = float(np.linalg.norm(y_q - phi.entries @ res.estimate))
            assert resid <= eps * (1 + 1e-6) + 1e-12
            # The true signal is feasible here, so it bounds the optimum.
            assert np.abs(res.estimate).sum() <= np.abs(x.values).sum() * (1 + 1e-3)

    def test_debias_recovers_exactly(self):
        x, phi, y = _instance(256, 4, 100, 30)
        rough = q.bpdn(phi, y, 1e-6)
        refit = q.debias_on_support(phi, y, rough.estimate, k=4)
        assert np.max(np.abs(refit - x.values)) <= 1e-8


class TestBiht:
    def test_spike_support_recovery(self):
        rng = np.random.default_rng(3)
        hits = 0
        for _ in range(60):
            x = q.gen_sparse_signal(256, 1, 1.0, rng)
            phi = q.gen_gaussian_matrix(512, 256, rng)
            y_s = q.sign_quantize(phi.entries @ x.values)
            res = q.biht(phi, y_s, BihtVariant.ONE_SIDED_L1, q.SolverOptions(k=1))
            hits += int(np.argmax(np.abs(res.estimate)) == x.support[0])
        assert hits >= 57  # >= 95%

    def test_unit_norm_output(self):
        x, phi, y = _instance(128, 4, 256, 5)
        res = q.biht(phi, q.sign_quantize(y), BihtVariant.ONE_SIDED_L2, q.SolverOptions(k=4))
        assert np.linalg.norm(res.estimate) == pytest.approx(1.0, abs=1e-12)

    def test_consistent_result_has_zero_hamming(self):
        x, phi, y = _instance(128, 2, 512, 6)
        y_s = q.sign_quantize(y)
        res = q.biht(phi, y_s, BihtVariant.ONE_SIDED_L1, q.SolverOptions(k=2))
        if res.converged:
            assert res.consistency_hamming == 0.0
            assert q.hamming_consistency(y_s, phi, res.estimate) == 0.0

    def test_never_worse_than_initial_proxy(self):
        for seed in range(8):
            x, phi, y = _instance(128, 4, 256, 40 + seed, sigma_n2=0.01)
            y_s = q.sign_quantize(y)
            x0 = q.hard_threshold(phi.entries.T @ y_s, 4)
            init_ham = q.hamming_consistency(y_s, phi, x0)
            res = q.biht(phi, y_s, BihtVariant.ONE_SIDED_L2, q.SolverOptions(k=4))
            assert res.consistency_hamming <= init_ham + 1e-12

    def test_l2_beats_l1_in_heavy_noise(self):
        rng = np.random.default_rng(50)
        sn2 = q.sigma_n_for_isnr(4, 1.0, 256, 5.0)
        gains_l1, gains_l2 = [], []
        for _ in range(15):
            x = q.gen_sparse_signal(256, 4, 1.0, rng)
            phi = q.gen_gaussian_matrix(512, 256, rng)
            y = phi.entries @ (x.values + np.sqrt(sn2) * rng.standard_normal(256))
            y_s = q.sign_quantize(y)
            r1 = q.biht(phi, y_s, BihtVariant.ONE_SIDED_L1, q.SolverOptions(k=4))
            r2 = q.biht(phi, y_s, BihtVariant.ONE_SIDED_L2, q.SolverOptions(k=4))
            gains_l1.append(q.rsnr_db(x.values, r1.estimate, rescale_1bit=True))
            gains_l2.append(q.rsnr_db(x.values, r2.estimate, rescale_1bit=True))
        assert np.mean(gains_l2) >= np.mean(gains_l1)

    def test_input_validation(self):
        _, phi, y = _instance(64, 2, 128, 0)
        with pytest.raises(q.InvalidParameterError):
            q.biht(phi, q.sign_quantize(y), opts=q.SolverOptions())  # k missing
        with pytest.raises(q.InvalidParameterError):
            q.biht(phi, y, opts=q.SolverOptions(k=2))  # not a sign vector


class TestMetrics:
    def test_rsnr_examples(self):
        x = np.array([1.0, 0.0, 0.0])
        assert q.rsnr_db(x, x) == 300.0
        assert q.rsnr_db(x, np.zeros(3)) == pytest.approx(0.0, abs=1e-12)
        assert q.rsnr_db(x, 0.5 * x, rescale_1bit=True) == 300.0

    def test_squared_error_examples(self):
        x = np.array([3.0, 4.0, 0.0])
        assert q.squared_error(x, 0.5 * x) == pytest.approx(6.25)
        assert q.squared_error(x, 0.5 * x, rescale_1bit=True) == 0.0
        assert q.squared_error(x, np.zeros(3), rescale_1bit=True) == 25.0

    def test_rsnr_scale_invariance(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(50)
        x_hat = x + 0.1 * rng.standard_normal(50)
        a = q.rsnr_db(x, x_hat)
        b = q.rsnr_db(3.7 * x, 3.7 * x_hat)
        assert a == pytest.approx(b, abs=1e-9)

    def test_rsnr_validation(self):
        with pytest.raises(q.DimensionMismatchError):
            q.rsnr_db(np.zeros(3), np.zeros(2))
        with pytest.raises(q.InvalidParameterError):
            q.rsnr_db(np.zeros(3), np.zeros(3))

    def test_hamming_cases(self):
        x, phi, y = _instance(64, 2, 200, 9)
        y_s = q.sign_quantize(y)
        assert q.hamming_consistency(y_s, phi, x.values) == 0.0
        assert q.hamming_consistency(y_s, phi, -x.values) == 1.0

    def test_hamming_random_direction_near_half(self):
        rng = np.random.default_rng(17)
        hams = []
        for _ in range(100):
            x = q.gen_sparse_signal(128, 4, 1.0, rng)
            phi = q.gen_gaussian_matrix(400, 128, rng)
            y_s = q.sign_quantize(phi.entries @ x.values)
            u = rng.standard_normal(128)
            hams.append(q.hamming_consistency(y_s, phi, u / np.linalg.norm(u)))
        assert abs(float(np.mean(hams)) - 0.5) <= 0.05
