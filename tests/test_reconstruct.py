import tracemalloc

import numpy as np
import pytest

import qcslab as q
from qcslab import reconstruct
from qcslab.reconstruct import _GATHER_BLOCK, BihtVariant


def _instance(n, k, m, seed, sigma_n2=0.0):
    rng = np.random.default_rng(seed)
    x = q.gen_sparse_signal(n, k, 1.0, rng)
    phi = q.gen_gaussian_matrix(m, n, rng)
    y = phi.entries @ x.values
    if sigma_n2 > 0:
        y = y + phi.entries @ (np.sqrt(sigma_n2) * rng.standard_normal(n))
    return x, phi, y


def _biht_dense(phi, y_sign, variant, k, max_iter=100):
    """BIHT as a dense loop: two full products with Phi per iteration.

    The reference for q.biht, which gathers columns and rows and so sums
    in another order. Also returns a trace of the path: the support of
    each iterate, the share of sign-disagreeing rows at each gradient
    step, the number of restarts from -g, and how close the path comes to
    a tie that rounding could break. "margin" is the least |Phi x| over rows of Phi that are not all
    zero, relative to max |Phi x|; "gap" is the least gap between the k-th
    and (k+1)-th largest magnitude at a thresholding, relative to the
    largest (inf when k = n). "ham_lo" and "ham_hi" count, per iteration,
    the disagreeing rows with |Phi x| above _NEAR_ZERO (relative), and
    those plus the rows below it, whose sign follows the summation order.
    """
    a = phi.entries
    live = np.any(a != 0.0, axis=1)
    trace = {"shares": [], "restarts": 0, "margin": np.inf, "gap": np.inf,
             "ham_lo": [], "ham_hi": [], "supports": []}

    def threshold(v):
        if k < v.size:
            mags = np.sort(np.abs(v))[::-1]
            trace["gap"] = min(trace["gap"], (mags[k - 1] - mags[k]) / mags[0])
        return q.hard_threshold(v, k)

    x = threshold(a.T @ y_sign)
    x = x / np.linalg.norm(x)
    best_x, best_ham = x.copy(), np.inf
    it = 0
    for it in range(1, max_iter + 1):
        trace["supports"].append(frozenset(np.flatnonzero(x).tolist()))
        ax = a @ x
        mags = np.abs(ax)
        trace["margin"] = min(trace["margin"], np.min(mags[live]) / np.max(mags))
        near = mags <= _NEAR_ZERO * np.max(mags)
        bad = q.sign_quantize(ax) != y_sign
        trace["ham_lo"].append(int(np.sum(bad & ~near)))
        trace["ham_hi"].append(int(np.sum(bad | near)))
        ham = float(np.mean(bad))
        if ham < best_ham:
            best_ham, best_x = ham, x.copy()
        if ham == 0.0:
            break
        trace["shares"].append(ham)
        r_neg = np.minimum(y_sign * ax, 0.0)
        if variant is BihtVariant.ONE_SIDED_L1:
            g = a.T @ (y_sign * np.sign(r_neg))
        else:
            g = a.T @ (y_sign * r_neg)
        x_next = threshold(x - g)
        if not np.any(x_next):
            if not np.any(g):
                return q.ReconResult(np.zeros(phi.cols), it, False, best_ham), trace
            trace["restarts"] += 1
            x_next = threshold(-g)
        x = x_next
    res = q.ReconResult(best_x / np.linalg.norm(best_x), it, best_ham == 0.0, best_ham)
    return res, trace


# |Phi x| below this share of max |Phi x| is treated as a tie: the two
# loops round it differently, so its sign may differ between them.
_NEAR_ZERO = 1e-10


def _assert_matches_dense(res, ref, trace):
    # Equal counts are owed only on paths that keep clear of ties; the
    # margins here are far above what rounding can move.
    assert trace["margin"] > 100 * _NEAR_ZERO
    assert trace["gap"] > 100 * _NEAR_ZERO
    assert res.iterations == ref.iterations
    assert res.converged == ref.converged
    assert res.consistency_hamming == ref.consistency_hamming
    assert np.max(np.abs(res.estimate - ref.estimate)) <= 1e-12


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
        phi = q.SensingMatrix(entries)
        with pytest.raises(q.QcsLabError, match="support submatrix is rank deficient"):
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


def _assert_kkt(a, y, x_hat, eps):
    """The optimality conditions of min ||x||_1 s.t. ||y - a x|| <= eps,
    from the estimate alone: the residual sits on the ball, and its
    correlations c = a^T r share one magnitude lam on the support, with
    the signs of the estimate, and exceed it nowhere."""
    r = y - a @ x_hat
    c = a.T @ r
    sup = np.flatnonzero(x_hat)
    assert sup.size > 0
    lam = float(np.max(np.abs(c[sup])))
    assert lam > 0.0
    assert abs(float(np.linalg.norm(r)) - eps) <= 1e-9 * eps
    assert np.all(np.abs(np.abs(c[sup]) - lam) <= 1e-6 * lam)
    assert np.array_equal(np.sign(c[sup]), np.sign(x_hat[sup]))
    assert float(np.max(np.abs(c))) <= lam * (1 + 1e-6)


def _assert_active_set(act, a, members):
    """idx lists members first and is a permutation of the columns, and
    row i of the row store is phi_idx[i]^T Phi for every active i."""
    k = act.k
    assert list(act.idx[:k]) == members
    assert np.array_equal(np.sort(act.idx), np.arange(a.shape[1]))
    assert np.array_equal(act.pos[act.idx], np.arange(a.shape[1]))
    assert np.allclose(act.rows[:k], a[:, members].T @ a, rtol=0, atol=1e-12)


class TestBpdn:
    def test_zero_when_eps_dominates(self):
        _, phi, y = _instance(100, 3, 40, 1)
        res = q.bpdn(phi, y, float(np.linalg.norm(y)) * 1.01)
        assert res.converged
        assert np.array_equal(res.estimate, np.zeros(100))

    @pytest.mark.parametrize(
        "eps, bad_y",
        [
            pytest.param(-1.0, None, id="negative"),
            pytest.param(float("nan"), None, id="nan"),
            pytest.param(1.0, float("nan"), id="nan_y"),
            pytest.param(1.0, float("inf"), id="inf_y"),
        ],
    )
    def test_negative_eps_rejected(self, eps, bad_y):
        # Also a NaN eps, which fails no ordered comparison, and a
        # measurement vector with a non-finite entry.
        _, phi, y = _instance(100, 3, 40, 1)
        if bad_y is not None:
            y = y.copy()
            y[7] = bad_y
        with pytest.raises(q.InvalidParameterError):
            q.bpdn(phi, y, eps)

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

    @pytest.mark.parametrize("m", [128, 192])
    def test_square_and_tall_feasibility_and_l1(self, m):
        # m = n and m = 1.5 n: the active set can hold every column.
        for seed in range(3):
            x, phi, y = _instance(128, 4, m, 60 + seed)
            y_q = q.uniform_quantize(y, q.dynamic_range(y), 3)
            eps = float(np.linalg.norm(y - y_q))
            res = q.bpdn(phi, y_q, eps)
            assert res.converged
            resid = float(np.linalg.norm(y_q - phi.entries @ res.estimate))
            assert resid <= eps * (1 + 1e-6) + 1e-12
            # The true signal is feasible here, so it bounds the optimum.
            assert np.abs(res.estimate).sum() <= np.abs(x.values).sum() * (1 + 1e-3)

    @pytest.mark.parametrize("m", [30, 60])
    def test_rank_deficient_matrix_certified(self, m):
        # A zero row, a zero column and a repeated column: both Gram
        # matrices are singular, and the repeated column's correlation
        # with the residual equals its twin's all along the path.
        x, phi, _ = _instance(40, 2, m, 90)
        entries = phi.entries.copy()
        entries[3, :] = 0.0
        entries[:, 5] = 0.0
        entries[:, 7] = entries[:, x.support[0]]
        phi = q.SensingMatrix(entries)
        y = entries @ x.values
        y_q = q.uniform_quantize(y, q.dynamic_range(y), 3)
        eps = float(np.linalg.norm(y - y_q))
        with np.errstate(all="raise"):
            res = q.bpdn(phi, y_q, eps)
        assert res.converged
        assert float(np.linalg.norm(y_q - entries @ res.estimate)) <= eps * (1 + 1e-6) + 1e-12
        _assert_kkt(entries, y_q, res.estimate, eps)

    @pytest.mark.parametrize("m", [64, 128, 192])
    def test_certificate_from_estimate(self, m):
        # m < n, m = n and m > n, with signal noise so that no sparse
        # vector fits y exactly.
        for seed in range(3):
            x, phi, y = _instance(128, 4, m, 40 + seed, sigma_n2=0.01)
            y_q = q.uniform_quantize(y, q.dynamic_range(y), 3)
            eps = float(np.linalg.norm(y - y_q))
            res = q.bpdn(phi, y_q, eps)
            assert res.converged
            _assert_kkt(phi.entries, y_q, res.estimate, eps)

    @pytest.mark.parametrize("seed", [12, 14, 26])
    def test_eps_just_above_least_squares_residual(self, seed):
        # A tall Phi and measurement noise outside its range, with eps 0.1%
        # above the least-squares residual: the path runs almost to its
        # end, where an index that leaves has to rejoin with the other sign.
        rng = np.random.default_rng(seed)
        x = q.gen_sparse_signal(30, 4, 1.0, rng)
        phi = q.gen_gaussian_matrix(45, 30, rng)
        y = phi.entries @ x.values + 0.05 * rng.standard_normal(45)
        fit = np.linalg.lstsq(phi.entries, y, rcond=None)[0]
        eps = 1.001 * float(np.linalg.norm(y - phi.entries @ fit))
        res = q.bpdn(phi, y, eps)
        assert res.converged
        _assert_kkt(phi.entries, y, res.estimate, eps)

    @pytest.mark.parametrize("n, m", [(128, 192), (256, 160)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_gram_path_matches_product_path(self, n, m, seed, monkeypatch):
        # m > n and m < n, each with more than _GRAM_JOINS joins: the rows
        # read from Phi^T Phi give the path that per-join products give.
        x, phi, y = _instance(n, 4, m, seed, sigma_n2=0.05)
        y_q = q.uniform_quantize(y, q.dynamic_range(y), 3)
        eps = float(np.linalg.norm(y - y_q))
        fills = []
        fill = reconstruct._ActiveSet._fill_gram

        def counted(act):
            fills.append(act.joins)
            fill(act)

        monkeypatch.setattr(reconstruct._ActiveSet, "_fill_gram", counted)
        res = q.bpdn(phi, y_q, eps)
        assert fills == [reconstruct._GRAM_JOINS]
        assert res.converged
        _assert_kkt(phi.entries, y_q, res.estimate, eps)
        monkeypatch.setattr(reconstruct, "_GRAM_JOINS", 10 * res.iterations)
        ref = q.bpdn(phi, y_q, eps)
        assert len(fills) == 1
        assert ref.iterations == res.iterations
        assert np.max(np.abs(res.estimate - ref.estimate)) <= 1e-12

    def test_active_set_inverse_matches_dense_solve(self):
        # Adds and removes enough columns to fold the rank-one terms into
        # the stored inverse several times, and to pass _GRAM_JOINS, so
        # that the rows come from products before it and from Phi^T Phi
        # after it; a column in the span of the active ones, and a zero
        # column, are refused and change nothing. The row store holds
        # min(m, n, _GRAM_JOINS) rows until the switch and n after it.
        rng = np.random.default_rng(5)
        a = rng.standard_normal((60, 80))
        a[:, 10] = a[:, 0] - 2.0 * a[:, 1]
        a[:, 11] = 0.0
        act = reconstruct._ActiveSet(a)
        members = []
        removed = {False: 0, True: 0}  # removals before and after the switch
        for _ in range(6 * reconstruct._REFRESH_STEPS):
            if len(members) == 28 or (len(members) > 5 and rng.random() < 0.4):
                p = int(rng.integers(len(members)))
                act.remove(p)
                members[p] = members[-1]
                members.pop()
                removed[act.joins > reconstruct._GRAM_JOINS] += 1
            else:
                j = int(rng.choice(np.setdiff1d(np.arange(12, 40), members)))
                assert act.add(j, 1.0)
                members.append(j)
                if act.joins - reconstruct._GRAM_JOINS in (0, 1):
                    rows = 60 if act.joins == reconstruct._GRAM_JOINS else 80
                    assert act.rows.shape == (rows, 80)
            _assert_active_set(act, a, members)
            v = rng.standard_normal(act.k)
            sub = a[:, members]
            assert np.allclose(act.apply(v), np.linalg.solve(sub.T @ sub, v), rtol=1e-9, atol=1e-12)
        assert act.joins > reconstruct._GRAM_JOINS + 10
        assert min(removed.values()) >= 10
        for j in (0, 1):
            if j not in members:
                assert act.add(j, 1.0)
                members.append(j)
        k = act.k
        assert not act.add(10, 1.0)
        assert not act.add(11, 1.0)
        assert act.k == k
        _assert_active_set(act, a, members)

    def test_iteration_cap_reported(self, monkeypatch):
        monkeypatch.setattr(reconstruct, "_BPDN_MAX_STEPS", 10)
        _, phi, y = _instance(256, 4, 100, 70)
        y_q = q.uniform_quantize(y, q.dynamic_range(y), 4)
        res = q.bpdn(phi, y_q, float(np.linalg.norm(y - y_q)))
        assert not res.converged
        assert res.iterations == 10

    def test_no_floating_point_warnings(self):
        for m, eps_scale in ((100, 0.0), (100, 1.0), (384, 1.0)):
            _, phi, y = _instance(256, 4, m, 80)
            y_q = q.uniform_quantize(y, q.dynamic_range(y), 4)
            eps = eps_scale * float(np.linalg.norm(y - y_q))
            with np.errstate(all="raise"):
                q.bpdn(phi, y_q, eps)

    def test_debias_recovers_exactly(self):
        x, phi, y = _instance(256, 4, 100, 30)
        rough = q.bpdn(phi, y, 1e-6)
        support = np.flatnonzero(q.hard_threshold(rough.estimate, 4))
        refit = q.oracle_ls(phi, y, support)
        assert np.max(np.abs(refit - x.values)) <= 1e-8


class TestBiht:
    def test_spike_support_recovery(self):
        rng = np.random.default_rng(3)
        hits = 0
        for _ in range(60):
            x = q.gen_sparse_signal(256, 1, 1.0, rng)
            phi = q.gen_gaussian_matrix(512, 256, rng)
            y_s = q.sign_quantize(phi.entries @ x.values)
            res = q.biht(phi, y_s, 1, BihtVariant.ONE_SIDED_L1)
            hits += int(np.argmax(np.abs(res.estimate)) == x.support[0])
        assert hits >= 57  # >= 95%

    def test_unit_norm_output(self):
        x, phi, y = _instance(128, 4, 256, 5)
        res = q.biht(phi, q.sign_quantize(y), 4, BihtVariant.ONE_SIDED_L2)
        assert np.linalg.norm(res.estimate) == pytest.approx(1.0, abs=1e-12)

    def test_consistent_result_has_zero_hamming(self):
        x, phi, y = _instance(128, 2, 512, 6)
        y_s = q.sign_quantize(y)
        res = q.biht(phi, y_s, 2, BihtVariant.ONE_SIDED_L1)
        if res.converged:
            assert res.consistency_hamming == 0.0
            assert q.hamming_consistency(y_s, phi, res.estimate) == 0.0

    def test_never_worse_than_initial_proxy(self):
        for seed in range(8):
            x, phi, y = _instance(128, 4, 256, 40 + seed, sigma_n2=0.01)
            y_s = q.sign_quantize(y)
            x0 = q.hard_threshold(phi.entries.T @ y_s, 4)
            init_ham = q.hamming_consistency(y_s, phi, x0)
            res = q.biht(phi, y_s, 4, BihtVariant.ONE_SIDED_L2)
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
            r1 = q.biht(phi, y_s, 4, BihtVariant.ONE_SIDED_L1)
            r2 = q.biht(phi, y_s, 4, BihtVariant.ONE_SIDED_L2)
            gains_l1.append(q.rsnr_db(x.values, r1.estimate, rescale_1bit=True))
            gains_l2.append(q.rsnr_db(x.values, r2.estimate, rescale_1bit=True))
        assert np.mean(gains_l2) >= np.mean(gains_l1)

    def test_matches_dense_reference(self):
        # Both variants, m < n and m > n, ISNR 35 and 5 dB: the
        # sign-disagreeing rows the gradient gathers run to several blocks.
        gathered = []
        for variant in BihtVariant:
            for m in (160, 640, 1600):
                for isnr in (35.0, 5.0):
                    _, phi, y = _instance(
                        256, 4, m, 70 + m, q.sigma_n_for_isnr(4, 1.0, 256, isnr)
                    )
                    y_s = q.sign_quantize(y)
                    res = q.biht(phi, y_s, 4, variant)
                    ref, trace = _biht_dense(phi, y_s, variant, 4)
                    _assert_matches_dense(res, ref, trace)
                    gathered += [round(s * m) for s in trace["shares"]]
        assert max(gathered) > 3 * _GATHER_BLOCK

    def test_block_swaps_columns_that_enter_and_leave(self):
        # biht_l1 at ISNR 5 dB: nearly every step keeps some support columns,
        # drops others and gains new ones, so the block is refreshed in part,
        # and the best iterate comes after 75 such steps.
        _, phi, y = _instance(256, 8, 512, 81, q.sigma_n_for_isnr(8, 1.0, 256, 5.0))
        y_s = q.sign_quantize(y)
        res = q.biht(phi, y_s, 8, BihtVariant.ONE_SIDED_L1)
        ref, trace = _biht_dense(phi, y_s, BihtVariant.ONE_SIDED_L1, 8)
        _assert_matches_dense(res, ref, trace)
        supports = trace["supports"]
        mixed = [s & t and s - t and t - s for s, t in zip(supports, supports[1:])]
        assert sum(map(bool, mixed)) > 90
        assert np.argmin(trace["ham_lo"]) > 50

    def test_block_with_frozen_support(self):
        # biht_l2 at ISNR 35 dB: the support changes in the first half of
        # the run, then holds for the rest, so the block is left as it is.
        _, phi, y = _instance(256, 4, 1600, 1670, q.sigma_n_for_isnr(4, 1.0, 256, 35.0))
        y_s = q.sign_quantize(y)
        res = q.biht(phi, y_s, 4, BihtVariant.ONE_SIDED_L2)
        ref, trace = _biht_dense(phi, y_s, BihtVariant.ONE_SIDED_L2, 4)
        _assert_matches_dense(res, ref, trace)
        supports = trace["supports"]
        assert res.iterations == 100 and len(set(supports)) > 1
        assert len(set(supports[50:])) == 1

    def test_peak_memory_below_an_eighth_of_phi(self):
        # biht holds a k x m block, one 64-row gather and vectors of length
        # m or n (about 0.7 MB here); a copy or transpose of the whole Phi
        # (16 MB) would break the limit.
        _, phi, y = _instance(512, 8, 4096, 90, q.sigma_n_for_isnr(8, 1.0, 512, 5.0))
        y_s = q.sign_quantize(y)
        tracemalloc.start()
        try:
            q.biht(phi, y_s, 8, BihtVariant.ONE_SIDED_L1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= phi.entries.nbytes / 8

    @pytest.mark.parametrize("variant", list(BihtVariant))
    def test_dense_iterate_matches_reference(self, variant):
        # k = n: the block holds every column of Phi.
        _, phi, y = _instance(64, 64, 256, 11, sigma_n2=0.1)
        y_s = q.sign_quantize(y)
        res = q.biht(phi, y_s, 64, variant)
        ref, trace = _biht_dense(phi, y_s, variant, 64)
        _assert_matches_dense(res, ref, trace)

    @pytest.mark.parametrize("sigma_n2", [0.0, 0.1])
    def test_near_zero_measurements_bracketed(self, sigma_n2):
        # At m = 96, n = k = 64 the l2 variant drives disagreeing
        # measurements toward Phi x = 0, down to ~1e-17, where their signs,
        # and so the Hamming count, follow the summation order. The l2
        # gradient weights each row by its own y Phi x, so such rows barely
        # move the iterate and both loops follow one path: each count of
        # biht's lies between the reference's counts without and with the
        # near-zero rows, and so does the least of them.
        m = 96
        _, phi, y = _instance(64, 64, m, 11, sigma_n2)
        y_s = q.sign_quantize(y)
        res = q.biht(phi, y_s, 64, BihtVariant.ONE_SIDED_L2)
        ref, trace = _biht_dense(phi, y_s, BihtVariant.ONE_SIDED_L2, 64)
        assert trace["margin"] < _NEAR_ZERO
        count = round(res.consistency_hamming * m)
        assert min(trace["ham_lo"]) <= count <= min(trace["ham_hi"])
        assert res.converged == (count == 0)
        assert res.iterations == ref.iterations or res.converged or ref.converged
        # The estimate is the iterate whose count was reported.
        ax = phi.entries @ res.estimate
        near = np.abs(ax) <= _NEAR_ZERO * np.max(np.abs(ax))
        bad = q.sign_quantize(ax) != y_s
        assert np.sum(bad & ~near) <= count <= np.sum(bad | near)
        assert np.linalg.norm(res.estimate) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "variant, column, y_head",
        [
            (BihtVariant.ONE_SIDED_L1, [0.5, 0.5, 1.25], [1, 1, -1]),
            (BihtVariant.ONE_SIDED_L2, [0.5, 0.5, 0.5, 0.5, 2.5], [1, 1, 1, 1, -1]),
        ],
    )
    def test_restart_from_negative_gradient(self, variant, column, y_head, monkeypatch):
        # One column, zero below the listed entries, y = +1 below y_head.
        # Phi^T y < 0, so the proxy is x = -1; the rows with y = +1
        # disagree, and their gradient g equals x (sum |a| = 1 for l1,
        # sum a^2 = 1 for l2). So H_1(x - g) = 0 and BIHT restarts from
        # -g = +1, where only the y = -1 row disagrees: the count falls to
        # 1/16, which a restart in the wrong direction would not reach.
        # Every value is a short dyadic fraction, so both loops compute it
        # exactly within 10 iterations.
        entries = np.zeros((16, 1))
        entries[: len(column), 0] = column
        phi = q.SensingMatrix(entries)
        y_s = np.ones(16)
        y_s[: len(y_head)] = y_head
        monkeypatch.setattr(reconstruct, "_BIHT_MAX_ITERS", 10)
        res = q.biht(phi, y_s, 1, variant)
        ref, trace = _biht_dense(phi, y_s, variant, 1, max_iter=10)
        assert trace["restarts"] > 0
        assert res.iterations == 10 and not res.converged
        assert res.consistency_hamming == 1 / 16
        assert res.estimate.tolist() == [1.0]
        _assert_matches_dense(res, ref, trace)

    def test_input_validation(self):
        _, phi, y = _instance(64, 2, 128, 0)
        with pytest.raises(q.InvalidParameterError):
            q.biht(phi, q.sign_quantize(y), k=0)
        with pytest.raises(q.InvalidParameterError):
            q.biht(phi, y, 2)  # not a sign vector


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

    def test_rsnr_at_any_scale(self):
        # |x|^2 overflows above about 1e154 and leaves the normal floats
        # below about 1e-154; the score must not notice.
        x = 5e153 * np.ones(10)
        assert q.rsnr_db(x, 0.9 * x) == pytest.approx(20.0, abs=1e-12)
        rng = np.random.default_rng(8)
        x = rng.standard_normal(10)
        x_hat = x + 0.04 * rng.standard_normal(10)
        for rescale in (False, True):
            ref = q.rsnr_db(x, x_hat, rescale_1bit=rescale)
            assert ref < 100.0
            for s in (1e-161, 1e-160, 1e-150, 1e-100, 1e100, 1e150, 5e153):
                assert q.rsnr_db(s * x, s * x_hat, rescale_1bit=rescale) == pytest.approx(
                    ref, abs=1e-9
                )

    def test_rsnr_validation(self):
        with pytest.raises(q.InvalidParameterError, match="length mismatch"):
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
