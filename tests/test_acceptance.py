"""Acceptance suite: one test per release criterion, with a printed verdict.

Statistical criteria run at pinned seeds so the suite is deterministic;
scales and tolerances are fixed by the criteria themselves, not tuned at
runtime. The Monte-Carlo fixtures below are shared across criteria to
keep the suite inside a few minutes.
"""

import math
import subprocess
import sys
import time
from collections import defaultdict
from statistics import NormalDist

import numpy as np
import pytest

import qcslab as q
from qcslab import harness
from qcslab.presets import sweep_preset


def _verdict(num, name, ok):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def fig2_table():
    # Full-scale oracle sweep: N=1000, K=10, budget 3N, B in 2..12,
    # ISNR {35,20,10,5}, 100 trials.
    return q.run_sweep(sweep_preset("fig2"))


@pytest.fixture(scope="module")
def ci_table():
    # Reduced-scale practical-algorithm sweep: N=256, K=4, budget 2N,
    # 30 trials, oracle + BPDN + both 1-bit solvers.
    return q.run_sweep(sweep_preset("ci"))


def test_criterion_01_bound_minima():
    t0 = time.perf_counter()
    argmins = {
        isnr: q.optimal_bitdepth(q.params_for_isnr(isnr), range(2, 13), mode="inner").argmin_b
        for isnr in (35.0, 20.0, 10.0, 5.0)
    }
    elapsed = time.perf_counter() - t0
    ok = argmins == {35.0: 7, 20.0: 5, 10.0: 2, 5.0: 2} and elapsed < 1.0
    _verdict(1, "bound curve minima 7/5/2/2", ok)
    assert argmins[35.0] == 7
    assert argmins[20.0] == 5
    assert argmins[10.0] == 2
    assert argmins[5.0] == 2
    assert elapsed < 1.0


def test_criterion_02_oracle_sweep_minima(fig2_table):
    errs = defaultdict(list)
    for r in fig2_table.rows:
        errs[(r.isnr_db, r.bit_depth)].append(r.recon_mse)
    targets = {35.0: 8, 20.0: 6, 10.0: 4, 5.0: 3}
    argmins = {}
    for isnr in targets:
        means = {b: float(np.mean(errs[(isnr, b)])) for b in range(2, 13)}
        argmins[isnr] = min(means, key=means.get)
    ok = all(abs(argmins[i] - t) <= 1 for i, t in targets.items())
    _verdict(2, f"oracle sweep minima {argmins} vs {targets} +-1", ok)
    for isnr, target in targets.items():
        assert abs(argmins[isnr] - target) <= 1
    # Supporting trend: the empirical optimum never increases as the
    # input gets noisier.
    ordered = [argmins[i] for i in (35.0, 20.0, 10.0, 5.0)]
    assert all(a >= b for a, b in zip(ordered, ordered[1:]))


def test_criterion_03_noise_folding():
    rng = np.random.default_rng(101)
    tf = q.make_tight_frame(q.gen_gaussian_matrix(250, 1000, rng))
    draws = 200  # 50k folded-noise entries
    noise = rng.standard_normal((1000, draws))
    entries = tf.entries @ noise
    var = float(np.var(entries))
    ok = abs(var - 4.0) <= 0.2
    _verdict(3, f"noise folding variance {var:.4f} in 4.0 +- 0.2", ok)
    assert entries.size >= 10_000
    assert abs(var - 4.0) <= 0.2


def _whiteness_gates(y, target):
    """Family-wise gates for "the columns of y have covariance target * I".

    Every entry of the sample covariance gets a z-score against its own
    standard error, estimated from the sample fourth moments. Each gate
    bounds the false-alarm rate over its whole family of entries, not per
    entry: the largest score of each family against a Bonferroni bar at
    family-wise rate 1e-3, the count of off-diagonal scores beyond 3
    against its binomial mean plus 4 sd, and mean(z^2) against 1 +- 0.1.
    The bars follow from the design alone. Returns {description: passed}.
    """
    alpha = 1e-3
    m, draws = y.shape
    cov = y @ y.T / draws
    second = (y**2) @ (y**2).T / draws
    se = np.sqrt(np.maximum(second - cov**2, 1e-30) / draws)
    iu = np.triu_indices(m, k=1)
    z = np.abs(cov[iu]) / se[iu]
    z_diag = np.abs(np.diag(cov) - target) / np.diag(se)
    pairs = z.size
    z_bar = NormalDist().inv_cdf(1 - alpha / (2 * pairs))
    diag_bar = NormalDist().inv_cdf(1 - alpha / (2 * m))
    p3 = 2 * NormalDist().cdf(-3.0)
    exceed = int(np.sum(z > 3.0))
    exceed_bar = pairs * p3 + 4 * math.sqrt(pairs * p3 * (1 - p3))
    mean_z2 = float(np.mean(z**2))
    return {
        f"max off-diagonal z {z.max():.2f} <= {z_bar:.2f}": z.max() <= z_bar,
        f"{exceed}/{pairs} pairs beyond 3 SE <= {exceed_bar:.0f}": exceed <= exceed_bar,
        f"mean z^2 {mean_z2:.3f} in 1 +- 0.1": abs(mean_z2 - 1.0) <= 0.1,
        f"max diagonal z {z_diag.max():.2f} <= {diag_bar:.2f}": z_diag.max() <= diag_bar,
    }


def _sparse_measurements(phi, k, draws, rng):
    y = np.empty((phi.rows, draws))
    for t in range(draws):
        y[:, t] = phi.entries @ q.gen_sparse_signal(phi.cols, k, 1.0, rng).values
    return y


def test_criterion_04_measurement_covariance():
    m, n, k, draws = 250, 1000, 10, 10_000
    rng = np.random.default_rng(2024)
    tf = q.make_tight_frame(q.gen_gaussian_matrix(m, n, rng))
    gates = _whiteness_gates(_sparse_measurements(tf, k, draws, rng), k / m)
    ok = all(gates.values())
    _verdict(
        4,
        "measurement covariance: "
        + "; ".join(f"{d} {'ok' if g else 'BAD'}" for d, g in gates.items()),
        ok,
    )
    assert ok, "gates failed: " + "; ".join(d for d, g in gates.items() if not g)


def test_criterion_04_negative_control():
    # Without the tight-frame step the rows of Phi are neither orthogonal
    # nor of equal norm, so the measurements are correlated (about 3 SE per
    # pair at the full 10,000 draws, about 2 SE at the 5,000 used here).
    # Every criterion-4 gate must reject them.
    m, n, k, draws = 250, 1000, 10, 5_000
    rng = np.random.default_rng(2024)
    phi = q.gen_gaussian_matrix(m, n, rng)
    gates = _whiteness_gates(_sparse_measurements(phi, k, draws, rng), k / m)
    print("criterion 4 negative control: " + "; ".join(gates))
    assert not any(gates.values()), "gates passed: " + "; ".join(
        d for d, g in gates.items() if g
    )


def test_criterion_05_oracle_error_band():
    rng = np.random.default_rng(55)
    phi = q.gen_gaussian_matrix(300, 1000, rng)
    delta = q.estimate_rip_delta(phi, 10, 500, rng)
    sz2 = 0.01
    errs = np.empty(500)
    for t in range(500):
        x = q.gen_sparse_signal(1000, 10, 1.0, rng)
        noisy = phi.entries @ x.values + math.sqrt(sz2) * rng.standard_normal(300)
        x_hat = q.oracle_ls(phi, noisy, x.support)
        errs[t] = float(np.sum((x.values - x_hat) ** 2))
    mean = float(np.mean(errs))
    sem = float(np.std(errs, ddof=1) / math.sqrt(errs.size))
    lo = 10 * sz2 / (1 + delta) - 3 * sem
    hi = 10 * sz2 / (1 - delta) + 3 * sem
    ok = lo <= mean <= hi
    _verdict(
        5, f"oracle error band: mean {mean:.5f} in [{lo:.5f}, {hi:.5f}] (d={delta:.3f})", ok
    )
    assert lo <= mean <= hi


def test_criterion_06_bpdn_contract():
    rng = np.random.default_rng(606)
    good = 0
    for t in range(100):
        x = q.gen_sparse_signal(1000, 10, 1.0, rng)
        phi = q.gen_gaussian_matrix(300, 1000, rng)
        res = q.bpdn(phi, phi.entries @ x.values, 1e-6)
        good += q.rsnr_db(x.values, res.estimate) > 60.0
    exact_ok = good >= 95

    feas_ok = True
    l1_ok = True
    converged_count = 0
    for t in range(20):
        x = q.gen_sparse_signal(1000, 10, 1.0, rng)
        phi = q.gen_gaussian_matrix(300, 1000, rng)
        y = phi.entries @ x.values
        y_q = q.uniform_quantize(y, q.dynamic_range(y), 4)
        eps = float(np.linalg.norm(y - y_q))
        res = q.bpdn(phi, y_q, eps)
        if not res.converged:
            continue
        converged_count += 1
        resid = float(np.linalg.norm(y_q - phi.entries @ res.estimate))
        feas_ok &= resid <= eps * (1 + 1e-6) + 1e-12
        l1_ok &= float(np.abs(res.estimate).sum()) <= float(
            np.abs(x.values).sum()
        ) * (1 + 1e-3)
    ok = exact_ok and feas_ok and l1_ok and converged_count > 0
    _verdict(
        6,
        f"bpdn contract: {good}/100 trials above 60 dB; "
        f"{converged_count}/20 quantized trials converged, feasibility+l1 held",
        ok,
    )
    assert exact_ok
    assert converged_count > 0
    assert feas_ok
    assert l1_ok


def test_criterion_07_regime_ordering(ci_table):
    isnrs = (35.0, 20.0, 10.0, 5.0)
    # The ci preset requests oracle_ls too; the map ranks the practical decoders.
    points = q.regime_map(sweep_preset("ci"), ci_table)
    best = {p.isnr_db: p.best_b for p in points if p.budget == 512}  # 2N at N = 256
    ordered = [best[i] for i in isnrs]
    monotone = all(a >= b for a, b in zip(ordered, ordered[1:]))
    low_ok = best[10.0] <= 2 and best[5.0] <= 2
    high_ok = best[35.0] >= 5
    ok = monotone and low_ok and high_ok
    _verdict(7, f"regime ordering: best B {ordered} for ISNR {list(isnrs)}", ok)
    assert monotone
    assert low_ok
    assert high_ok


def test_criterion_08_one_bit_crossover(ci_table):
    means = {}
    for a in ci_table.aggregates:
        if a.bit_depth == 1:
            means[(a.isnr_db, a.algorithm)] = a.rsnr_mean
    noisy_ok = means[(5.0, "biht_l2")] >= means[(5.0, "biht_l1")]
    clean_ok = means[(35.0, "biht_l1")] >= means[(35.0, "biht_l2")] - 1.0
    ok = noisy_ok and clean_ok
    _verdict(
        8,
        "1-bit crossover: at 5 dB l2 {:.2f} vs l1 {:.2f}; at 35 dB l1 {:.2f} vs l2 {:.2f}".format(
            means[(5.0, "biht_l2")],
            means[(5.0, "biht_l1")],
            means[(35.0, "biht_l1")],
            means[(35.0, "biht_l2")],
        ),
        ok,
    )
    assert noisy_ok
    assert clean_ok


def test_criterion_09_quantizer_properties():
    grid_ok = True
    for b in range(1, 9):
        t = 2.3
        delta = t * 2.0 ** (1 - b)
        v = np.linspace(-t, t, 20_001)
        grid_ok &= bool(np.max(np.abs(v - q.uniform_quantize(v, t, b))) <= delta / 2 + 1e-12)

    _verdict(9, f"quantizer properties: grid<=delta/2 {grid_ok}", grid_ok)
    assert grid_ok


def test_criterion_10_determinism(tmp_path, child_env):
    # n=64 runs every trial in the calling thread at any QCSLAB_THREADS;
    # the second config is just large enough for the thread pool; the
    # third is as large, but oracle-only, so it draws only the support's
    # columns and runs in the calling thread.
    configs = [
        q.ExperimentConfig(
            n=64,
            k=2,
            budgets=["2N"],
            bit_grid=[1, 2, 4],
            isnr_list=[10.0],
            trials=3,
            master_seed=99,
        ),
        q.ExperimentConfig(
            n=harness._SERIAL_MAX_N + 1,
            k=2,
            budgets=["1N"],
            bit_grid=[1, 4],
            isnr_list=[10.0],
            trials=2,
            master_seed=99,
        ),
        q.ExperimentConfig(
            n=harness._SERIAL_MAX_N + 1,
            k=2,
            budgets=["1N"],
            bit_grid=[2, 4],
            isnr_list=[10.0],
            trials=2,
            master_seed=99,
            algorithms=["oracle_ls"],
        ),
    ]
    runs = []
    for c, cfg in enumerate(configs):
        cfg_path = tmp_path / f"cfg{c}.json"
        q.write_config(cfg, cfg_path)
        digests = []
        for i, threads in enumerate(("1", "2", "2")):
            out = tmp_path / f"out{c}-{i}"
            env = dict(child_env, QCSLAB_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "qcslab.cli", "sweep", "--config", str(cfg_path),
                 "--out", str(out)],
                capture_output=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            )
        runs.append(digests)
    # Each run writes its config, the sweep's files and the regime map.
    expected = {
        "config.json", "results.csv", "aggregates.csv", "rsnr_vs_budget_isnr10.svg",
        "regime_map.csv", "regime_map.svg",
    }
    ok = all(
        set(digests[0]) == expected and digests[0] == digests[1] == digests[2]
        for digests in runs
    )
    _verdict(10, "byte-identical outputs across reruns and thread counts", ok)
    for digests in runs:
        assert set(digests[0]) == expected
        assert digests[0] == digests[1] == digests[2]


def test_supporting_oracle_dominance(ci_table):
    # Best-case linear reconstruction should not trail the l1 solver.
    checked = 0
    for a in ci_table.aggregates:
        if a.algorithm != "oracle_ls":
            continue
        for b in ci_table.aggregates:
            if (
                b.algorithm == "bpdn"
                and (b.budget, b.bit_depth, b.isnr_db) == (a.budget, a.bit_depth, a.isnr_db)
            ):
                checked += 1
                assert a.rsnr_mean >= b.rsnr_mean - 1.0
    assert checked > 0
