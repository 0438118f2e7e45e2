import math
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qcslab as q
from qcslab import harness
from qcslab.cli import main
from qcslab.harness import AGGREGATE_COLUMNS, RESULT_COLUMNS, AggregateRow, TrialResult
from qcslab.quantize import MAX_BITS
from qcslab.reconstruct import ReconResult


def tiny_config(**overrides):
    base = dict(
        n=64,
        k=2,
        budgets=["2N"],
        bit_grid=[1, 2, 4],
        isnr_list=[10.0],
        trials=3,
        master_seed=7,
    )
    base.update(overrides)
    return q.ExperimentConfig(**base)


def csv_texts(table):
    """The results and aggregates CSV text of a table, as the CLI writes them."""
    return q.to_csv(table.rows, TrialResult), q.to_csv(table.aggregates, AggregateRow)


class TestBudgetParsing:
    def test_multipliers(self):
        assert q.parse_budget("3N", 1000) == 3000
        assert q.parse_budget("0.5N", 1000) == 500
        assert q.parse_budget("N", 1000) == 1000
        assert q.parse_budget("2n", 256) == 512
        assert q.parse_budget(1234, 1000) == 1234

    def test_errors(self):
        with pytest.raises(q.ConfigError):
            q.parse_budget("xyz", 1000)
        with pytest.raises(q.ConfigError):
            q.parse_budget("0N", 1000)
        with pytest.raises(q.ConfigError):
            q.parse_budget(None, 1000)
        for text in ("infN", "nanN", "1e400N"):
            with pytest.raises(q.ConfigError, match="multiplier"):
                q.parse_budget(text, 1000)

    def test_overflow_told_from_unparsable_multiplier(self):
        with pytest.raises(q.ConfigError, match="cannot parse multiplier 'nanN'"):
            q.parse_budget("nanN", 1000)
        for text in ("infN", "1e400N", "1e300N"):
            with pytest.raises(q.ConfigError, match=f"multiplier '{text}' overflows at n = 1e\\+10"):
                q.parse_budget(text, 10**10)


class TestConfig:
    def test_round_trip_file(self, tmp_path):
        cfg = tiny_config(budgets=["3N", 100])
        path = tmp_path / "cfg.json"
        q.write_config(cfg, path)
        loaded = q.read_config(path)
        assert loaded == cfg
        assert loaded.budgets == ["3N", 100]
        assert loaded.resolved_budgets() == [192, 100]

    def test_missing_field_names_it(self):
        data = tiny_config().to_dict()
        del data["trials"]
        with pytest.raises(q.ConfigError, match="trials"):
            q.ExperimentConfig.from_dict(data)

    def test_unknown_field_rejected(self):
        data = tiny_config().to_dict()
        data["bogus"] = 1
        with pytest.raises(q.ConfigError, match="bogus"):
            q.ExperimentConfig.from_dict(data)

    def test_type_validation(self):
        data = tiny_config().to_dict()
        data["trials"] = "ten"
        with pytest.raises(q.ConfigError, match="trials"):
            q.ExperimentConfig.from_dict(data)

    def test_domain_validation(self):
        with pytest.raises(q.ConfigError, match="k"):
            tiny_config(k=100)
        with pytest.raises(q.ConfigError, match="bit_grid"):
            tiny_config(bit_grid=[0])
        with pytest.raises(q.ConfigError, match="algorithms"):
            tiny_config(algorithms=["magic"])
        with pytest.raises(q.ConfigError, match="matrix_kind"):
            tiny_config(matrix_kind="dense")
        tiny_config(bit_grid=[MAX_BITS], isnr_list=[math.inf])
        with pytest.raises(q.ConfigError, match="bit_grid"):
            tiny_config(bit_grid=[MAX_BITS + 1])
        # Repeated entries would run, and count, the same tuples twice.
        with pytest.raises(q.ConfigError, match="bit_grid"):
            tiny_config(bit_grid=[2, 2])
        with pytest.raises(q.ConfigError, match="isnr_list"):
            tiny_config(isnr_list=[20.0, 20])
        with pytest.raises(q.ConfigError, match="budgets"):
            tiny_config(budgets=["1N", 64])
        with pytest.raises(q.ConfigError, match="algorithms"):
            tiny_config(algorithms=["bpdn", "bpdn"])
        for isnr in (math.nan, -math.inf):
            with pytest.raises(q.ConfigError, match="isnr_list"):
                tiny_config(isnr_list=[isnr])

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(q.ConfigError):
            q.read_config(path)


class TestRunTrial:
    def test_multibit_rows(self):
        cfg = tiny_config(algorithms=["oracle_ls", "bpdn"])
        rows = q.run_trial(cfg, budget=128, bit_depth=4, isnr=10.0, trial_index=0)
        assert [r.algorithm for r in rows] == ["oracle_ls", "bpdn"]
        for r in rows:
            assert r.m == 32
            assert r.m * r.bit_depth <= 128 < (r.m + 1) * r.bit_depth
            assert np.isfinite(r.rsnr_db)
            assert r.hamming is None
            assert r.wall_time_ms == 0.0

    def test_onebit_rows(self):
        cfg = tiny_config()
        rows = q.run_trial(cfg, budget=128, bit_depth=1, isnr=10.0, trial_index=1)
        assert [r.algorithm for r in rows] == ["biht_l1", "biht_l2"]
        for r in rows:
            assert r.m == 128
            assert 0.0 <= r.hamming <= 1.0

    @pytest.mark.parametrize(
        "algorithms, matrix_kind, shape",
        [
            (["oracle_ls"], "iid_gaussian", (32, 2)),  # (m, k)
            (["oracle_ls", "bpdn"], "iid_gaussian", (32, 64)),  # (m, n)
            # A tight frame is a function of the whole matrix.
            (["oracle_ls"], "tight_frame", (32, 64)),
        ],
    )
    def test_matrix_draw_shape(self, monkeypatch, algorithms, matrix_kind, shape):
        shapes = []
        draw = harness.gen_gaussian_matrix

        def recorded(m, n, *args, **kwargs):
            shapes.append((m, n))
            return draw(m, n, *args, **kwargs)

        monkeypatch.setattr(harness, "gen_gaussian_matrix", recorded)
        cfg = tiny_config(algorithms=algorithms, matrix_kind=matrix_kind)
        rows = q.run_trial(cfg, budget=128, bit_depth=4, isnr=10.0, trial_index=0)
        assert shapes == [shape]
        assert [r.algorithm for r in rows] == algorithms
        assert all(np.isfinite(r.rsnr_db) for r in rows)

    def test_oracle_only_draw_has_the_full_draws_law(self, monkeypatch):
        # An oracle-only trial draws Phi_S and stands in one Gaussian
        # m-vector for Phi_{S^c} n_{S^c}; adding bpdn makes the same tuple
        # draw the whole matrix. The oracle's mean error must agree within
        # 4 combined standard errors. bpdn draws nothing, so a stub for it
        # leaves the oracle rows as they are and keeps the test fast.
        monkeypatch.setattr(
            harness, "bpdn", lambda phi, y, eps: ReconResult(np.zeros(phi.cols), 0, True)
        )
        base = dict(
            n=256, k=4, budgets=["2N"], bit_grid=[4], isnr_list=[5.0, 20.0],
            trials=400, master_seed=11,
        )
        cheap = q.run_sweep(q.ExperimentConfig(**base, algorithms=["oracle_ls"]))
        full = q.run_sweep(q.ExperimentConfig(**base, algorithms=["oracle_ls", "bpdn"]))
        assert {r.m for r in cheap.rows} == {128}
        for isnr in base["isnr_list"]:
            errs = [
                np.array([r.recon_mse for r in table.rows
                          if r.algorithm == "oracle_ls" and r.isnr_db == isnr])
                for table in (cheap, full)
            ]
            assert [e.size for e in errs] == [400, 400]
            se = math.sqrt(sum(e.var(ddof=1) / e.size for e in errs))
            z = (errs[0].mean() - errs[1].mean()) / se
            assert abs(z) < 4.0, (isnr, z)
        # The seed column identifies the tuple's draws on either path.
        assert [r.seed for r in cheap.rows] == [
            r.seed for r in full.rows if r.algorithm == "oracle_ls"
        ]

    def test_timing_opt_in(self):
        cfg = tiny_config(algorithms=["bpdn"])
        rows = q.run_trial(
            cfg, budget=128, bit_depth=4, isnr=10.0, trial_index=0, record_timing=True
        )
        assert rows[0].wall_time_ms > 0.0


class TestRunSweep:
    def test_row_count_and_budget_law(self):
        cfg = tiny_config()
        table = q.run_sweep(cfg)
        # 3 bit depths x 3 trials; B=1 contributes 2 algorithms, B>1 two each.
        assert len(table.rows) == 3 * 2 + 3 * 2 + 3 * 2
        for r in table.rows:
            assert r.m * r.bit_depth <= r.budget < (r.m + 1) * r.bit_depth

    def test_skip_reasons(self):
        cfg = tiny_config(budgets=[16], bit_grid=[12, 4], k=8)
        # B=12 -> m=1 < k; B=4 -> m=4 < k=8.
        table = q.run_sweep(cfg)
        assert len(table.skips) == 2
        assert all("k = 8" in s.reason for s in table.skips)
        assert not table.rows

    def test_skip_when_no_algorithm_applies(self):
        cfg = tiny_config(algorithms=["oracle_ls"], bit_grid=[1])
        table = q.run_sweep(cfg)
        assert len(table.skips) == 1
        assert "no requested algorithm" in table.skips[0].reason

    def test_tight_frame_skips_m_above_n_once_per_tuple(self, tmp_path):
        cfg = tiny_config(
            matrix_kind="tight_frame", budgets=["1N", "3N"], bit_grid=[1, 2, 4, 8]
        )
        table = q.run_sweep(cfg)
        # 3N at B = 1, 2 gives m = 192, 96 > n = 64; every other tuple runs.
        assert [(s.budget, s.reason.split(":")[0]) for s in table.skips] == [
            (192, "m = 192 > n = 64"),
            (192, "m = 96 > n = 64"),
        ]
        assert {(r.budget, r.bit_depth) for r in table.rows} == {
            (64, 1), (64, 2), (64, 4), (64, 8), (192, 4), (192, 8)
        }
        path = tmp_path / "cfg.json"
        q.write_config(cfg, path)
        # Skipped tuples still make the sweep a partial failure.
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 3

    def test_deterministic_across_runs_and_workers(self, monkeypatch):
        # Several m per worker: its one matrix buffer is reused across sizes.
        cfg = tiny_config()
        (budget,) = cfg.resolved_budgets()
        assert len({budget // b for b in cfg.bit_grid}) > 1
        monkeypatch.setenv("QCSLAB_THREADS", "1")
        t1 = q.run_sweep(cfg)
        monkeypatch.setenv("QCSLAB_THREADS", "3")
        t2 = q.run_sweep(cfg)
        assert csv_texts(t1) == csv_texts(t2)

    def test_largest_m_runs_first_and_rows_stay_tuple_major(self, monkeypatch):
        # m = 32, 16, 96, 48 in tuple order: not monotone. The pool runs
        # at this small n too, so that 1 and 2 workers take the same path.
        started = []
        run_trial = harness.run_trial

        def recorded(cfg, budget, bit_depth, *args, **kwargs):
            started.append(budget // bit_depth)
            return run_trial(cfg, budget, bit_depth, *args, **kwargs)

        monkeypatch.setattr(harness, "run_trial", recorded)
        monkeypatch.setattr(harness, "_SERIAL_MAX_N", 0)
        cfg = tiny_config(
            budgets=["1N", "3N"], bit_grid=[2, 4], isnr_list=[20.0, 5.0], trials=2
        )
        monkeypatch.setenv("QCSLAB_THREADS", "1")
        t1 = q.run_sweep(cfg)
        assert started == sorted(started, reverse=True)
        expected = [
            (budget, bit_depth, isnr, trial, alg)
            for budget in (64, 192)
            for bit_depth in (2, 4)
            for isnr in (20.0, 5.0)
            for trial in (0, 1)
            for alg in ("oracle_ls", "bpdn")
        ]
        assert [(r.budget, r.bit_depth, r.isnr_db, r.trial, r.algorithm)
                for r in t1.rows] == expected
        monkeypatch.setenv("QCSLAB_THREADS", "2")
        t2 = q.run_sweep(cfg)
        assert csv_texts(t1) == csv_texts(t2)

    def test_failed_trials_stay_in_tuple_order(self, monkeypatch):
        run_trial = harness.run_trial

        def failing(cfg, budget, bit_depth, isnr, trial, *args, **kwargs):
            if trial == 1:
                raise q.QcsLabError(f"m = {budget // bit_depth}")
            return run_trial(cfg, budget, bit_depth, isnr, trial, *args, **kwargs)

        monkeypatch.setattr(harness, "run_trial", failing)
        cfg = tiny_config(budgets=["1N", "3N"], bit_grid=[2, 4], trials=2)
        table = q.run_sweep(cfg)
        assert [(s.budget, s.bit_depth, s.reason) for s in table.skips] == [
            (64, 2, "trial 1 failed: m = 32"),
            (64, 4, "trial 1 failed: m = 16"),
            (192, 2, "trial 1 failed: m = 96"),
            (192, 4, "trial 1 failed: m = 48"),
        ]

    @pytest.mark.parametrize("value", ["soup", "0", "-1"])
    def test_thread_env_var_validated(self, monkeypatch, value):
        monkeypatch.setenv("QCSLAB_THREADS", value)
        with pytest.raises(q.ConfigError, match="QCSLAB_THREADS"):
            q.run_sweep(tiny_config())

    def test_small_n_runs_every_trial_in_the_calling_thread(self, monkeypatch):
        callers = []
        run_trial = harness.run_trial

        def recorded(*args, **kwargs):
            callers.append(threading.get_ident())
            return run_trial(*args, **kwargs)

        monkeypatch.setattr(harness, "run_trial", recorded)
        monkeypatch.setenv("QCSLAB_THREADS", "2")
        cfg = tiny_config()
        assert cfg.n <= harness._SERIAL_MAX_N
        q.run_sweep(cfg)
        assert len(callers) == 9
        assert set(callers) == {threading.get_ident()}

    def test_oracle_only_sweep_runs_every_trial_in_the_calling_thread(self, monkeypatch):
        # No trial draws the full matrix, so there is no buffer and no pool
        # at any n.
        callers = []
        run_trial = harness.run_trial

        def recorded(*args, matrix_buffer=None, **kwargs):
            callers.append((threading.get_ident(), matrix_buffer))
            return run_trial(*args, matrix_buffer=matrix_buffer, **kwargs)

        monkeypatch.setattr(harness, "run_trial", recorded)
        monkeypatch.setenv("QCSLAB_THREADS", "2")
        cfg = tiny_config(n=harness._SERIAL_MAX_N + 1, algorithms=["oracle_ls"])
        assert len(q.run_sweep(cfg).rows) == 6
        assert callers == [(threading.get_ident(), None)] * 6

    @pytest.mark.parametrize("threads, pools", [("1", []), ("2", [2]), ("8", [3])])
    def test_large_n_pool_is_capped_by_threads_and_trials(self, monkeypatch, threads, pools):
        made = []

        class Recording(ThreadPoolExecutor):
            def __init__(self, max_workers):
                made.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", Recording)
        monkeypatch.setenv("QCSLAB_THREADS", threads)
        # One tuple of 3 trials; bpdn draws the full matrix.
        cfg = tiny_config(
            n=harness._SERIAL_MAX_N + 1, budgets=["1N"], bit_grid=[4],
            algorithms=["bpdn"],
        )
        assert len(q.run_sweep(cfg).rows) == 3
        assert made == pools


class TestAggregate:
    def _row(self, rsnr, trial=0, algorithm="bpdn"):
        return q.TrialResult(
            n=64, k=2, budget=128, bit_depth=4, m=32, isnr_db=10.0,
            algorithm=algorithm, trial=trial, rsnr_db=rsnr, recon_mse=0.1,
            hamming=None, wall_time_ms=0.0, seed=1,
        )

    def test_single_row(self):
        aggs = q.aggregate([self._row(12.5)])
        assert len(aggs) == 1
        assert aggs[0].rsnr_mean == 12.5
        assert aggs[0].rsnr_std == 0.0
        assert aggs[0].trials == 1

    def test_two_rows(self):
        aggs = q.aggregate([self._row(10.0, 0), self._row(20.0, 1)])
        assert aggs[0].rsnr_mean == 15.0
        assert aggs[0].rsnr_median == 15.0

    def test_many_rows_count(self):
        aggs = q.aggregate([self._row(float(i), i) for i in range(100)])
        assert aggs[0].trials == 100

    def test_empty_rejected(self):
        with pytest.raises(q.InvalidParameterError):
            q.aggregate([])


class TestCsvIo:
    def test_results_round_trip(self, tmp_path):
        table = q.run_sweep(tiny_config())
        path = tmp_path / "results.csv"
        q.write_results(table, path)
        rows = q.read_results(path)
        assert rows == table.rows

    def test_column_orders(self, tmp_path):
        table = q.run_sweep(tiny_config())
        q.write_results(table, tmp_path / "r.csv")
        q.write_aggregates(table, tmp_path / "a.csv")
        header_r = (tmp_path / "r.csv").read_text().splitlines()[0]
        header_a = (tmp_path / "a.csv").read_text().splitlines()[0]
        assert header_r == ",".join(RESULT_COLUMNS)
        assert header_a == ",".join(AGGREGATE_COLUMNS)
        assert RESULT_COLUMNS == [
            "n", "k", "budget", "bit_depth", "m", "isnr_db", "algorithm",
            "trial", "rsnr_db", "recon_mse", "hamming", "wall_time_ms", "seed",
        ]

    def test_truncated_row_rejected_with_line_number(self, tmp_path):
        table = q.run_sweep(tiny_config(algorithms=["oracle_ls"], bit_grid=[4]))
        path = tmp_path / "r.csv"
        q.write_results(table, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(q.InvalidParameterError, match="line 3: expected 13 cells, got 12"):
            q.read_results(path)

    def test_unparseable_cell_rejected_with_line_number(self, tmp_path):
        table = q.run_sweep(tiny_config(algorithms=["oracle_ls"], bit_grid=[4]))
        path = tmp_path / "r.csv"
        q.write_results(table, path)
        lines = path.read_text().splitlines()
        lines[3] = "sixty-four" + lines[3][lines[3].index(","):]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(q.InvalidParameterError, match="line 4: cannot parse n 'sixty-four'"):
            q.read_results(path)

    def test_hamming_blank_for_multibit(self, tmp_path):
        table = q.run_sweep(tiny_config(algorithms=["oracle_ls"], bit_grid=[4]))
        q.write_results(table, tmp_path / "r.csv")
        data_line = (tmp_path / "r.csv").read_text().splitlines()[1]
        assert ",," in data_line  # empty hamming cell


_finite_or_inf = st.floats(allow_nan=False)
_trial_results = st.builds(
    q.TrialResult,
    n=st.integers(1, 10**6),
    k=st.integers(1, 10**3),
    budget=st.integers(1, 10**7),
    bit_depth=st.integers(1, 32),
    m=st.integers(1, 10**7),
    isnr_db=_finite_or_inf,
    algorithm=st.sampled_from(q.harness.ALGORITHMS),
    trial=st.integers(0, 10**4),
    rsnr_db=_finite_or_inf,
    recon_mse=st.floats(min_value=0.0, allow_nan=False),
    hamming=st.none() | st.floats(0.0, 1.0),
    wall_time_ms=st.floats(min_value=0.0, allow_nan=False),
    seed=st.integers(0, 2**64 - 1),
)


def _edge_row(**overrides):
    base = dict(
        n=64, k=2, budget=128, bit_depth=4, m=32, isnr_db=10.0, algorithm="bpdn",
        trial=0, rsnr_db=12.5, recon_mse=0.1, hamming=None, wall_time_ms=0.0, seed=1,
    )
    base.update(overrides)
    return q.TrialResult(**base)


@settings(max_examples=60, deadline=None)
@given(st.lists(_trial_results, max_size=5))
@example([_edge_row(hamming=None), _edge_row(hamming=0.0, bit_depth=1)])
@example([_edge_row(isnr_db=math.inf), _edge_row(isnr_db=-math.inf)])
@example([_edge_row(rsnr_db=-3.25), _edge_row(rsnr_db=-1e-300, recon_mse=1e300)])
def test_results_csv_round_trip(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.csv"
        q.write_results(q.ResultTable(rows=rows, aggregates=[]), path)
        assert q.read_results(path) == rows


class TestRegimeMap:
    def _agg(self, bit_depth, rsnr, algorithm="bpdn", budget=128):
        return q.harness.AggregateRow(
            n=64, k=2, budget=budget, bit_depth=bit_depth, m=budget // bit_depth,
            isnr_db=10.0, algorithm=algorithm, trials=3, rsnr_mean=rsnr,
            rsnr_median=rsnr, rsnr_std=0.0,
        )

    def test_tie_prefers_smaller_b(self):
        cfg = tiny_config(bit_grid=[2, 4])
        table = q.ResultTable(rows=[], aggregates=[self._agg(2, 15.0), self._agg(4, 15.0)])
        points = q.regime_map(cfg, 128, table)
        assert len(points) == 1
        assert points[0].best_b == 2
        assert points[0].best_m == 64
        assert points[0].regime == "QC"

    def test_best_algorithm_per_bit_depth(self):
        cfg = tiny_config(bit_grid=[1, 4])
        table = q.ResultTable(
            rows=[],
            aggregates=[
                self._agg(1, 9.0, "biht_l1"),
                self._agg(1, 14.0, "biht_l2"),
                self._agg(4, 12.0, "bpdn"),
            ],
        )
        points = q.regime_map(cfg, 128, table)
        assert points[0].best_b == 1
        assert points[0].best_rsnr == 14.0
        assert points[0].best_algorithm == "biht_l2"

    def test_only_the_configured_algorithms_count(self):
        # The oracle's aggregate would win at B = 4, but the config does
        # not request it.
        cfg = tiny_config(bit_grid=[1, 4], algorithms=["bpdn", "biht_l2"])
        table = q.ResultTable(
            rows=[],
            aggregates=[
                self._agg(1, 14.0, "biht_l2"),
                self._agg(4, 12.0, "bpdn"),
                self._agg(4, 20.0, "oracle_ls"),
            ],
        )
        points = q.regime_map(cfg, 128, table)
        assert points[0].best_b == 1
        assert points[0].best_rsnr == 14.0

    def test_requested_oracle_does_not_compete(self):
        # The oracle is requested and its aggregate would win at B = 4, but
        # it knows the true support: the practical decoders decide.
        cfg = tiny_config(bit_grid=[1, 4], algorithms=["oracle_ls", "bpdn", "biht_l2"])
        table = q.ResultTable(
            rows=[],
            aggregates=[
                self._agg(1, 14.0, "biht_l2"),
                self._agg(4, 12.0, "bpdn"),
                self._agg(4, 20.0, "oracle_ls"),
            ],
        )
        (point,) = q.regime_map(cfg, 128, table)
        assert (point.best_b, point.best_algorithm, point.best_rsnr) == (1, "biht_l2", 14.0)

    def test_oracle_only_config_maps_with_the_oracle(self):
        cfg = tiny_config(bit_grid=[2, 4], algorithms=["oracle_ls"])
        table = q.ResultTable(
            rows=[],
            aggregates=[self._agg(2, 15.0, "oracle_ls"), self._agg(4, 18.0, "oracle_ls")],
        )
        (point,) = q.regime_map(cfg, 128, table)
        assert (point.best_b, point.best_algorithm) == (4, "oracle_ls")

    def test_runs_end_to_end(self):
        cfg = tiny_config(trials=2)
        table = q.run_sweep(cfg)
        (point,) = q.regime_map(cfg, "2N", table)
        assert point.best_b in {1, 2, 4}
        assert point.best_algorithm in {"bpdn", "biht_l1", "biht_l2"}
        assert point.regime in {"QC", "MC", "transition"}
