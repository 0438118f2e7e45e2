import argparse
import csv
import json
import math
import subprocess
import sys
from dataclasses import fields, replace
from typing import get_type_hints

import pytest

from qcslab import harness
from qcslab.cli import _build_parser, main
from qcslab.harness import RegimePoint, read_config, regime_map, run_sweep
from qcslab.presets import sweep_preset


def write_tiny_config(path, **overrides):
    cfg = dict(
        n=64,
        k=2,
        budgets=["2N"],
        bit_grid=[1, 2, 4],
        isnr_list=[10.0],
        trials=2,
        master_seed=7,
    )
    cfg.update(overrides)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestBoundCurveCmd:
    def test_reference_minima_marked(self, tmp_path, capsys):
        # The defaults are the paper's Figure 1 case: ISNR 35/20/10/5 dB, B 2..12.
        assert main(["bound-curve", "--out", str(tmp_path)]) == 0
        for isnr, best in (("35", 7), ("20", 5), ("10", 2), ("5", 2)):
            rows = read_csv(tmp_path / f"bound_curve_isnr{isnr}.csv")
            assert len(rows) == 11
            marked = [int(r["bit_depth"]) for r in rows if r["is_min"] == "1"]
            assert marked == [best]
            assert (tmp_path / f"bound_curve_isnr{isnr}.svg").exists()

    def test_single_point_grid(self, tmp_path):
        assert main(["bound-curve", "--isnr", "20", "--bits", "5..5",
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "bound_curve_isnr20.csv")
        assert len(rows) == 1
        assert rows[0]["is_min"] == "1"

    def test_sparse_grid_writes_only_listed_depths(self, tmp_path, capsys):
        assert main(["bound-curve", "--isnr", "20", "--bits", "2,4,6",
                     "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "bound_curve_isnr20.csv")
        assert [int(r["bit_depth"]) for r in rows] == [2, 4, 6]
        marked = [int(r["bit_depth"]) for r in rows if r["is_min"] == "1"]
        assert len(marked) == 1
        assert f"optimal B = {marked[0]}" in capsys.readouterr().out

    def test_full_mode_is_scaled_inner(self, tmp_path):
        out_inner = tmp_path / "inner"
        out_full = tmp_path / "full"
        assert main(["bound-curve", "--isnr", "35", "--bits", "2..12",
                     "--out", str(out_inner)]) == 0
        assert main(["bound-curve", "--isnr", "35", "--bits", "2..12",
                     "--mode", "full", "--delta", "0.3", "--corr-s", "0",
                     "--out", str(out_full)]) == 0
        inner = read_csv(out_inner / "bound_curve_isnr35.csv")
        full = read_csv(out_full / "bound_curve_isnr35.csv")
        scale = 2 * 10 / (3000 * (1 - 0.3))
        for ri, rf in zip(inner, full):
            assert float(rf["bound_value"]) == pytest.approx(
                float(ri["bound_value"]) * scale, rel=1e-12
            )

    def test_huge_isnr_names_files_by_repr(self, tmp_path):
        # 1e308 is integral, but its 309 digits make no file name.
        assert main(["bound-curve", "--isnr", "1e308", "--bits", "2..4",
                     "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bound_curve_isnr1e+308.csv", "bound_curve_isnr1e+308.svg"
        ]

    def test_bad_flags_exit_1(self):
        assert main(["bound-curve", "--bits", "five"]) == 1
        assert main(["bound-curve", "--isnr", "abc"]) == 1
        assert main(["no-such-command"]) == 1
        # sweep writes the regime maps; the command that once did is gone.
        assert main(["regime-map", "--preset", "ci"]) == 1

    @pytest.mark.parametrize("flags", [["--preset", "fig1"], ["--seed", "5"]])
    def test_sweep_only_flags_rejected(self, flags, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["bound-curve", *flags, "--out", str(out)]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--n", "0"),
            ("--k", "0"),
            ("--k", "2000"),
            ("--sigma-x2", "0"),
            ("--sigma-x2", "inf"),
            ("--corr-s", "nan"),
            ("--corr-s", "inf"),
            ("--bits", "1..5"),
            ("--delta", "1.5"),
            ("--budget", "1"),
            ("--budget", "nanN"),
            ("--isnr", "nan"),
            ("--isnr", "20,20"),
            ("--bits", "4,4"),
            pytest.param("--n", "1" + "0" * 400, id="--n-1e400"),
            ("--sigma-x2", "1e308"),
        ],
    )
    def test_out_of_domain_flag_exits_1_naming_it(self, flag, value, tmp_path, capsys):
        # The output directory is not even created.
        out = tmp_path / "out"
        assert main(["bound-curve", flag, value, "--out", str(out)]) == 1
        assert f"error: {flag}:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--delta", "1.5", "must lie in [0, 1)"),
            ("--budget", "nanN", "cannot parse multiplier 'nanN'"),
            ("--budget", "infN", "multiplier 'infN' overflows at n = 1000"),
            ("--sigma-x2", "1e308", "makes k * sigma_x2 overflow at k = 10"),
        ],
    )
    def test_domain_error_names_its_flag_once(self, flag, value, message, tmp_path, capsys):
        # The flag stands for the field, so the message does not restate it.
        assert main(["bound-curve", flag, value, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"qcslab: error: {flag}: {message}\n"

    @pytest.mark.parametrize(
        "flags, flag",
        [
            (["--corr-s", "1e308", "--mode", "full"], "--corr-s"),
            (["--isnr", "-3070"], "--isnr"),
            (["--isnr", "20,-3070", "--mode", "full"], "--isnr"),
            (["--delta", "0.9999999999999999", "--sigma-x2", "1e300", "--mode", "full"],
             "--delta"),
            pytest.param(["--budget", "1" + "0" * 400, "--mode", "full"], "--budget",
                         id="budget-1e400"),
        ],
    )
    def test_overflowing_bound_exits_1_naming_its_input(self, flags, flag, tmp_path, capsys):
        # Every value is in its own domain, but the curve would hold inf.
        assert main(["bound-curve", *flags, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"qcslab: error: {flag}: ")
        assert err.count("\n") == 1
        assert not list(tmp_path.iterdir())


class TestSweepCmd:
    def test_end_to_end(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "results.csv")
        assert len(rows) == 2 * 2 * 3  # 3 bit depths x 2 algorithms x 2 trials
        aggs = read_csv(out / "aggregates.csv")
        assert len(aggs) == 6
        assert (out / "rsnr_vs_budget_isnr10.svg").exists()

    def test_deterministic_outputs(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("results.csv", "aggregates.csv", "rsnr_vs_budget_isnr10.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_rows(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(cfg), "--seed", "99",
                     "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() != (out2 / "results.csv").read_bytes()

    def test_partial_failure_exit_3(self, tmp_path):
        # At a budget of 24 bits with k=8, B=4 leaves m=6 < k measurements and
        # is skipped, while B=2 gives m=12 and runs.
        cfg = write_tiny_config(
            tmp_path / "cfg.json", n=64, k=8, budgets=[24], bit_grid=[4, 2]
        )
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        # A partial sweep leaves its config too.
        assert read_config(out / "config.json") == read_config(cfg)

    def test_total_failure_exit_2(self, tmp_path, capsys):
        # m = 2 and 4 < k = 8: no tuple runs, the reasons are printed, and
        # no file is written.
        cfg = write_tiny_config(
            tmp_path / "cfg.json", n=64, k=8, budgets=[8], bit_grid=[4, 2]
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "m = 2 < k = 8" in captured.out
        assert captured.err == "qcslab: no tuples executed\n"
        assert not out.exists()
        # A directory that was there before the run stays, empty.
        out.mkdir()
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert out.is_dir() and not any(out.iterdir())
        assert capsys.readouterr().err == captured.err

    def test_unallocatable_matrix_buffer_exits_2(self, tmp_path, capsys):
        cases = [
            # At n = 10^7, budget 7N and B = 1 the matrix buffer is 5 PiB,
            # past the 128 TiB a process can address: the allocation fails
            # whatever the overcommit setting, and no memory is touched.
            (dict(n=10**7, k=10, budgets=["7N"], bit_grid=[1]), [],
             "(70000000, 10000000)"),
            # Buffers whose byte count (6.4e18 x 64 x 8) or row count
            # (6.4e31, rounded as a float) numpy cannot represent at all.
            ({}, ["--budget", "1e17N"], "(6400000000000000000, 64)"),
            ({}, ["--budget", "1e30N"], "(64000000000000001272615989673984, 64)"),
            # The same budgets with oracle-only trials, which draw only the
            # m x k support columns: at B = 2 they are still unrepresentable.
            (dict(algorithms=["oracle_ls"]), ["--budget", "1e17N"],
             "(3200000000000000000, 2)"),
            (dict(algorithms=["oracle_ls"]), ["--budget", "1e30N"],
             "(32000000000000000636307994836992, 2)"),
        ]
        for i, (overrides, flags, shape) in enumerate(cases):
            cfg = write_tiny_config(tmp_path / f"cfg{i}.json", trials=1, **overrides)
            out = tmp_path / f"o{i}"
            argv = ["sweep", "--config", str(cfg), *flags, "--out", str(out)]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("qcslab: out of memory")
            assert err.count("\n") == 1
            assert shape in err
            assert not out.exists()
            # A directory that was there before the run stays.
            out.mkdir()
            assert main(argv) == 2
            assert out.is_dir()
            assert capsys.readouterr().err == err

    def test_out_of_memory_in_a_trial_exits_2(self, tmp_path, capsys, monkeypatch):
        # A MemoryError raised inside a trial ends the sweep like one from
        # the matrix buffer: exit 2, one line, no traceback.
        def exhausted(*args, **kwargs):
            raise MemoryError("cannot fit the trial")

        monkeypatch.setattr(harness, "bpdn", exhausted)
        cfg = write_tiny_config(tmp_path / "cfg.json", bit_grid=[4])
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "qcslab: out of memory: cannot fit the trial\n"
        assert not out.exists()
        out.mkdir()
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert out.is_dir()

    def test_config_errors_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        data = json.loads(write_tiny_config(tmp_path / "base.json").read_text())
        del data["trials"]
        cfg.write_text(json.dumps(data), encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "trials" in capsys.readouterr().err

    def test_config_not_utf8_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"n": 64, "k": "\xff"}')
        out = tmp_path / "o"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("qcslab: config error: <root>: invalid JSON: 'utf-8' codec")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_n_beyond_numpy_arrays_exits_1_naming_it(self, tmp_path, capsys):
        # 2^70 overflows the int64 that numpy's sampler takes; 2^61 is an
        # int64, but an n-vector of float64 would need 2^64 bytes.
        for n in (2**70, 2**61):
            cfg = write_tiny_config(tmp_path / "cfg.json", n=n, algorithms=["oracle_ls"])
            out = tmp_path / "o"
            assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("qcslab: config error: n: must be at most")
            assert err.count("\n") == 1
            assert not out.exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(sigma_x2=math.nan),
            dict(sigma_x2=math.inf, isnr_list=[math.inf]),
            # k * sigma_x2 overflows, which no ISNR's noise variance survives.
            dict(sigma_x2=1e308),
        ],
    )
    def test_non_finite_sigma_x2_exits_1_naming_it(self, overrides, tmp_path, capsys):
        cfg = write_tiny_config(tmp_path / "cfg.json", **overrides)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("qcslab: config error: sigma_x2:")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--bits", "2,2"], "bit_grid"),
            (["--bits", "40", "--budget", "20N"], "bit_grid"),
            (["--budget", "1N,256"], "budgets"),
            (["--isnr", "nan"], "isnr_list"),
            (["--isnr=-inf"], "isnr_list"),
            (["--budget", "soupN"], "budgets"),
        ],
    )
    def test_bad_grid_exits_1_naming_field(self, flags, field, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", "--preset", "ci", "--out", str(out), *flags]) == 1
        assert f"config error: {field}:" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_thread_env_var_exits_1(self, tmp_path, monkeypatch, capsys):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        monkeypatch.setenv("QCSLAB_THREADS", "soup")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "QCSLAB_THREADS" in capsys.readouterr().err

    def test_flag_conflicts_exit_1(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        assert main(["sweep", "--config", str(cfg), "--preset", "ci"]) == 1
        assert main(["sweep"]) == 1

    def test_preset_with_overrides(self, tmp_path):
        out = tmp_path / "out"
        code = main(["sweep", "--preset", "ci", "--trials", "1", "--bits", "2",
                     "--isnr", "10", "--seed", "3", "--out", str(out)])
        assert code == 0
        rows = read_csv(out / "results.csv")
        assert {r["algorithm"] for r in rows} == {"oracle_ls", "bpdn"}
        assert all(r["n"] == "256" for r in rows)

    def test_config_json_reruns_the_sweep(self, tmp_path):
        # The sweep leaves its config with the preset's overrides applied;
        # `sweep --config` on it writes every file again, byte for byte.
        out, again = tmp_path / "out", tmp_path / "again"
        assert main(["sweep", "--preset", "ci", "--trials", "1", "--budget", "2N",
                     "--isnr", "35,5", "--seed", "5", "--out", str(out)]) == 0
        assert read_config(out / "config.json") == replace(
            sweep_preset("ci"), trials=1, budgets=["2N"], isnr_list=[35.0, 5.0],
            master_seed=5,
        )
        assert main(["sweep", "--config", str(out / "config.json"),
                     "--out", str(again)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(p.name for p in again.iterdir())
        for name in names:
            assert (out / name).read_bytes() == (again / name).read_bytes(), name


class TestRegimeMapCmd:
    """The regime maps that sweep writes, one per budget."""

    def test_single_isnr_single_row(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--budget", "2N",
                     "--out", str(out)]) == 0
        rows = read_csv(out / "regime_map_budget128.csv")
        assert len(rows) == 1
        assert rows[0]["regime"] in {"QC", "MC", "transition"}
        assert rows[0]["best_algorithm"] in {"bpdn", "biht_l1", "biht_l2"}
        assert (out / "regime_map_budget128.svg").exists()
        # The sweep it ranks is saved too.
        assert len(read_csv(out / "results.csv")) == 2 * 2 * 3
        assert len(read_csv(out / "aggregates.csv")) == 6

    def test_csv_rows_are_regime_points(self, tmp_path):
        cfg_path = write_tiny_config(tmp_path / "cfg.json", isnr_list=[5.0, 20.0])
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg_path), "--budget", "2N",
                     "--out", str(out)]) == 0
        cfg = read_config(cfg_path)
        points = regime_map(cfg, "2N", run_sweep(cfg))
        with open(out / "regime_map_budget128.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == [f.name for f in fields(RegimePoint)]
        # Floats are written with repr, so they read back exactly.
        hints = get_type_hints(RegimePoint)
        assert [
            RegimePoint(*(hints[c](cell) for c, cell in zip(header, row))) for row in rows
        ] == points

    def test_no_budget_maps_every_config_budget(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json", budgets=["1N", "2N"])
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        for budget in (64, 128):
            assert len(read_csv(out / f"regime_map_budget{budget}.csv")) == 1
            assert (out / f"regime_map_budget{budget}.svg").exists()

    def test_budget_list_maps_each_budget(self, tmp_path):
        # One sweep over the list; each budget's map is the one a run at
        # that budget alone writes.
        cfg = write_tiny_config(tmp_path / "cfg.json", isnr_list=[5.0, 20.0])
        both = tmp_path / "both"
        assert main(["sweep", "--config", str(cfg), "--budget", "1N,2N",
                     "--out", str(both)]) == 0
        for flag, budget in (("1N", 64), ("2N", 128)):
            alone = tmp_path / flag
            assert main(["sweep", "--config", str(cfg), "--budget", flag,
                         "--out", str(alone)]) == 0
            for suffix in ("csv", "svg"):
                name = f"regime_map_budget{budget}.{suffix}"
                assert (both / name).read_bytes() == (alone / name).read_bytes()

    def test_infinite_isnr_stays_in_the_csv_off_the_chart(self, tmp_path, capsys):
        # An ISNR of inf (no noise) is in the domain, but no axis can show it.
        cfg = write_tiny_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(cfg), "--budget", "2N", "--bits", "2,4"]
        assert main([*argv, "--isnr", "10,inf", "--out", str(out)]) == 0
        rows = read_csv(out / "regime_map_budget128.csv")
        assert [r["isnr_db"] for r in rows] == ["10.0", "inf"]
        assert (out / "regime_map_budget128.svg").exists()
        capsys.readouterr()
        only_inf = tmp_path / "only_inf"
        assert main([*argv, "--isnr", "inf", "--out", str(only_inf)]) == 0
        assert [r["isnr_db"] for r in read_csv(only_inf / "regime_map_budget128.csv")] == [
            "inf"
        ]
        assert not (only_inf / "regime_map_budget128.svg").exists()
        captured = capsys.readouterr()
        assert "budget 128: no regime chart: no finite ISNR to plot\n" in captured.out
        assert captured.err == ""

    def test_empty_map_exits_3_writing_no_map(self, tmp_path, capsys):
        # biht_l1 applies at no bit depth of the grid, and the oracle,
        # which runs, does not compete with it.
        cfg = write_tiny_config(
            tmp_path / "cfg.json", algorithms=["oracle_ls", "biht_l1"], bit_grid=[2, 4]
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--budget", "2N",
                     "--out", str(out)]) == 3
        printed = capsys.readouterr().out.splitlines()
        assert printed[-1] == "budget 128: no regime map: none of the decoders it ranks ran"
        assert not list(out.glob("regime_map_*"))
        assert (out / "results.csv").exists()


    def test_no_tuple_exits_2_writing_nothing(self, tmp_path, capsys):
        # At a --budget of 7 bits, m = 7, 3 and 1 < k = 8: no map, no file.
        cfg = write_tiny_config(tmp_path / "cfg.json", k=8)
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(cfg), "--budget", "7", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "m = 7 < k = 8" in captured.out
        assert captured.err == "qcslab: no tuples executed\n"
        assert not out.exists()
        out.mkdir()
        assert main(argv) == 2
        assert out.is_dir() and not any(out.iterdir())
        assert capsys.readouterr().err == captured.err

@pytest.mark.parametrize(
    "argv",
    [
        ["bound-curve", "--bits", "2..1000000000000"],
        ["sweep", "--preset", "ci", "--bits", "1..1000000000000"],
    ],
)
def test_huge_bits_range_exits_1_before_it_is_built(argv, tmp_path, child_env):
    # A range of more than MAX_BITS depths is refused from its ends. The
    # child runs under a 2 GiB address-space limit, so a CLI that built
    # the range would fail there (out of memory) rather than exhaust the host.
    code = (
        "import resource, sys; "
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
        "from qcslab.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv, "--out", str(out)],
        capture_output=True,
        text=True,
        env=dict(child_env, OPENBLAS_NUM_THREADS="1"),
        timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("qcslab: error: --bits: ")
    assert proc.stderr.count("\n") == 1
    assert not out.exists()


class TestPresetsCmd:
    def test_list(self, capsys):
        # presets list prints exactly the names that sweep --preset accepts.
        assert main(["presets", "list"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        subcommands = next(
            a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        sweep = subcommands.choices["sweep"]
        accepted = next(a.choices for a in sweep._actions if a.dest == "preset")
        assert sorted(listed) == sorted(accepted)
        assert set(listed) == {"fig2", "fig3", "fig4", "ci", "k60"}

    def test_k60_is_fig3_with_denser_signals(self):
        k60, fig3 = sweep_preset("k60"), sweep_preset("fig3")
        assert k60.k == 60
        assert fig3.k == 10
        assert replace(k60, k=10) == fig3
