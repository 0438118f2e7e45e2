import csv
import json
from dataclasses import replace

import pytest

from qcslab.cli import main
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
        code = main(
            ["bound-curve", "--isnr", "35,20,10,5", "--bits", "2..12",
             "--out", str(tmp_path)]
        )
        assert code == 0
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

    def test_bad_flags_exit_1(self):
        assert main(["bound-curve", "--bits", "five"]) == 1
        assert main(["bound-curve", "--isnr", "abc"]) == 1
        assert main(["no-such-command"]) == 1

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--n", "0"),
            ("--k", "0"),
            ("--k", "2000"),
            ("--sigma-x2", "0"),
            ("--bits", "1..5"),
            ("--delta", "1.5"),
            ("--budget", "1"),
            ("--budget", "nanN"),
        ],
    )
    def test_out_of_domain_flag_exits_1_naming_it(self, flag, value, tmp_path, capsys):
        assert main(["bound-curve", flag, value, "--out", str(tmp_path)]) == 1
        assert f"error: {flag}:" in capsys.readouterr().err
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
        # k=8 makes the B=12 tuple unexecutable (m = 10 > k fails: m=170//12=14? craft m<k)
        cfg = write_tiny_config(
            tmp_path / "cfg.json", n=64, k=8, budgets=[24], bit_grid=[4, 2]
        )
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg), "--out", str(out)])
        assert code == 3  # B=4 -> m=6 < 8 skipped; B=2 -> m=12 runs

    def test_total_failure_exit_2(self, tmp_path):
        cfg = write_tiny_config(
            tmp_path / "cfg.json", n=64, k=8, budgets=[8], bit_grid=[4, 2]
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2

    def test_config_errors_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        data = json.loads(write_tiny_config(tmp_path / "base.json").read_text())
        del data["trials"]
        cfg.write_text(json.dumps(data), encoding="utf-8")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "trials" in capsys.readouterr().err

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


class TestRegimeMapCmd:
    def test_single_isnr_single_row(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main(["regime-map", "--config", str(cfg), "--budget", "2N",
                     "--out", str(out)]) == 0
        rows = read_csv(out / "regime_map_budget128.csv")
        assert len(rows) == 1
        assert rows[0]["regime"] in {"QC", "MC", "transition"}
        assert (out / "regime_map_budget128.svg").exists()

    def test_budget_required(self, tmp_path):
        cfg = write_tiny_config(tmp_path / "cfg.json")
        assert main(["regime-map", "--config", str(cfg)]) == 1


class TestPresetsCmd:
    def test_list(self, capsys):
        assert main(["presets", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1", "fig2", "fig3", "fig4", "ci", "k60"):
            assert name in out

    def test_k60_is_fig3_with_denser_signals(self):
        k60, fig3 = sweep_preset("k60"), sweep_preset("fig3")
        assert k60.k == 60
        assert fig3.k == 10
        assert replace(k60, k=10) == fig3
