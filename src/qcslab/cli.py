"""Command-line surface: bound curves, sweeps, regime maps, presets.

Every command is a pure function of its flags, config file, and seed:
running the same invocation twice produces byte-identical CSV and SVG
outputs (wall-clock timing is opt-in via --timing for that reason).

Exit codes: 0 success, 1 usage or config error, 2 runtime failure,
3 partial failure (some tuples skipped or failed).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import List, Optional

from . import bound as bound_mod
from . import presets
from .errors import ConfigError, InvalidParameterError, QcsLabError
from .harness import (
    ExperimentConfig,
    ResultTable,
    parse_budget,
    read_config,
    regime_map,
    run_sweep,
    write_aggregates,
    write_results,
)
from .svgplot import PlotSpec, Series, render_svg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_PARTIAL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the documented contract
    # reserves 2 for runtime failures, so remap usage errors to 1.
    def error(self, message):
        raise _UsageError(message)


def _parse_float_list(text: str, flag: str) -> List[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise _UsageError(f"{flag}: cannot parse {text!r} as a comma list of numbers")


def _parse_bits(text: str, flag: str = "--bits") -> List[int]:
    """Accept 'a..b' integer ranges or comma lists like '1,2,4'."""
    text = text.strip()
    if ".." in text:
        head, _, tail = text.partition("..")
        try:
            lo, hi = int(head), int(tail)
        except ValueError:
            raise _UsageError(f"{flag}: cannot parse range {text!r}")
        if lo > hi:
            raise _UsageError(f"{flag}: empty range {text!r}")
        return list(range(lo, hi + 1))
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise _UsageError(f"{flag}: cannot parse {text!r}")


@contextmanager
def _blame(flag: str):
    """Report a parameter error raised in the block as a usage error on flag."""
    try:
        yield
    except (ConfigError, InvalidParameterError) as exc:
        raise _UsageError(f"{flag}: {exc}") from exc


def _bound_budget(args) -> int:
    """The bound-curve budget, once every flag the bound reads is checked.

    Each check adds one flag's value, so a domain error names that flag.
    """
    if args.n < 1:
        raise _UsageError("--n: must be >= 1")
    if not 1 <= args.k <= args.n:
        raise _UsageError("--k: must satisfy 1 <= k <= n")
    if not args.sigma_x2 > 0:
        raise _UsageError("--sigma-x2: must be positive")
    with _blame("--budget"):
        budget = parse_budget(args.budget, args.n)
        params = bound_mod.BoundParams(args.n, args.k, args.sigma_x2, 0.0, budget)
    with _blame("--delta"):
        params = replace(params, delta=args.delta)
    with _blame("--corr-s"):
        replace(params, corr_s=args.corr_s)
    return budget


def _fmt_num(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _add_common(parser):
    parser.add_argument("--out", default="qcslab_out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="master seed override")


def _build_parser() -> _Parser:
    parser = _Parser(prog="qcslab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("bound-curve", help="bit-depth bound curves with minima")
    pb.add_argument("--isnr", default="35,20,10,5", help="comma list of ISNRs in dB")
    pb.add_argument("--bits", default="2..12", help="bit grid, e.g. 2..12 or 2,4,6")
    pb.add_argument("--mode", choices=["inner", "full"], default="inner")
    pb.add_argument("--delta", type=float, default=0.0, help="isometry constant")
    pb.add_argument("--corr-s", type=float, default=0.0, help="correlation term")
    pb.add_argument("--budget", default="3N", help="bit budget (xN or absolute)")
    pb.add_argument("--n", type=int, default=1000)
    pb.add_argument("--k", type=int, default=10)
    pb.add_argument("--sigma-x2", type=float, default=1.0)
    pb.add_argument("--preset", choices=["fig1"], default=None)
    _add_common(pb)

    ps = sub.add_parser("sweep", help="Monte-Carlo sweep over (budget, B, ISNR)")
    ps.add_argument("--config", default=None, help="JSON config path")
    ps.add_argument("--preset", choices=sorted(presets.preset_names()), default=None)
    ps.add_argument("--trials", type=int, default=None)
    ps.add_argument("--isnr", default=None, help="override ISNR comma list")
    ps.add_argument("--bits", default=None, help="override bit grid")
    ps.add_argument("--budget", default=None, help="override budgets (comma list)")
    ps.add_argument("--timing", action="store_true", help="record wall times")
    _add_common(ps)

    pr = sub.add_parser("regime-map", help="best (M, B) per ISNR at a fixed budget")
    pr.add_argument("--config", default=None)
    pr.add_argument("--preset", choices=sorted(presets.preset_names()), default=None)
    pr.add_argument("--budget", required=True, help="bit budget (xN or absolute)")
    pr.add_argument("--trials", type=int, default=None)
    pr.add_argument("--isnr", default=None, help="override ISNR comma list")
    pr.add_argument("--bits", default=None, help="override bit grid")
    _add_common(pr)

    pp = sub.add_parser("presets", help="preset inspection")
    pp.add_argument("action", choices=["list"])
    return parser


def _cmd_bound_curve(args) -> int:
    out = _out_dir(args)
    if args.preset == "fig1":
        isnr_list = list(presets.FIG1.isnr_list)
        bits = list(range(presets.FIG1.b_min, presets.FIG1.b_max + 1))
        mode = presets.FIG1.mode
    else:
        isnr_list = _parse_float_list(args.isnr, "--isnr")
        bits = _parse_bits(args.bits)
        mode = args.mode
    if not isnr_list:
        raise _UsageError("--isnr: need at least one value")
    budget = _bound_budget(args)
    for isnr in isnr_list:
        params = bound_mod.params_for_isnr(
            isnr,
            n=args.n,
            k=args.k,
            sigma_x2=args.sigma_x2,
            budget=budget,
            delta=args.delta,
            corr_s=args.corr_s,
        )
        with _blame("--bits"):
            curve = bound_mod.optimal_bitdepth(params, min(bits), max(bits), mode=mode)
        tag = _fmt_num(isnr)
        csv_lines = ["bit_depth,bound_value,is_min"]
        for b, v in zip(curve.bit_grid, curve.values):
            csv_lines.append(f"{b},{float(v)!r},{1 if b == curve.argmin_b else 0}")
        (out / f"bound_curve_isnr{tag}.csv").write_text(
            "\n".join(csv_lines) + "\n", encoding="utf-8"
        )
        min_val = float(curve.values[curve.bit_grid.index(curve.argmin_b)])
        spec = PlotSpec(
            series=[
                Series(
                    label=f"ISNR {tag} dB",
                    x=list(curve.bit_grid),
                    y=[float(v) for v in curve.values],
                )
            ],
            x_label="bit depth B",
            y_label="error bound" if mode == "full" else "per-measurement error term",
            title=f"Bound vs bit depth, ISNR {tag} dB (min at B={curve.argmin_b})",
            markers=[(float(curve.argmin_b), min_val)],
        )
        render_svg(spec, out / f"bound_curve_isnr{tag}.svg")
        print(f"ISNR {tag} dB: optimal B = {curve.argmin_b}")
    print(f"wrote {2 * len(isnr_list)} files to {out}")
    return EXIT_OK


def _load_sweep_config(args) -> ExperimentConfig:
    if args.config and args.preset:
        raise _UsageError("pass either --config or --preset, not both")
    if args.config:
        cfg = read_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, master_seed=args.seed)
    elif args.preset:
        if args.preset == "fig1":
            raise _UsageError("preset fig1 belongs to bound-curve")
        cfg = presets.sweep_preset(args.preset, seed=args.seed)
    else:
        raise _UsageError("one of --config or --preset is required")
    if args.trials is not None:
        cfg = replace(cfg, trials=args.trials)
    if args.isnr is not None:
        cfg = replace(cfg, isnr_list=_parse_float_list(args.isnr, "--isnr"))
    if getattr(args, "bits", None) is not None:
        cfg = replace(cfg, bit_grid=_parse_bits(args.bits))
    if getattr(args, "budget", None) is not None and args.command == "sweep":
        raw = [tok.strip() for tok in str(args.budget).split(",") if tok.strip()]
        cfg = replace(cfg, budgets=raw)
    return cfg


def _report_partial(table: ResultTable) -> int:
    if table.skips:
        print(f"{len(table.skips)} tuple(s) skipped or failed:")
        for skip in table.skips[:20]:
            print(
                f"  budget={skip.budget} B={skip.bit_depth} "
                f"isnr={_fmt_num(skip.isnr_db)}: {skip.reason}"
            )
        if len(table.skips) > 20:
            print(f"  ... and {len(table.skips) - 20} more")
    if not table.rows:
        print("no tuples executed")
        return EXIT_RUNTIME
    return EXIT_PARTIAL if table.skips else EXIT_OK


def _sweep_svgs(cfg: ExperimentConfig, table: ResultTable, out: Path) -> None:
    # One chart per ISNR, one series per (bit depth, algorithm) pair.
    for isnr in cfg.isnr_list:
        series = []
        keys = sorted(
            {(a.bit_depth, a.algorithm) for a in table.aggregates if a.isnr_db == float(isnr)}
        )
        for bit_depth, algorithm in keys:
            pts = sorted(
                (a.budget, a.rsnr_mean)
                for a in table.aggregates
                if a.isnr_db == float(isnr)
                and a.bit_depth == bit_depth
                and a.algorithm == algorithm
            )
            if not pts:
                continue
            series.append(
                Series(
                    label=f"B={bit_depth} ({algorithm})",
                    x=[p[0] for p in pts],
                    y=[p[1] for p in pts],
                )
            )
        if not series:
            continue
        tag = _fmt_num(isnr)
        spec = PlotSpec(
            series=series,
            x_label="total bits",
            y_label="mean RSNR (dB)",
            title=f"RSNR vs bit budget, ISNR {tag} dB",
        )
        render_svg(spec, out / f"rsnr_vs_budget_isnr{tag}.svg")


def _cmd_sweep(args) -> int:
    cfg = _load_sweep_config(args)
    out = _out_dir(args)
    table = run_sweep(cfg, record_timing=args.timing)
    write_results(table, out / "results.csv")
    write_aggregates(table, out / "aggregates.csv")
    _sweep_svgs(cfg, table, out)
    print(f"{len(table.rows)} result rows, {len(table.aggregates)} aggregates -> {out}")
    return _report_partial(table)


def _cmd_regime_map(args) -> int:
    cfg = _load_sweep_config(args)
    out = _out_dir(args)
    budget = parse_budget(args.budget, cfg.n)
    points, table = regime_map(cfg, budget)
    tag = str(budget)
    lines = ["isnr_db,best_b,best_m,best_rsnr,regime"]
    for p in points:
        lines.append(
            f"{p.isnr_db!r},{p.best_b},{p.best_m},{p.best_rsnr!r},{p.regime}"
        )
    (out / f"regime_map_budget{tag}.csv").write_text(
        "\n".join(lines) + "\n", encoding="utf-8"
    )
    if points:
        spec = PlotSpec(
            series=[
                Series(
                    label="measurements M",
                    x=[p.isnr_db for p in points],
                    y=[float(p.best_m) for p in points],
                    axis="left",
                ),
                Series(
                    label="bit depth B",
                    x=[p.isnr_db for p in points],
                    y=[float(p.best_b) for p in points],
                    axis="right",
                ),
            ],
            x_label="ISNR (dB)",
            y_label="measurements M",
            y2_label="bit depth B",
            title=f"Best (M, B) vs ISNR at budget {tag}",
        )
        render_svg(spec, out / f"regime_map_budget{tag}.svg")
    print(f"{len(points)} regime points -> {out}")
    return _report_partial(table)


def _cmd_presets(_args) -> int:
    for name, desc in presets.preset_descriptions().items():
        print(f"{name:6s} {desc}")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"qcslab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "bound-curve":
            return _cmd_bound_curve(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "regime-map":
            return _cmd_regime_map(args)
        if args.command == "presets":
            return _cmd_presets(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        print(f"qcslab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"qcslab: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QcsLabError as exc:
        print(f"qcslab: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"qcslab: io error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
