"""Command-line surface: bound curves, sweeps with their regime maps, presets.

Every command is a pure function of its flags, config file, and seed:
running the same invocation twice produces byte-identical CSV and SVG
outputs (wall-clock timing is opt-in via --timing for that reason).

Exit codes: 0 success, 1 usage or config error, 2 runtime failure,
3 partial failure (some tuples skipped or failed, or a sweep budget left
without a regime map).

A bad value exits 1 with one stderr line: `qcslab: error: --<flag>: ...`
for a flag (bound-curve names the ConfigError's field as its flag), and
`qcslab: config error: <field>: ...` for the config field a sweep sets.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import List, Optional

from . import bound as bound_mod
from . import presets
from .errors import ConfigError, QcsLabError
from .harness import (
    ExperimentConfig,
    RegimePoint,
    ResultTable,
    parse_budget,
    read_config,
    regime_map,
    run_sweep,
    to_csv,
    write_aggregates,
    write_config,
    write_results,
)
from .quantize import MAX_BITS
from .signal_model import check_isnr_list
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


def _parse_bits(text: str) -> List[int]:
    """Accept 'a..b' integer ranges or comma lists like '1,2,4'; a range
    of more than MAX_BITS depths is refused before it is built."""
    text = text.strip()
    if ".." in text:
        head, _, tail = text.partition("..")
        try:
            lo, hi = int(head), int(tail)
        except ValueError:
            raise _UsageError(f"--bits: cannot parse range {text!r}")
        if hi - lo >= MAX_BITS:
            raise _UsageError(f"--bits: range {text!r} spans more than {MAX_BITS} depths")
        return list(range(lo, hi + 1))
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise _UsageError(f"--bits: cannot parse {text!r}")


def _fmt_num(value: float) -> str:
    """value for a file name or a message: integral values below 1e15 as
    integers (20 for 20.0), any other by repr (1e+308, not 309 digits)."""
    value = float(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


@contextmanager
def _claim_out(args):
    """Make --out for the block that writes into it; if the block raises,
    remove it again when this call made it and it is still empty."""
    out = Path(args.out)
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    try:
        yield out
    except BaseException:
        if made and not any(out.iterdir()):
            out.rmdir()
        raise


@dataclass(frozen=True)
class BoundCurveRow:
    """One bit depth of a bound curve; is_min is 1 at the curve's minimum."""

    bit_depth: int
    bound_value: float
    is_min: int


def _add_common(parser):
    parser.add_argument("--out", default="qcslab_out", help="output directory")


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
    _add_common(pb)
    pb.set_defaults(run=_cmd_bound_curve)

    ps = sub.add_parser(
        "sweep", help="Monte-Carlo sweep over (budget, B, ISNR), one regime map per budget"
    )
    ps.add_argument("--config", default=None, help="JSON config path")
    ps.add_argument("--preset", choices=sorted(presets.preset_descriptions()))
    ps.add_argument("--trials", type=int, default=None)
    ps.add_argument("--isnr", default=None, help="override ISNR comma list")
    ps.add_argument("--bits", default=None, help="override bit grid")
    ps.add_argument("--budget", default=None, help="override budgets (comma list)")
    ps.add_argument("--seed", type=int, default=None, help="master seed override")
    ps.add_argument("--timing", action="store_true", help="record wall times")
    _add_common(ps)
    ps.set_defaults(run=_cmd_sweep)

    pp = sub.add_parser("presets", help="preset inspection")
    pp.add_argument("action", choices=["list"])
    pp.set_defaults(run=_cmd_presets)
    return parser


def _cmd_bound_curve(args) -> int:
    isnr_list = _parse_float_list(args.isnr, "--isnr")
    bits = _parse_bits(args.bits)
    try:
        check_isnr_list("isnr", isnr_list, args.n, args.k, args.sigma_x2)
        budget = parse_budget(args.budget, args.n)
        curves = [
            bound_mod.optimal_bitdepth(
                bound_mod.params_for_isnr(
                    isnr,
                    n=args.n,
                    k=args.k,
                    sigma_x2=args.sigma_x2,
                    budget=budget,
                    delta=args.delta,
                    corr_s=args.corr_s,
                ),
                bits,
                mode=args.mode,
            )
            for isnr in isnr_list
        ]
    except ConfigError as exc:  # a field's flag is --<field>, but for these two
        flag = {"budgets": "budget", "sigma_n2": "isnr"}.get(exc.field, exc.field)
        raise _UsageError(f"--{flag.replace('_', '-')}: {exc.message}") from exc
    y_label = "error bound" if args.mode == "full" else "per-measurement error term"
    with _claim_out(args) as out:
        for isnr, curve in zip(isnr_list, curves):
            tag = _fmt_num(isnr)
            rows = [
                BoundCurveRow(b, float(v), int(b == curve.argmin_b))
                for b, v in zip(curve.bit_grid, curve.values)
            ]
            (out / f"bound_curve_isnr{tag}.csv").write_text(
                to_csv(rows, BoundCurveRow), encoding="utf-8"
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
                y_label=y_label,
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
    elif args.preset:
        cfg = presets.sweep_preset(args.preset)
    else:
        raise _UsageError("one of --config or --preset is required")
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.isnr is not None:
        overrides["isnr_list"] = _parse_float_list(args.isnr, "--isnr")
    if args.bits is not None:
        overrides["bit_grid"] = _parse_bits(args.bits)
    if args.budget is not None:
        overrides["budgets"] = [tok.strip() for tok in args.budget.split(",") if tok.strip()]
    return replace(cfg, **overrides)


def _print_skips(table: ResultTable) -> None:
    if not table.skips:
        return
    print(f"{len(table.skips)} tuple(s) skipped or failed:")
    for skip in table.skips[:20]:
        print(
            f"  budget={skip.budget} B={skip.bit_depth} "
            f"isnr={_fmt_num(skip.isnr_db)}: {skip.reason}"
        )
    if len(table.skips) > 20:
        print(f"  ... and {len(table.skips) - 20} more")


def _sweep_svgs(cfg: ExperimentConfig, table: ResultTable, out: Path) -> None:
    # One chart per ISNR, one series per (bit depth, algorithm) pair.
    ordered = sorted(table.aggregates, key=lambda a: (a.bit_depth, a.algorithm, a.budget))
    for isnr in cfg.isnr_list:
        curves = {}
        for a in ordered:
            if a.isnr_db == float(isnr):
                curves.setdefault((a.bit_depth, a.algorithm), []).append(a)
        if not curves:
            continue
        series = [
            Series(
                label=f"B={bit_depth} ({algorithm})",
                x=[a.budget for a in aggs],
                y=[a.rsnr_mean for a in aggs],
            )
            for (bit_depth, algorithm), aggs in curves.items()
        ]
        tag = _fmt_num(isnr)
        spec = PlotSpec(
            series=series,
            x_label="total bits",
            y_label="mean RSNR (dB)",
            title=f"RSNR vs bit budget, ISNR {tag} dB",
        )
        render_svg(spec, out / f"rsnr_vs_budget_isnr{tag}.svg")


def _cmd_sweep(args) -> int:
    """Run the sweep of the config, preset and flags, print its skip
    reasons, write config.json (the config, which `sweep --config` re-runs),
    results.csv, aggregates.csv, the RSNR charts and one regime map (best B
    per ISNR) per budget to --out, and return the exit code.

    A sweep that executes no tuple writes nothing and raises QcsLabError.
    A budget whose map has no point is named and gets no file; it, like a
    skipped or failed tuple, makes the exit code 3.
    """
    cfg = _load_sweep_config(args)
    with _claim_out(args) as out:
        table = run_sweep(cfg, record_timing=args.timing)
        _print_skips(table)
        if not table.rows:
            raise QcsLabError("no tuples executed")
        write_config(cfg, out / "config.json")
        write_results(table, out / "results.csv")
        write_aggregates(table, out / "aggregates.csv")
        _sweep_svgs(cfg, table, out)
        print(f"{len(table.rows)} result rows, {len(table.aggregates)} aggregates -> {out}")
        unmapped = []
        for budget in cfg.resolved_budgets():
            points = regime_map(cfg, budget, table)
            if not points:
                unmapped.append(budget)
                print(f"budget {budget}: no regime map: none of the decoders it ranks ran")
                continue
            (out / f"regime_map_budget{budget}.csv").write_text(
                to_csv(points, RegimePoint), encoding="utf-8"
            )
            print(f"budget {budget}: {len(points)} regime points -> {out}")
            charted = [p for p in points if math.isfinite(p.isnr_db)]  # inf: CSV only
            if not charted:
                print(f"budget {budget}: no regime chart: no finite ISNR to plot")
                continue
            spec = PlotSpec(
                series=[
                    Series(
                        label="bit depth B",
                        x=[p.isnr_db for p in charted],
                        y=[float(p.best_b) for p in charted],
                    )
                ],
                x_label="ISNR (dB)",
                y_label="best bit depth B",
                title=f"Best bit depth vs ISNR at budget {budget}",
            )
            render_svg(spec, out / f"regime_map_budget{budget}.svg")
        return EXIT_PARTIAL if table.skips or unmapped else EXIT_OK


def _cmd_presets(_args) -> int:
    for name, desc in presets.preset_descriptions().items():
        print(f"{name:6s} {desc}")
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.run(args)
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
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"qcslab: out of memory{detail}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
