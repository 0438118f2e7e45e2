"""Dependency-free SVG line charts with deterministic byte output.

Identical plot specs always render to identical bytes: coordinates are
formatted with fixed precision and no timestamps or random ids are
embedded. Every series shares the one y axis; the legend sits in the
right margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Tuple

from .errors import InvalidParameterError

WIDTH = 880
HEIGHT = 560
MARGIN_LEFT = 78
MARGIN_RIGHT = 210
MARGIN_TOP = 56
MARGIN_BOTTOM = 78

COLORS = [
    "#1f77b4",
    "#2ca02c",
    "#d62728",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#17becf",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#aec7e8",
    "#98df8a",
]


@dataclass(frozen=True)
class Series:
    label: str
    x: Sequence[float]
    y: Sequence[float]


@dataclass(frozen=True)
class PlotSpec:
    series: Sequence[Series]
    x_label: str
    y_label: str
    title: Optional[str] = None
    markers: Sequence[Tuple[float, float]] = field(default_factory=tuple)


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _fmt_tick(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e5 or abs(v) < 1e-3:
        return f"{v:.2e}"
    return f"{v:.6g}"


def _nice_ticks(lo: float, hi: float, target: int = 6):
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(v) < 1e-12 * span else v)
        v += step
    return ticks


def _data_range(values, pad_frac: float = 0.06):
    lo = min(values)
    hi = max(values)
    if hi == lo:
        pad = 1.0 if hi == 0 else abs(hi) * 0.5
    else:
        pad = (hi - lo) * pad_frac
    return lo - pad, hi + pad


def render_svg(spec: PlotSpec, path) -> None:
    """Write the chart described by `spec` as a standalone SVG file."""
    if not spec.series:
        raise InvalidParameterError("plot needs at least one series")
    for s in spec.series:
        if len(s.x) != len(s.y):
            raise InvalidParameterError(f"series {s.label!r} has mismatched x/y")
        if len(s.x) == 0:
            raise InvalidParameterError(f"series {s.label!r} is empty")

    plot_l, plot_r = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    plot_t, plot_b = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM

    xs = [float(v) for s in spec.series for v in s.x]
    xs += [float(mx) for mx, _ in spec.markers]
    x_lo, x_hi = _data_range(xs)

    ys = [float(v) for s in spec.series for v in s.y]
    ys += [float(my) for _, my in spec.markers]
    y_lo, y_hi = _data_range(ys)

    def x_px(v: float) -> float:
        return plot_l + (v - x_lo) / (x_hi - x_lo) * (plot_r - plot_l)

    def y_px(v: float) -> float:
        return plot_b - (v - y_lo) / (y_hi - y_lo) * (plot_b - plot_t)

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    out.append('<rect width="100%" height="100%" fill="#ffffff"/>')
    if spec.title:
        out.append(
            f'<text x="{WIDTH / 2:.1f}" y="30" text-anchor="middle" '
            f'font-size="18" font-family="Helvetica">{_escape(spec.title)}</text>'
        )

    for tick in _nice_ticks(y_lo, y_hi):
        py = y_px(tick)
        out.append(
            f'<line x1="{plot_l}" y1="{_fmt(py)}" x2="{plot_r}" y2="{_fmt(py)}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{plot_l - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-size="12" font-family="Helvetica">{_fmt_tick(tick)}</text>'
        )
    for tick in _nice_ticks(x_lo, x_hi):
        px = x_px(tick)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{plot_b}" x2="{_fmt(px)}" y2="{plot_b + 5}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{plot_b + 22}" text-anchor="middle" '
            f'font-size="12" font-family="Helvetica">{_fmt_tick(tick)}</text>'
        )

    out.append(
        f'<line x1="{plot_l}" y1="{plot_b}" x2="{plot_r}" y2="{plot_b}" '
        'stroke="#000000" stroke-width="1.5"/>'
    )
    out.append(
        f'<line x1="{plot_l}" y1="{plot_t}" x2="{plot_l}" y2="{plot_b}" '
        'stroke="#000000" stroke-width="1.5"/>'
    )

    legend_x = plot_r + 46
    legend_y = plot_t + 10
    for i, s in enumerate(spec.series):
        color = COLORS[i % len(COLORS)]
        pts = sorted(zip(s.x, s.y), key=lambda p: p[0])
        coords = " ".join(
            f"{_fmt(x_px(float(x)))},{_fmt(y_px(float(y)))}" for x, y in pts
        )
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" '
            f'points="{coords}"/>'
        )
        for x, y in pts:
            out.append(
                f'<circle cx="{_fmt(x_px(float(x)))}" cy="{_fmt(y_px(float(y)))}" '
                f'r="3" fill="{color}"/>'
            )
        ly = legend_y + i * 20
        out.append(
            f'<line x1="{legend_x}" y1="{ly}" x2="{legend_x + 22}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{legend_x + 28}" y="{ly + 4}" font-size="12" '
            f'font-family="Helvetica">{_escape(s.label)}</text>'
        )

    for mx, my in spec.markers:
        out.append(
            f'<circle cx="{_fmt(x_px(float(mx)))}" cy="{_fmt(y_px(float(my)))}" '
            'r="5" fill="#000000"/>'
        )

    out.append(
        f'<text x="{(plot_l + plot_r) / 2:.1f}" y="{HEIGHT - 18}" text-anchor="middle" '
        f'font-size="14" font-family="Helvetica">{_escape(spec.x_label)}</text>'
    )
    mid_y = (plot_t + plot_b) / 2
    out.append(
        f'<text x="22" y="{mid_y:.1f}" text-anchor="middle" font-size="14" '
        f'font-family="Helvetica" transform="rotate(-90 22 {mid_y:.1f})">'
        f"{_escape(spec.y_label)}</text>"
    )
    out.append("</svg>")

    Path(path).write_bytes("\n".join(out).encode("utf-8"))
