"""Dependency-free SVG line charts with deterministic byte output.

Identical arguments always render to identical bytes: coordinates are
formatted with fixed precision and no timestamps or random ids are
embedded. Every series shares the one y axis; the legend sits in the
right margin.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Tuple

from .errors import InvalidParameterError

WIDTH = 880
HEIGHT = 560
MARGIN_LEFT = 78
MARGIN_RIGHT = 210
MARGIN_TOP = 56
MARGIN_BOTTOM = 78
# About this many ticks per axis; data ranges are padded by this share of their span.
_TICKS = 6
_PAD = 0.06

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


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _fmt_tick(v: float, extra: int = 0) -> str:
    """v to 3 significant digits in e-notation, or to 6 between 1e-3 and
    1e5, plus extra digits."""
    if v == 0:
        return "0"
    if abs(v) >= 1e5 or abs(v) < 1e-3:
        return f"{v:.{2 + extra}e}"
    return f"{v:.{6 + extra}g}"


def _tick_labels(ticks):
    """_fmt_tick of each of the distinct ticks, with the fewest extra
    digits that give them distinct labels (17 significant digits tell any
    two floats apart)."""
    extra = 0
    labels = [_fmt_tick(t) for t in ticks]
    while len(set(labels)) < len(labels):
        extra += 1
        labels = [_fmt_tick(t, extra) for t in ticks]
    return labels


def _nice_ticks(lo: float, hi: float):
    """The distinct multiples of a 1-2-5 step of about (hi - lo) / _TICKS
    in [lo, hi], each i * step for an integer i taken from a range, so the
    count is bounded even where adding the step would not move a tick. A
    range whose step would be subnormal, or that is empty, gets no ticks."""
    raw = (hi - lo) / _TICKS
    if raw < sys.float_info.min:
        return []
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    slack = 1e-9 * (hi / step - lo / step)
    first, last = math.ceil(lo / step), math.floor(hi / step + slack)
    # i * step never decreases with i; where floats are sparser than the
    # step, neighbours round to one value, kept once.
    return list(dict.fromkeys(i * step for i in range(first, last + 1)))


def _data_range(values):
    """The values' range padded by _PAD of its span (a lone value by half
    of itself, or by 1 where that is 0), clamped to the finite floats."""
    lo = min(values)
    hi = max(values)
    if hi == lo:
        pad = abs(hi) * 0.5 or 1.0
    else:
        pad = (hi - lo) * _PAD
    top = sys.float_info.max
    return max(lo - pad, -top), min(hi + pad, top)


def render_svg(
    path,
    series: Sequence[Series],
    x_label: str,
    y_label: str,
    title: str,
    markers: Sequence[Tuple[float, float]] = (),
) -> None:
    """Write a chart of series, with black marker dots, as a standalone SVG file."""
    if not series:
        raise InvalidParameterError("plot needs at least one series")
    for s in series:
        if len(s.x) != len(s.y):
            raise InvalidParameterError(f"series {s.label!r} has mismatched x/y")
        if len(s.x) == 0:
            raise InvalidParameterError(f"series {s.label!r} is empty")

    plot_l, plot_r = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    plot_t, plot_b = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM

    xs = [float(v) for s in series for v in s.x]
    xs += [float(mx) for mx, _ in markers]
    x_lo, x_hi = _data_range(xs)

    ys = [float(v) for s in series for v in s.y]
    ys += [float(my) for _, my in markers]
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
    out.append(
        f'<text x="{WIDTH / 2:.1f}" y="30" text-anchor="middle" '
        f'font-size="18" font-family="Helvetica">{_escape(title)}</text>'
    )

    y_ticks = _nice_ticks(y_lo, y_hi)
    for tick, label in zip(y_ticks, _tick_labels(y_ticks)):
        py = y_px(tick)
        out.append(
            f'<line x1="{plot_l}" y1="{_fmt(py)}" x2="{plot_r}" y2="{_fmt(py)}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{plot_l - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-size="12" font-family="Helvetica">{label}</text>'
        )
    x_ticks = _nice_ticks(x_lo, x_hi)
    for tick, label in zip(x_ticks, _tick_labels(x_ticks)):
        px = x_px(tick)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{plot_b}" x2="{_fmt(px)}" y2="{plot_b + 5}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{plot_b + 22}" text-anchor="middle" '
            f'font-size="12" font-family="Helvetica">{label}</text>'
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
    for i, s in enumerate(series):
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

    for mx, my in markers:
        out.append(
            f'<circle cx="{_fmt(x_px(float(mx)))}" cy="{_fmt(y_px(float(my)))}" '
            'r="5" fill="#000000"/>'
        )

    out.append(
        f'<text x="{(plot_l + plot_r) / 2:.1f}" y="{HEIGHT - 18}" text-anchor="middle" '
        f'font-size="14" font-family="Helvetica">{_escape(x_label)}</text>'
    )
    mid_y = (plot_t + plot_b) / 2
    out.append(
        f'<text x="22" y="{mid_y:.1f}" text-anchor="middle" font-size="14" '
        f'font-family="Helvetica" transform="rotate(-90 22 {mid_y:.1f})">'
        f"{_escape(y_label)}</text>"
    )
    out.append("</svg>")

    Path(path).write_bytes("\n".join(out).encode("utf-8"))
