"""Standalone SVG plots of coefficient series.

Log-scale scatter of |c| against lambda with an optional fitted envelope
line.  Output is a pure function of the input data: no timestamps, fixed
float formatting, byte-stable across runs.
"""

from __future__ import annotations

import math

from .errors import ParameterError

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 20, 44

__all__ = ["svg_coefficient_plot"]


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def svg_coefficient_plot(lams, abs_coeffs, envelope=None, title="") -> str:
    """Render (lambda, |c|) markers; pairs with |c| = 0 are dropped (log axis).

    ``envelope`` is an optional (rate, log_intercept) pair drawing the line
    log10 |c| = (log_intercept - rate * lambda) / ln 10.  With fewer than
    two markers no line is drawn.
    """
    points = [(float(l), float(c)) for l, c in zip(lams, abs_coeffs) if c > 0.0]
    if not points:
        raise ParameterError("nothing to plot: no positive magnitudes")
    xs = [p[0] for p in points]
    ys = [math.log10(p[1]) for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    span_x = x_hi - x_lo
    span_y = y_hi - y_lo
    x_lo -= 0.03 * span_x
    x_hi += 0.03 * span_x
    y_lo -= 0.06 * span_y
    y_hi += 0.06 * span_y

    def to_px(x, y):
        px = MARGIN_L + (x - x_lo) / (x_hi - x_lo) * (WIDTH - MARGIN_L - MARGIN_R)
        py = HEIGHT - MARGIN_B - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - MARGIN_T - MARGIN_B)
        return px, py

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH // 2}" y="14" font-family="monospace" font-size="12" '
            f'text-anchor="middle">{title}</text>\n')
    ax_x0, ax_y0 = to_px(x_lo, y_lo)
    ax_x1, ax_y1 = to_px(x_hi, y_hi)
    parts.append(
        f'<line x1="{_fmt(ax_x0)}" y1="{_fmt(ax_y0)}" x2="{_fmt(ax_x1)}" '
        f'y2="{_fmt(ax_y0)}" stroke="black" stroke-width="1"/>\n')
    parts.append(
        f'<line x1="{_fmt(ax_x0)}" y1="{_fmt(ax_y0)}" x2="{_fmt(ax_x0)}" '
        f'y2="{_fmt(ax_y1)}" stroke="black" stroke-width="1"/>\n')
    for i in range(5):
        frac = i / 4.0
        x_tick = x_lo + frac * (x_hi - x_lo)
        y_tick = y_lo + frac * (y_hi - y_lo)
        px, _ = to_px(x_tick, y_lo)
        _, py = to_px(x_lo, y_tick)
        parts.append(
            f'<text x="{_fmt(px)}" y="{HEIGHT - MARGIN_B + 16}" font-family="monospace" '
            f'font-size="10" text-anchor="middle">{x_tick:.2f}</text>\n')
        parts.append(
            f'<text x="{MARGIN_L - 6}" y="{_fmt(py + 3)}" font-family="monospace" '
            f'font-size="10" text-anchor="end">{y_tick:.2f}</text>\n')
    parts.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) // 2}" y="{HEIGHT - 8}" '
        f'font-family="monospace" font-size="12" text-anchor="middle">lambda</text>\n')
    parts.append(
        f'<text x="14" y="{(MARGIN_T + HEIGHT - MARGIN_B) // 2}" font-family="monospace" '
        f'font-size="12" text-anchor="middle" transform="rotate(-90 14 '
        f'{(MARGIN_T + HEIGHT - MARGIN_B) // 2})">log|c|</text>\n')
    if envelope is not None and len(points) >= 2:
        rate, intercept = envelope
        ln10 = math.log(10.0)
        seg = []
        for x in (max(x_lo, min(xs)), min(x_hi, max(xs))):
            y = (intercept - rate * x) / ln10
            seg.append(to_px(x, min(max(y, y_lo), y_hi)))
        parts.append(
            f'<line x1="{_fmt(seg[0][0])}" y1="{_fmt(seg[0][1])}" '
            f'x2="{_fmt(seg[1][0])}" y2="{_fmt(seg[1][1])}" stroke="#c02020" '
            f'stroke-width="1.5" class="envelope"/>\n')
    for x, y in zip(xs, ys):
        px, py = to_px(x, y)
        parts.append(
            f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="2.5" fill="#204080"/>\n')
    parts.append("</svg>\n")
    return "".join(parts)
