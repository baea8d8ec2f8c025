"""Minimal scalable-vector-graphics output for sweep results.

Draws the log-log infidelity picture directly (no display toolkit): one
point per ensemble size with bootstrap whiskers, the (d-1)/N limit line,
an optional model line ``floor + coefficient / N``, and the interquartile
band of the observed trials.
"""

from __future__ import annotations

import numpy as np

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 20, 55


def _scaler(lo: float, hi: float, out_lo: float, out_hi: float):
    llo, lhi = np.log10(lo), np.log10(hi)

    def to_px(v):
        frac = (np.log10(v) - llo) / (lhi - llo)
        return out_lo + frac * (out_hi - out_lo)

    return to_px


def _decades(lo: float, hi: float):
    start = int(np.floor(np.log10(lo)))
    stop = int(np.ceil(np.log10(hi)))
    return [10.0 ** k for k in range(start, stop + 1)]


def sweep_plot_svg(table: np.ndarray, gm_coefficient: float = 3.0,
                   model_floor: float = 0.0, model_coefficient: float | None = None) -> str:
    """Render a sweep table (columns as in SweepResult) to an SVG string."""
    ns = np.unique(table[:, 0])
    infs = table[:, 2]
    x_lo, x_hi = ns.min() / 2, ns.max() * 2
    positive = infs[infs > 0]
    y_lo = max(min(positive.min() / 3, gm_coefficient / x_hi / 3), 1e-16)
    y_hi = max(positive.max() * 3, gm_coefficient / x_lo)

    px = _scaler(x_lo, x_hi, MARGIN_L, WIDTH - MARGIN_R)
    py = _scaler(y_lo, y_hi, HEIGHT - MARGIN_B, MARGIN_T)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="black"/>',
    ]

    for tick in _decades(x_lo, x_hi):
        if x_lo <= tick <= x_hi:
            x = px(tick)
            parts.append(f'<line x1="{x:.1f}" y1="{HEIGHT - MARGIN_B}" x2="{x:.1f}" '
                         f'y2="{HEIGHT - MARGIN_B + 5}" stroke="black"/>')
            parts.append(f'<text x="{x:.1f}" y="{HEIGHT - MARGIN_B + 20}" font-size="12" '
                         f'text-anchor="middle">1e{int(np.log10(tick))}</text>')
    for tick in _decades(y_lo, y_hi):
        if y_lo <= tick <= y_hi:
            y = py(tick)
            parts.append(f'<line x1="{MARGIN_L - 5}" y1="{y:.1f}" x2="{MARGIN_L}" '
                         f'y2="{y:.1f}" stroke="black"/>')
            parts.append(f'<text x="{MARGIN_L - 8}" y="{y + 4:.1f}" font-size="12" '
                         f'text-anchor="end">1e{int(np.log10(tick))}</text>')
    parts.append(f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2}" y="{HEIGHT - 12}" '
                 f'font-size="13" text-anchor="middle">ensemble size N</text>')
    parts.append(f'<text x="16" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{(MARGIN_T + HEIGHT - MARGIN_B) / 2})">infidelity</text>')

    def polyline(xs, ys, color, dash=""):
        pts = " ".join(f"{px(x):.1f},{py(max(y, y_lo)):.1f}" for x, y in zip(xs, ys))
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}"{extra}/>')

    grid = np.geomspace(x_lo, x_hi, 64)

    # interquartile band of the observed trials
    q25s, q75s = [], []
    for n in ns:
        sel = table[table[:, 0] == n, 2]
        q25s.append(max(np.quantile(sel, 0.25), y_lo))
        q75s.append(max(np.quantile(sel, 0.75), y_lo))
    band = " ".join(f"{px(n):.1f},{py(hi):.1f}" for n, hi in zip(ns, q75s))
    band += " " + " ".join(f"{px(n):.1f},{py(lo):.1f}" for n, lo in zip(ns[::-1], q25s[::-1]))
    parts.append(f'<polygon points="{band}" fill="#bbbbbb" fill-opacity="0.4" stroke="none"/>')

    polyline(grid, gm_coefficient / grid, "black")
    if model_coefficient is not None:
        polyline(grid, model_floor + model_coefficient / grid, "red", dash="6,3")

    for n in ns:
        sel = table[table[:, 0] == n]
        mean = sel[:, 2].mean()
        lows, highs = sel[:, 3], sel[:, 7]
        if np.all(np.isfinite(lows)):
            lo, hi = max(lows.min(), y_lo), max(highs.max(), y_lo)
        else:
            lo, hi = (max(np.quantile(sel[:, 2], q), y_lo) for q in (0.05, 0.95))
        x = px(n)
        parts.append(f'<line x1="{x:.1f}" y1="{py(lo):.1f}" x2="{x:.1f}" '
                     f'y2="{py(hi):.1f}" stroke="#1f4e9c"/>')
        parts.append(f'<circle cx="{x:.1f}" cy="{py(max(mean, y_lo)):.1f}" r="4" '
                     f'fill="#1f4e9c"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
