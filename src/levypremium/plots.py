"""Minimal static SVG renderers for Q-Q / P-P scatters and histograms.

No plotting dependency: reports are data-first (CSV) and these renderers give
a quick visual without an interactive UI.
"""

from __future__ import annotations

import numpy as np

_W, _H, _PAD = 480, 480, 50


def _scale(vals: np.ndarray, lo: float, hi: float, out_lo: float, out_hi: float):
    span = hi - lo if hi > lo else 1.0
    return out_lo + (vals - lo) * (out_hi - out_lo) / span


def _frame(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="20" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14">{title}</text>',
        f'<rect x="{_PAD}" y="{_PAD}" width="{_W - 2 * _PAD}" height="{_H - 2 * _PAD}" '
        f'fill="none" stroke="black"/>',
    ]


def scatter_svg(x, y, title: str = "") -> str:
    """Scatter plot of paired values with a y = x reference line."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lo = float(min(x.min(), y.min()))
    hi = float(max(x.max(), y.max()))
    px = _scale(x, lo, hi, _PAD, _W - _PAD)
    py = _scale(y, lo, hi, _H - _PAD, _PAD)
    parts = _frame(title)
    parts.append(f'<line x1="{_PAD}" y1="{_H - _PAD}" x2="{_W - _PAD}" y2="{_PAD}" '
                 'stroke="#888" stroke-dasharray="4 3"/>')
    step = max(1, x.size // 2000)
    for xi, yi in zip(px[::step], py[::step]):
        parts.append(f'<circle cx="{xi:.2f}" cy="{yi:.2f}" r="1.6" fill="#1f77b4"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def histogram_svg(counts, edges, title: str = "") -> str:
    """Bar plot of histogram counts over bin edges."""
    counts = np.asarray(counts, dtype=float)
    edges = np.asarray(edges, dtype=float)
    top = counts.max() if counts.size and counts.max() > 0 else 1.0
    px = _scale(edges, float(edges[0]), float(edges[-1]), _PAD, _W - _PAD)
    parts = _frame(title)
    for i, c in enumerate(counts):
        h = (c / top) * (_H - 2 * _PAD)
        parts.append(
            f'<rect x="{px[i]:.2f}" y="{_H - _PAD - h:.2f}" '
            f'width="{max(px[i + 1] - px[i] - 1.0, 0.5):.2f}" height="{h:.2f}" '
            'fill="#1f77b4"/>')
    parts.append("</svg>")
    return "\n".join(parts)
