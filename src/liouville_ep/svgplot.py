"""Minimal hand-rolled SVG output: scatter clouds, line traces, polygons.

No external plotting dependency; the renderer draws axes with round-number
ticks, optional point markers, and optional polylines.  Output is a complete
standalone SVG document as a string.
"""

from __future__ import annotations

import html
import math

WIDTH = 640
HEIGHT = 480
MARGIN_L = 64
MARGIN_R = 20
MARGIN_T = 36
MARGIN_B = 52


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return []
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(round(t, 12) + 0.0)
        t += step
    return ticks


def _fmt(x: float) -> str:
    return f"{x:.6g}"


class Figure:
    """Collects points and polylines, then renders one SVG plot."""

    def __init__(self, title: str, xlabel: str, ylabel: str):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.point_sets: list[tuple[list[tuple[float, float]], str, float]] = []
        self.lines: list[tuple[list[tuple[float, float]], str]] = []

    def add_points(self, pts, color: str = "#1f77b4", r: float = 2.0) -> None:
        self.point_sets.append(([(float(x), float(y)) for x, y in pts], color, r))

    def add_line(self, pts, color: str = "#d62728") -> None:
        self.lines.append(([(float(x), float(y)) for x, y in pts], color))

    def _bounds(self) -> tuple[float, float, float, float]:
        xs, ys = [], []
        for pts, _, _ in self.point_sets:
            xs.extend(p[0] for p in pts)
            ys.extend(p[1] for p in pts)
        for pts, _ in self.lines:
            xs.extend(p[0] for p in pts)
            ys.extend(p[1] for p in pts)
        if not xs:
            return -1.0, 1.0, -1.0, 1.0
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x1 - x0 < 1e-12:
            x0, x1 = x0 - 1.0, x1 + 1.0
        if y1 - y0 < 1e-12:
            y0, y1 = y0 - 1.0, y1 + 1.0
        padx = 0.04 * (x1 - x0)
        pady = 0.04 * (y1 - y0)
        return x0 - padx, x1 + padx, y0 - pady, y1 + pady

    def render(self) -> str:
        x0, x1, y0, y1 = self._bounds()
        iw = WIDTH - MARGIN_L - MARGIN_R
        ih = HEIGHT - MARGIN_T - MARGIN_B

        def px(x: float) -> float:
            return MARGIN_L + (x - x0) / (x1 - x0) * iw

        def py(y: float) -> float:
            return MARGIN_T + (y1 - y) / (y1 - y0) * ih

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" font-size="14" '
            f'font-family="sans-serif">{html.escape(self.title, quote=False)}</text>',
        ]
        axis = (
            f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{iw}" height="{ih}" '
            f'fill="none" stroke="black" stroke-width="1"/>'
        )
        parts.append(axis)
        for t in _nice_ticks(x0, x1):
            X = px(t)
            parts.append(
                f'<line x1="{X:.2f}" y1="{MARGIN_T + ih}" x2="{X:.2f}" '
                f'y2="{MARGIN_T + ih + 5}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{X:.2f}" y="{MARGIN_T + ih + 18}" text-anchor="middle" '
                f'font-size="11" font-family="sans-serif">{_fmt(t)}</text>'
            )
        for t in _nice_ticks(y0, y1):
            Y = py(t)
            parts.append(
                f'<line x1="{MARGIN_L - 5}" y1="{Y:.2f}" x2="{MARGIN_L}" '
                f'y2="{Y:.2f}" stroke="black"/>'
            )
            parts.append(
                f'<text x="{MARGIN_L - 8}" y="{Y + 4:.2f}" text-anchor="end" '
                f'font-size="11" font-family="sans-serif">{_fmt(t)}</text>'
            )
        parts.append(
            f'<text x="{MARGIN_L + iw / 2}" y="{HEIGHT - 12}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">'
            f"{html.escape(self.xlabel, quote=False)}</text>"
        )
        parts.append(
            f'<text x="16" y="{MARGIN_T + ih / 2}" text-anchor="middle" font-size="12" '
            f'font-family="sans-serif" transform="rotate(-90 16 {MARGIN_T + ih / 2})">'
            f"{html.escape(self.ylabel, quote=False)}</text>"
        )
        for pts, color in self.lines:
            if not pts:
                continue
            coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
            )
        for pts, color, r in self.point_sets:
            for x, y in pts:
                parts.append(
                    f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="{r}" fill="{color}" '
                    f'fill-opacity="0.6"/>'
                )
        parts.append("</svg>")
        return "\n".join(parts)

