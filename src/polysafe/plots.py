"""Dependency-free SVG line charts and phase portraits.

Only polylines, axes, ticks, and text are emitted, so the files are
self-contained and diff-friendly.  Not a general plotting layer; just
enough to reproduce the trajectory figures.
"""

from __future__ import annotations

import math

import numpy as np

from .polytope import SafetySpec, vertices

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 62, 16, 34, 46  # margins
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def _fmt(v: float) -> str:
    return f"{v:.6g}"


class SvgChart:
    """One x-y chart; add polylines and polygons, then write()."""

    def __init__(self, title: str = "", xlabel: str = "", ylabel: str = ""):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self._series: list[tuple[np.ndarray, np.ndarray, str, str]] = []
        self._polygons: list[np.ndarray] = []

    def add_line(self, x, y, label: str = "") -> None:
        color = _COLORS[len(self._series) % len(_COLORS)]
        self._series.append((np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                             label, color))

    def add_polygon(self, vertices) -> None:
        self._polygons.append(np.asarray(vertices, dtype=float))

    def _limits(self) -> tuple[float, float, float, float]:
        xs = [s[0] for s in self._series] + [p[:, 0] for p in self._polygons]
        ys = [s[1] for s in self._series] + [p[:, 1] for p in self._polygons]
        allx = np.concatenate(xs) if xs else np.array([0.0, 1.0])
        ally = np.concatenate(ys) if ys else np.array([0.0, 1.0])
        x0, x1 = float(allx.min()), float(allx.max())
        y0, y1 = float(ally.min()), float(ally.max())
        if x1 == x0:
            x1 = x0 + 1.0
        pad = 0.05 * (y1 - y0) or 0.5
        return x0, x1, y0 - pad, y1 + pad

    def write(self, path) -> None:
        x0, x1, y0, y1 = self._limits()
        iw = _W - _ML - _MR
        ih = _H - _MT - _MB

        def px(x):
            return _ML + iw * (x - x0) / (x1 - x0)

        def py(y):
            return _MT + ih * (1.0 - (y - y0) / (y1 - y0))

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
            f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
            f'<rect width="{_W}" height="{_H}" fill="white"/>',
            f'<text x="{_W / 2}" y="20" text-anchor="middle" '
            f'font-size="14">{self.title}</text>',
        ]
        for t in _ticks(x0, x1):
            out.append(f'<line x1="{px(t):.2f}" y1="{_MT}" x2="{px(t):.2f}" '
                       f'y2="{_MT + ih}" stroke="#dddddd"/>')
            out.append(f'<text x="{px(t):.2f}" y="{_MT + ih + 16}" '
                       f'text-anchor="middle">{_fmt(t)}</text>')
        for t in _ticks(y0, y1):
            out.append(f'<line x1="{_ML}" y1="{py(t):.2f}" x2="{_ML + iw}" '
                       f'y2="{py(t):.2f}" stroke="#dddddd"/>')
            out.append(f'<text x="{_ML - 6}" y="{py(t) + 4:.2f}" '
                       f'text-anchor="end">{_fmt(t)}</text>')
        out.append(f'<rect x="{_ML}" y="{_MT}" width="{iw}" height="{ih}" '
                   f'fill="none" stroke="#333333"/>')
        for verts in self._polygons:
            pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in verts)
            out.append(f'<polygon points="{pts}" fill="none" stroke="#555555" '
                       f'stroke-dasharray="5,4" stroke-width="1.5"/>')
        for x, y, _, color in self._series:
            keep = np.isfinite(x) & np.isfinite(y)
            pts = " ".join(f"{px(a):.2f},{py(b):.2f}"
                           for a, b in zip(x[keep], y[keep]))
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                       f'stroke-width="1.5"/>')
        ly = _MT + 14
        for _, _, label, color in self._series:
            if not label:
                continue
            out.append(f'<line x1="{_ML + 10}" y1="{ly - 4}" x2="{_ML + 34}" '
                       f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
            out.append(f'<text x="{_ML + 40}" y="{ly}">{label}</text>')
            ly += 16
        out.append(f'<text x="{_ML + iw / 2}" y="{_H - 10}" '
                   f'text-anchor="middle">{self.xlabel}</text>')
        out.append(f'<text x="16" y="{_MT + ih / 2}" text-anchor="middle" '
                   f'transform="rotate(-90 16 {_MT + ih / 2})">{self.ylabel}</text>')
        out.append("</svg>")
        with open(path, "w") as f:
            f.write("\n".join(out) + "\n")


def term_vertices_2d(spec: SafetySpec, ell: int = 0) -> np.ndarray:
    """Vertices of a 2-D term polygon, ordered counterclockwise."""
    if spec.n != 2:
        raise ValueError("polygon overlay requires n = 2")
    verts = np.unique(np.round(vertices(*spec.rows.term_rows(ell)[:2]), 12), axis=0)
    center = verts.mean(axis=0)
    order = np.argsort(np.arctan2(verts[:, 1] - center[1], verts[:, 0] - center[0]))
    return verts[order]
