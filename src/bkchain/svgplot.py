"""Minimal self-contained SVG writers: scatter, line and heat-map plots.

No plotting toolchain is assumed; the files are static SVG 1.1 with inline
styling, good enough to eyeball spectra, sweeps and profile maps.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["scatter_svg", "line_svg", "heatmap_svg"]

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _finite(xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    ok = np.isfinite(xs) & np.isfinite(ys)
    return xs[ok], ys[ok]


def _limits(vals):
    lo, hi = float(np.min(vals)), float(np.max(vals))
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def _axes(xlo, xhi, ylo, yhi, title, xlabel, ylabel):
    parts = [
        f'<rect x="{_ML}" y="{_MT}" width="{_W-_ML-_MR}" height="{_H-_MT-_MB}" '
        'fill="white" stroke="black" stroke-width="1"/>',
        f'<text x="{_W/2:.0f}" y="18" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{_W/2:.0f}" y="{_H-12}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{_H/2:.0f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 16 {_H/2:.0f})">{ylabel}</text>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = xlo + frac * (xhi - xlo)
        yv = ylo + frac * (yhi - ylo)
        px = _ML + frac * (_W - _ML - _MR)
        py = _H - _MB - frac * (_H - _MT - _MB)
        parts.append(f'<text x="{px:.1f}" y="{_H-_MB+16}" text-anchor="middle" font-size="10">{xv:.3g}</text>')
        parts.append(f'<text x="{_ML-6}" y="{py:.1f}" text-anchor="end" font-size="10">{yv:.3g}</text>')
    return parts


def _proj(xs, ys, xlo, xhi, ylo, yhi):
    px = _ML + (xs - xlo) / (xhi - xlo) * (_W - _ML - _MR)
    py = _H - _MB - (ys - ylo) / (yhi - ylo) * (_H - _MT - _MB)
    return px, py


def _write(path, parts):
    body = "\n".join(parts)
    with open(path, "w", newline="\n") as fh:
        fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
                 f'viewBox="0 0 {_W} {_H}">\n{body}\n</svg>\n')
    return path


def _series_svg(path, series, title, xlabel, ylabel, line):
    """Points, or with ``line`` a polyline in x order, per series.

    Non-finite points are dropped; the limits span every point left, or
    [-1.1, 1.1] where none is left.
    """
    series = [(label, *_finite(xs, ys), color) for label, xs, ys, color in series]
    allx = np.concatenate([np.empty(0)] + [xs for _, xs, _, _ in series])
    ally = np.concatenate([np.empty(0)] + [ys for _, _, ys, _ in series])
    if not len(allx):
        allx = ally = np.array([0.0])
    xlo, xhi = _limits(allx)
    ylo, yhi = _limits(ally)
    parts = _axes(xlo, xhi, ylo, yhi, title, xlabel, ylabel)
    for i, (label, xs, ys, color) in enumerate(series):
        px, py = _proj(xs, ys, xlo, xhi, ylo, yhi)
        if line:
            order = np.argsort(xs)
            pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px[order], py[order]))
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        else:
            parts += [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.2" fill="{color}" fill-opacity="0.7"/>'
                      for x, y in zip(px, py)]
        parts.append(f'<text x="{_W-_MR-8}" y="{_MT+16+14*i}" text-anchor="end" '
                     f'font-size="11" fill="{color}">{label}</text>')
    return _write(path, parts)


def scatter_svg(path, series, title="", xlabel="", ylabel=""):
    """series: list of (label, xs, ys, color)."""
    return _series_svg(path, series, title, xlabel, ylabel, line=False)


def line_svg(path, series, title="", xlabel="", ylabel=""):
    """series: list of (label, xs, ys, color); points joined in x order."""
    return _series_svg(path, series, title, xlabel, ylabel, line=True)


def _viridis(v):
    # coarse 6-anchor approximation of a perceptual colormap
    anchors = [(68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37), (253, 231, 37)]
    v = min(max(v, 0.0), 1.0) * (len(anchors) - 2)
    i = int(v)
    t = v - i
    a, b = anchors[i], anchors[i + 1]
    rgb = tuple(round(a[c] + t * (b[c] - a[c])) for c in range(3))
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def _downsample(Z, max_cells=128):
    """Block-average oversized heat maps so files stay a few hundred kB."""
    for axis in (0, 1):
        n = Z.shape[axis]
        if n > max_cells:
            factor = -(-n // max_cells)
            pad = (-n) % factor
            if pad:
                padding = [(0, 0), (0, 0)]
                padding[axis] = (0, pad)
                Z = np.pad(Z, padding, mode="edge")
            shape = list(Z.shape)
            shape[axis] = Z.shape[axis] // factor
            if axis == 0:
                Z = Z.reshape(shape[0], factor, Z.shape[1]).mean(axis=1)
            else:
                Z = Z.reshape(Z.shape[0], shape[1], factor).mean(axis=2)
    return Z


def heatmap_svg(path, matrix, title="", xlabel="", ylabel="", log_floor=1e-12):
    """Row-major heat map on a log color scale (profiles span many decades)."""
    Z = np.asarray(matrix, dtype=float)
    Z = np.where(np.isfinite(Z), Z, 0.0)
    Z = _downsample(Z)
    logz = np.log10(np.maximum(Z, log_floor))
    lo, hi = logz.min(), logz.max()
    if hi == lo:
        hi = lo + 1
    nrows, ncols = Z.shape
    cw = (_W - _ML - _MR) / ncols
    ch = (_H - _MT - _MB) / nrows
    parts = _axes(0, ncols, 0, nrows, title, xlabel, ylabel)
    for i in range(nrows):
        for j in range(ncols):
            v = (logz[i, j] - lo) / (hi - lo)
            x = _ML + j * cw
            y = _H - _MB - (i + 1) * ch
            parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{math.ceil(cw*100)/100:.2f}" '
                         f'height="{math.ceil(ch*100)/100:.2f}" fill="{_viridis(v)}"/>')
    return _write(path, parts)
