"""Contour rendering of annulus fields as standalone SVG.

A built-in marching-squares tracer extracts level-set segments on the
polar lattice cell by cell, maps segment endpoints to Cartesian
coordinates, and writes them as SVG line elements. Eleven evenly spaced
levels between the field minimum and maximum are drawn, plus the two
bounding circles for orientation.
"""

from __future__ import annotations

import numpy as np

from .domain import PhysicalField

#: number of evenly spaced contour levels between field min and max
N_LEVELS = 11


def contour_levels(values: np.ndarray) -> np.ndarray:
    """N_LEVELS evenly spaced interior levels of the field's range.

    A level within rounding (8 eps of the range) of zero is set to exactly
    0, so that the zero contour does not depend on the last bits of the
    field wherever the field is exactly 0, as along the Dirichlet circles.
    """
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return np.array([lo])
    levels = np.linspace(lo, hi, N_LEVELS + 2)[1:-1]
    levels[np.abs(levels) <= 8 * np.finfo(float).eps * (hi - lo)] = 0.0
    return levels


def _edge_point(p0, p1, f0, f1, level):
    """Linear interpolation of the level crossing along one cell edge."""
    t = 0.5 if f1 == f0 else (level - f0) / (f1 - f0)
    return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))


def marching_squares(values: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                     level: float) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Level-set segments of ``values`` on the curvilinear lattice (xs, ys).

    Each lattice cell contributes zero, one, or two straight segments
    joining interpolated edge crossings; saddle cells are split by the
    cell-center average. Returns Cartesian endpoint pairs.
    """
    nr, nt = values.shape
    segs = []
    for i in range(nr - 1):
        for j in range(nt - 1):
            f = (values[i, j], values[i, j + 1], values[i + 1, j + 1], values[i + 1, j])
            p = ((xs[i, j], ys[i, j]), (xs[i, j + 1], ys[i, j + 1]),
                 (xs[i + 1, j + 1], ys[i + 1, j + 1]), (xs[i + 1, j], ys[i + 1, j]))
            code = sum(1 << k for k in range(4) if f[k] > level)
            if code in (0, 15):
                continue
            # edges: 0 between corners 0-1, 1 between 1-2, 2 between 2-3, 3 between 3-0
            def pt(e):
                k0, k1 = e, (e + 1) % 4
                return _edge_point(p[k0], p[k1], f[k0], f[k1], level)
            table = {
                1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
                6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(2, 0)],
                11: [(2, 1)], 12: [(1, 3)], 13: [(1, 0)], 14: [(0, 3)],
            }
            if code in (5, 10):
                center = 0.25 * sum(f)
                if (center > level) == (code == 5):
                    pairs = [(3, 0), (1, 2)]
                else:
                    pairs = [(0, 1), (2, 3)]
            else:
                pairs = table[code]
            for e0, e1 in pairs:
                segs.append((pt(e0), pt(e1)))
    return segs


def polar_lattice_xy(r: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cartesian coordinates of the (r_i, theta_j) lattice, theta wrapped."""
    th = np.append(theta, theta[0] + 2.0 * np.pi)
    xs = np.outer(r, np.cos(th))
    ys = np.outer(r, np.sin(th))
    return xs, ys


def field_svg(field: PhysicalField, r: np.ndarray, theta: np.ndarray) -> str:
    """Standalone SVG document with N_LEVELS contours of the field."""
    size = 640  # canvas width and height in pixels
    vals = np.column_stack([field.values, field.values[:, :1]])
    xs, ys = polar_lattice_xy(r, theta)
    b = float(r.max())
    scale = (size / 2 - 10) / b
    cx = cy = size / 2

    def sx(x):
        return cx + scale * x

    def sy(y):
        return cy - scale * y

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<circle cx="{cx}" cy="{cy}" r="{scale * float(r.min()):.2f}" '
        f'fill="none" stroke="black" stroke-width="1.5"/>',
        f'<circle cx="{cx}" cy="{cy}" r="{scale * b:.2f}" '
        f'fill="none" stroke="black" stroke-width="1.5"/>',
    ]
    levels = contour_levels(vals)
    for k, level in enumerate(levels):
        # blue for negative-side levels, red for positive-side, by rank
        frac = (k + 1) / (len(levels) + 1)
        hue = 240 if frac < 0.5 else 0
        sat = int(100 * abs(2 * frac - 1))
        color = f"hsl({hue},{sat}%,45%)"
        for (x0, y0), (x1, y1) in marching_squares(vals, xs, ys, float(level)):
            lines.append(
                f'<line x1="{sx(x0):.2f}" y1="{sy(y0):.2f}" '
                f'x2="{sx(x1):.2f}" y2="{sy(y1):.2f}" '
                f'stroke="{color}" stroke-width="1"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
