"""Contour rendering of annulus fields as standalone SVG.

A built-in marching-squares tracer extracts level-set segments on the
polar lattice cell by cell, maps segment endpoints to Cartesian
coordinates, and writes them as SVG line elements. Eleven evenly spaced
levels between the field minimum and maximum are drawn, plus the two
bounding circles for orientation.
"""

from __future__ import annotations

import numpy as np

from .domain import theta_lattice

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


#: a cell's corners 0..3 as lattice offsets (di, dj); edge e joins corners
#: e and e + 1 (mod 4)
_CORNERS = ((0, 0), (0, 1), (1, 1), (1, 0))
#: crossed edge pairs per cell case (bit k: corner k above the level); the
#: saddles 5 and 10 split as for a centre above the level, swapped otherwise
_SEGMENTS = {
    1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)], 5: [(3, 0), (1, 2)],
    6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(2, 0)], 10: [(0, 1), (2, 3)],
    11: [(2, 1)], 12: [(1, 3)], 13: [(1, 0)], 14: [(0, 3)],
}


def _edge_point(p, f, e, level):
    """Linear interpolation of the level crossing along edge e of the cell
    with corner points p and values f; f differs along a crossed edge."""
    k = (e + 1) % 4
    t = (level - f[e]) / (f[k] - f[e])
    return (p[e][0] + t * (p[k][0] - p[e][0]), p[e][1] + t * (p[k][1] - p[e][1]))


def marching_squares(values: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                     level: float) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """Level-set segments of ``values`` on the curvilinear lattice (xs, ys).

    Each lattice cell contributes zero, one, or two straight segments
    joining interpolated edge crossings; saddle cells are split by the
    cell-center average. Cells are visited in row-major order. Returns
    Cartesian endpoint pairs.
    """
    nr, nt = values.shape
    case = sum((values[di:nr - 1 + di, dj:nt - 1 + dj] > level) << k
               for k, (di, dj) in enumerate(_CORNERS))
    segs = []
    for i, j in np.argwhere((case > 0) & (case < 15)).tolist():
        cell = [(i + di, j + dj) for di, dj in _CORNERS]
        f = [values[c] for c in cell]
        p = [(xs[c], ys[c]) for c in cell]
        code = case[i, j]
        if code in (5, 10) and not 0.25 * sum(f) > level:
            code = 15 - code
        segs += [(_edge_point(p, f, e0, level), _edge_point(p, f, e1, level))
                 for e0, e1 in _SEGMENTS[code]]
    return segs


def polar_lattice_xy(r: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cartesian coordinates of the (r_i, theta_j) lattice, theta wrapped."""
    th = np.append(theta, theta[0] + 2.0 * np.pi)
    xs = np.outer(r, np.cos(th))
    ys = np.outer(r, np.sin(th))
    return xs, ys


def field_svg(values: np.ndarray, r: np.ndarray) -> str:
    """Standalone SVG document with N_LEVELS contours of the (nr, ntheta)
    lattice array ``values``: row i at radius r[i], column j at
    theta_j = 2 pi j / ntheta."""
    size = 640  # canvas width and height in pixels
    vals = np.column_stack([values, values[:, :1]])
    xs, ys = polar_lattice_xy(r, theta_lattice(values.shape[1]))
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
