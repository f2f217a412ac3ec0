"""Contour rendering of annulus fields as standalone SVG.

A built-in marching-squares tracer (Lorensen & Cline, SIGGRAPH 1987)
extracts the level-set segments of one level on the polar lattice from
whole arrays: every cell is classified, looked up in one edge table and
interpolated at once, and the endpoints come out in Cartesian
coordinates. Each level's segments are written as SVG line elements from
one template. Eleven evenly spaced levels between the field minimum and
maximum are drawn, plus the two bounding circles for orientation.
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
_CORNERS = np.array([(0, 0), (0, 1), (1, 1), (1, 0)])
#: crossed edge pairs per cell case (bit k: corner k above the level),
#: padded to two; the saddles 5 and 10 split as for a centre above the
#: level, and a centre at or below it swaps them
_SEGMENTS = (
    (), ((3, 0),), ((0, 1),), ((3, 1),), ((1, 2),), ((3, 0), (1, 2)), ((0, 2),),
    ((3, 2),), ((2, 3),), ((2, 0),), ((0, 1), (2, 3)), ((2, 1),), ((1, 3),),
    ((1, 0),), ((0, 3),), (),
)
_EDGES = np.array([pairs + ((0, 0),) * (2 - len(pairs)) for pairs in _SEGMENTS])
_COUNT = np.array([len(pairs) for pairs in _SEGMENTS])


def marching_squares(values: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                     level: float) -> np.ndarray:
    """Level-set segments of ``values`` on the curvilinear lattice (xs, ys).

    Each lattice cell contributes zero, one, or two straight segments
    joining edge crossings, interpolated linearly along the edge; saddle
    cells are split by the cell-centre average. Every cell is classified
    and interpolated at once; the segments come in row-major cell order.
    Returns an (m, 4) array of Cartesian endpoints (x0, y0, x1, y1).
    """
    nr, nt = values.shape
    f = [values[di:nr - 1 + di, dj:nt - 1 + dj] for di, dj in _CORNERS]
    case = sum((c > level) << k for k, c in enumerate(f))
    flip = ((case == 5) | (case == 10)) & ~(0.25 * (((f[0] + f[1]) + f[2]) + f[3]) > level)
    case[flip] = 15 - case[flip]
    i, j = np.nonzero(_COUNT[case])
    count = _COUNT[case[i, j]]
    # each segment's two edges, (m, 2), and the corners every edge joins
    edge = _EDGES[case[i, j]][np.arange(2) < count[:, None]]
    i, j = np.repeat(i, count)[:, None], np.repeat(j, count)[:, None]
    c0, c1 = _CORNERS[edge], _CORNERS[(edge + 1) % 4]
    p0 = (i + c0[..., 0], j + c0[..., 1])
    p1 = (i + c1[..., 0], j + c1[..., 1])
    t = (level - values[p0]) / (values[p1] - values[p0])
    x = xs[p0] + t * (xs[p1] - xs[p0])
    y = ys[p0] + t * (ys[p1] - ys[p0])
    return np.stack([x, y], axis=-1).reshape(-1, 4)


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
        line = ('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
                f'stroke="hsl({hue},{sat}%%,45%%)" stroke-width="1"/>')
        # canvas pixels: x to cx + scale x, y to cy - scale y
        pix = (marching_squares(vals, xs, ys, float(level)) * (scale, -scale, scale, -scale)
               + (cx, cy, cx, cy))
        lines += [line % tuple(q) for q in pix.tolist()]
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
