import numpy as np
import pytest

import annuflow as af
import annuflow.contours as contours
from annuflow.contours import (
    contour_levels,
    field_svg,
    marching_squares,
    polar_lattice_xy,
)


@pytest.fixture(scope="module")
def pattern(report_099, grid48):
    """The bifurcated streamfunction as `bifurcate` draws it: min = -max
    up to rounding, and exactly 0 on both Dirichlet circles."""
    return report_099.psi_s(report_099.amplitude, 32).values, grid48.nodes


def test_middle_level_is_exactly_zero(pattern):
    values, _ = pattern
    assert contour_levels(values)[5] == 0.0


@pytest.mark.parametrize("which", ["max", "min"])
@pytest.mark.parametrize("direction", [np.inf, -np.inf])
def test_svg_unchanged_by_one_ulp_of_the_extremes(pattern, which, direction):
    # a one-ulp change of the extreme moves the middle level across zero
    # unless it is snapped to 0; the boundary rows would then switch sides
    values, r = pattern
    base = field_svg(values, r)
    nudged = values.copy()
    idx = np.unravel_index(getattr(np, f"arg{which}")(values), values.shape)
    nudged[idx] = np.nextafter(nudged[idx], direction)
    assert field_svg(nudged, r) == base


def _pairs(segs):
    """marching_squares' (m, 4) endpoint rows as the reference walk's
    ((x0, y0), (x1, y1)) pairs, value for value."""
    assert segs.shape == (len(segs), 4)
    return [((x0, y0), (x1, y1)) for x0, y0, x1, y1 in segs.tolist()]


def _closed_lattice(values, r):
    """The wrapped field and lattice coordinates that field_svg contours."""
    xs, ys = polar_lattice_xy(r, af.theta_lattice(values.shape[1]))
    return np.column_stack([values, values[:, :1]]), xs, ys


_R13 = np.linspace(1.0, 3.0, 13)
_BOARD = (-1.0) ** np.add.outer(np.arange(13), np.arange(16))
#: fields with saddle cells: a random one with ties from rounding, and
#: checkerboards whose every cell is a saddle at every level
SADDLED = {
    "random rounded to 0.1": (np.round(
        np.random.default_rng(19).uniform(-1.0, 1.0, (13, 16)), 1), _R13),
    "checkerboard + 0.3": (_BOARD + 0.3, _R13),
    "checkerboard - 0.3": (_BOARD - 0.3, _R13),
}


@pytest.fixture(scope="module")
def fields(report_099, grid48):
    return {f"psi_s ntheta={nt}": (report_099.psi_s(report_099.amplitude, nt).values,
                                   grid48.nodes) for nt in (7, 32, 64)} | SADDLED


@pytest.mark.parametrize("name", ["psi_s ntheta=7", "psi_s ntheta=32",
                                  "psi_s ntheta=64", *SADDLED])
def test_segments_equal_the_cell_by_cell_walk(fields, name, marching_reference):
    vals, xs, ys = _closed_lattice(*fields[name])
    for level in map(float, contour_levels(vals)):
        segs = _pairs(marching_squares(vals, xs, ys, level))
        assert segs == marching_reference(vals, xs, ys, level)


@pytest.mark.parametrize("name", SADDLED)
def test_saddle_centres_fall_on_both_sides(name):
    # a saddle has its diagonal corners on one side of the level and the
    # other two on the other; its centre average picks the split
    vals, _, _ = _closed_lattice(*SADDLED[name])
    f = (vals[:-1, :-1], vals[:-1, 1:], vals[1:, 1:], vals[1:, :-1])
    centre = 0.25 * (((f[0] + f[1]) + f[2]) + f[3])
    sides = set()
    for level in contour_levels(vals):
        up = [c > level for c in f]
        saddle = (up[0] == up[2]) & (up[1] == up[3]) & (up[0] != up[1])
        if name.startswith("checkerboard"):
            assert saddle.all()
        sides |= set((centre[saddle] > level).tolist())
    assert sides == {True, False}


def test_constant_field_draws_no_contour(marching_reference):
    values = np.full((13, 8), 0.7)
    vals, xs, ys = _closed_lattice(values, _R13)
    assert contour_levels(vals).tolist() == [0.7]
    assert _pairs(marching_squares(vals, xs, ys, 0.7)) == marching_reference(
        vals, xs, ys, 0.7) == []
    svg = field_svg(values, _R13)
    assert "<line" not in svg


def test_field_svg_walks_each_level_once(pattern, monkeypatch):
    values, r = pattern
    levels = []
    walk = contours.marching_squares
    monkeypatch.setattr(contours, "marching_squares",
                        lambda v, xs, ys, level: levels.append(level) or walk(v, xs, ys, level))
    field_svg(values, r)
    assert len(levels) == contours.N_LEVELS == 11
