import numpy as np
import pytest

import annuflow as af
from annuflow.contours import contour_levels, field_svg


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
    theta = af.theta_lattice(values.shape[1])
    base = field_svg(af.PhysicalField(values), r, theta)
    nudged = values.copy()
    idx = np.unravel_index(getattr(np, f"arg{which}")(values), values.shape)
    nudged[idx] = np.nextafter(nudged[idx], direction)
    assert field_svg(af.PhysicalField(nudged), r, theta) == base
