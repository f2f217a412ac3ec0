"""Parameter records and the modal representation of fields on the annulus.

Perturbation streamfunctions are expanded in the angular basis e^{i n theta}.
A set of modes is one real (..., M, 2, nr) planes array: row n - 1 holds
mode n, plane 0 its real and plane 1 its imaginary part, over the radial
nodes. The real field sum_n (c_n e^{i n theta} + c.c.) of a set on the
(r, theta) lattice is one product with the table of 2 cos(n theta_j) and
-2 sin(n theta_j) (:func:`synthesis_table`), the matrix-multiplication
transform (Boyd, Chebyshev and Fourier Spectral Methods, 2nd ed., ch. 10).
The zero-mean condition over theta excludes the n = 0 mode for
streamfunction perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, InvalidGeometry, InvalidPhysics


@dataclass(frozen=True)
class DomainParams:
    """Annulus geometry and slip: inner/outer radii, slip coefficient. The
    viscosity is an argument of each function that needs it."""

    a: float
    b: float
    alpha: float


#: the b/a from which (b/a)^4 overflows a float, and the bound validate puts
#: on b/a; the determinant oracle forms b^4, while mu_c works in ln(b/a)
#: and stays finite and exact up to it
RATIO_LIMIT = float(np.finfo(float).max ** 0.25)


def validate(a: float, b: float, alpha: float, mu: float | None = None) -> DomainParams:
    """Check parameter ranges and return a normalized record.

    Raises InvalidGeometry unless 0 < a < b and b/a < RATIO_LIMIT, and
    InvalidPhysics unless alpha > 0 and, when a viscosity is given, mu > 0.
    The viscosity is only checked; the record does not keep it.
    """
    a, b, alpha = float(a), float(b), float(alpha)
    if not (0.0 < a < b) or not np.isfinite(a) or not np.isfinite(b):
        raise InvalidGeometry(f"need 0 < a < b, got a={a}, b={b}")
    if not b / a < RATIO_LIMIT:
        raise InvalidGeometry(f"b/a = {b / a:.3g} is too large: (b/a)^4 overflows a float")
    if not (alpha > 0.0) or not np.isfinite(alpha):
        raise InvalidPhysics(f"slip coefficient must be positive, got alpha={alpha}")
    if mu is not None and (not (mu > 0.0) or not np.isfinite(mu)):
        raise InvalidPhysics(f"viscosity must be positive, got mu={mu}")
    return DomainParams(a=a, b=b, alpha=alpha)


@dataclass(frozen=True)
class PhysicalField:
    """The read-only (nr, ntheta) lattice array that :func:`synthesize_physical`
    and ``BifurcationReport.psi_s`` return."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def theta_lattice(ntheta: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(ntheta) / ntheta


def synthesis_table(M: int, ntheta: int) -> np.ndarray:
    """The (ntheta, 2M) table of columns 2 cos(n theta_j) and
    -2 sin(n theta_j), n = 1..M, so that mode n contributes
    2 (Re c_n cos n theta_j - Im c_n sin n theta_j). n j is reduced mod
    ntheta in integers before it becomes an angle, so a large n j loses no
    accuracy."""
    angle = 2.0 * np.pi / ntheta * (np.outer(np.arange(ntheta), np.arange(1, M + 1)) % ntheta)
    return np.stack([2.0 * np.cos(angle), -2.0 * np.sin(angle)], axis=2).reshape(ntheta, 2 * M)


def synthesize_lattice(planes: np.ndarray, ntheta: int) -> np.ndarray:
    """The real field sum_{n=1}^{M} (c_n e^{i n theta} + c.c.) on the lattice.

    ``planes`` is the real (..., M, 2, nr) array whose row n - 1 holds c_n;
    leading axes are a batch of such sets, and the result is the
    (..., nr, ntheta) stack of their fields, one product with
    :func:`synthesis_table`. Anything but such planes raises GridMismatch.
    For even ntheta the top mode n = ntheta / 2 is the Nyquist mode, whose
    sine column is rounding noise: the lattice sees its real part only. A
    mode with n > ntheta / 2 cannot be represented on the lattice and
    raises GridMismatch rather than aliasing onto a lower wavenumber.
    """
    if planes.dtype.kind != "f" or planes.ndim < 3 or planes.shape[-2] != 2:
        raise GridMismatch("a set of modes takes real (..., M, 2, nr) planes")
    *lead, M, _, nr = planes.shape
    if 2 * M > ntheta:
        raise GridMismatch(
            f"mode {M} is not resolved by ntheta={ntheta} (need n <= ntheta/2)")
    return np.swapaxes(synthesis_table(M, ntheta) @ planes.reshape(*lead, 2 * M, nr), -1, -2)


def synthesize_physical(planes: np.ndarray, ntheta: int) -> PhysicalField:
    """The :class:`PhysicalField` of the modal planes ``planes`` (row n - 1
    holds mode n), summed by :func:`synthesize_lattice`."""
    return PhysicalField(synthesize_lattice(planes, ntheta))
