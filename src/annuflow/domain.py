"""Parameter records and the modal representation of fields on the annulus.

Perturbation streamfunctions are expanded in the angular basis e^{i n theta}.
A modal profile is a plain complex array over the radial nodes; a set of
modes is one (M, nr) array whose row n - 1 holds mode n, and its real
field sum_n (c_n e^{i n theta} + c.c.) on the (r, theta) lattice is one
inverse real FFT along theta. The zero-mean condition over theta excludes
the n = 0 mode for streamfunction perturbations.
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

    @property
    def sigma(self) -> float:
        """Radius ratio b/a, always recomputed."""
        return self.b / self.a


#: the b/a from which (b/a)^4, a term of the closed-form mu_c, overflows a float
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
    """Real field sampled on the (r_i, theta_j) lattice, theta_j = 2 pi j / ntheta."""

    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def nr(self) -> int:
        return self.values.shape[0]

    @property
    def ntheta(self) -> int:
        return self.values.shape[1]


def theta_lattice(ntheta: int) -> np.ndarray:
    return 2.0 * np.pi * np.arange(ntheta) / ntheta


def synthesize_lattice(coeffs: np.ndarray, ntheta: int) -> np.ndarray:
    """The real field sum_{n=1}^{M} (c_n e^{i n theta} + c.c.) on the lattice.

    ``coeffs`` is the (M, nr) array whose row n - 1 is the profile c_n.
    The sum is one inverse real FFT along theta. ``irfft`` counts the
    Nyquist bin n = ntheta / 2 (present only for even ntheta) once and
    every other bin twice, so that coefficient is doubled first. A mode
    with n > ntheta / 2 cannot be represented on the lattice and raises
    GridMismatch rather than aliasing onto a lower wavenumber.
    """
    M, nr = coeffs.shape
    if 2 * M > ntheta:
        raise GridMismatch(
            f"mode {M} is not resolved by ntheta={ntheta} (need n <= ntheta/2)")
    spec = np.zeros((nr, ntheta // 2 + 1), complex)
    spec[:, 1:M + 1] = coeffs.T
    if 2 * M == ntheta:
        spec[:, M] *= 2.0
    return ntheta * np.fft.irfft(spec, n=ntheta, axis=1)


def synthesize_physical(coeffs: np.ndarray, ntheta: int) -> PhysicalField:
    """The :class:`PhysicalField` of the modal rows ``coeffs`` (row n - 1
    is the profile of mode n), summed by :func:`synthesize_lattice`."""
    return PhysicalField(synthesize_lattice(coeffs, ntheta))
