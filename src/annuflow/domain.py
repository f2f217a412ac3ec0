"""Parameter records and the modal representation of fields on the annulus.

Perturbation streamfunctions are expanded in the angular basis e^{i n theta}.
A :class:`ModalField` carries the complex radial profile of one wavenumber.
Physical (real-valued) fields on the (r, theta) lattice are reconstructed by
summing modes; the zero-mean condition over theta excludes the n = 0 mode
for streamfunction perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, InvalidGeometry, InvalidPhysics


@dataclass(frozen=True)
class DomainParams:
    """Annulus geometry and physics: inner/outer radii, slip length, viscosity."""

    a: float
    b: float
    alpha: float
    mu: float

    @property
    def sigma(self) -> float:
        """Radius ratio b/a, always recomputed."""
        return self.b / self.a


def validate(a: float, b: float, alpha: float, mu: float) -> DomainParams:
    """Check parameter ranges and return a normalized record.

    Raises InvalidGeometry unless 0 < a < b, and InvalidPhysics unless
    alpha > 0 and mu > 0.
    """
    a, b, alpha, mu = float(a), float(b), float(alpha), float(mu)
    if not (0.0 < a < b) or not np.isfinite(a) or not np.isfinite(b):
        raise InvalidGeometry(f"need 0 < a < b, got a={a}, b={b}")
    if not (alpha > 0.0) or not np.isfinite(alpha):
        raise InvalidPhysics(f"slip coefficient must be positive, got alpha={alpha}")
    if not (mu > 0.0) or not np.isfinite(mu):
        raise InvalidPhysics(f"viscosity must be positive, got mu={mu}")
    return DomainParams(a=a, b=b, alpha=alpha, mu=mu)


@dataclass(frozen=True)
class ModalField:
    """Complex radial profile attached to one angular wavenumber."""

    n: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.values)

    def conj(self) -> "ModalField":
        """The conjugate partner at wavenumber -n."""
        return ModalField(-self.n, np.conj(self.values))


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


def synthesize_physical(modes: list[ModalField], ntheta: int) -> PhysicalField:
    """Reconstruct the real physical field from a modal set.

    Modes whose conjugate partner (-n) is present in the list are summed
    literally; the set must then be conjugate-symmetric. A mode listed
    without its partner contributes Re(c_n e^{i n theta}), i.e. the partner
    is implied at half weight, so a lone n=1 mode with profile 1 gives
    cos(theta).
    """
    if not modes:
        return PhysicalField(np.zeros((0, ntheta)))
    nr = len(modes[0])
    by_n: dict[int, np.ndarray] = {}
    for m in modes:
        if len(m) != nr:
            raise GridMismatch("modes sampled on different radial grids")
        by_n[m.n] = by_n.get(m.n, 0) + m.values
    M = max(abs(n) for n in by_n)
    coeffs = np.zeros((M, nr), complex)
    for n, c in by_n.items():
        if n == 0 or (n < 0 and -n in by_n):
            continue
        if -n in by_n:
            if not np.allclose(by_n[-n], np.conj(c), atol=1e-12 * (1 + np.abs(c).max())):
                raise GridMismatch(f"modes +/-{n} are not conjugate partners")
            coeffs[n - 1] = c
        else:
            coeffs[abs(n) - 1] = 0.5 * (c if n > 0 else np.conj(c))
    out = synthesize_lattice(coeffs, ntheta)
    if 0 in by_n:
        out += np.real(by_n[0])[:, None]
    return PhysicalField(out)


def analyze_modal(phys: PhysicalField, n_max: int) -> list[ModalField]:
    """Angular transform back to lone-mode coefficients for n = 0..n_max.

    Inverse of :func:`synthesize_physical` under the lone-mode convention
    (field = Re sum_{n>=0} c_n e^{i n theta}) when ntheta >= 2 n_max + 2.
    """
    f = phys.values
    coeff = np.fft.fft(f, axis=1) / phys.ntheta
    modes = [ModalField(0, coeff[:, 0].real.astype(complex))]
    for n in range(1, n_max + 1):
        modes.append(ModalField(n, 2.0 * coeff[:, n]))
    return modes
