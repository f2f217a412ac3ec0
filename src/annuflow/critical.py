"""Critical viscosity: closed form, determinant oracle, and the gamma_n constants.

The zero-eigenvalue problem Delta_1^2 Psi = 0 has the general solution
Psi = a1 r + a2 r ln r + a3 / r + a4 r^3; requiring the four boundary
conditions to admit a nontrivial combination gives a 4x4 determinant that
vanishes exactly at the critical viscosity. The determinant is transcribed
verbatim; only its slip row depends on mu, and affinely, so the determinant
is affine in mu and has a single root; the closed form

    mu_c = a alpha (1 + 3 s^4 - 4 s^2 - 4 s^4 ln s) / (2 (s^4 - 1 - 4 s^4 ln s)),
    s = b / a,

must agree with that root to 1e-8 relative, which is the primary
cross-check between the two routes. Both routes cancel in thin gaps; there
the closed form gives way to its Taylor series in (b - a)/a, and the
determinant refuses gaps below ORACLE_MIN_GAP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import DomainParams
from .errors import NoBracket, ThinGap
from .spectral import RadialGrid, laplacian_n


#: Taylor coefficients of mu_c / (a alpha eps) in eps = (b - a) / a, from
#: eps^0 to eps^11; either side of THIN_GAP, series and closed form are
#: within 5e-13 relative of the exact value
THIN_GAP_SERIES = (
    1 / 3, -2 / 9, 31 / 270, -19 / 648, -223 / 8505, 27001 / 510300,
    -87653 / 1530900, 1750757 / 36741600, -96693809 / 3031182000,
    126131051 / 7956852750, -2977686377 / 993015223200,
    -1571893718933 / 297904566960000)
THIN_GAP = 0.1


def mu_c_closed(params: DomainParams) -> float:
    """Closed-form critical viscosity, a function of (a, b, alpha) alone.

    The closed form cancels to about 1e-16 / eps^3 relative as b/a -> 1, so
    a gap eps = (b - a)/a below THIN_GAP takes the Taylor series instead,
    with eps computed from b - a (b/a - 1 carries the rounding of b/a).
    """
    a, alpha = params.a, params.alpha
    eps = (params.b - a) / a
    if eps < THIN_GAP:
        return a * alpha * eps * np.polynomial.polynomial.polyval(eps, THIN_GAP_SERIES)
    s = params.sigma
    ls = np.log(s)
    num = a * alpha * (1.0 + 3.0 * s**4 - 4.0 * s**2 - 4.0 * s**4 * ls)
    den = 2.0 * (s**4 - 1.0 - 4.0 * s**4 * ls)
    return num / den


def det_condition(params: DomainParams, mu: float) -> float:
    """Determinant whose zero marks a nontrivial zero-eigenvalue solution.

    Rows: Psi(a) = 0, Psi(b) = 0, the stress-free row at b, and the
    Navier-slip row at a, each evaluated on the basis
    {r, r ln r, 1/r, r^3} and scaled as printed.
    """
    a, b, alpha = params.a, params.b, params.alpha
    la, lb = np.log(a), np.log(b)
    m = np.array([
        [a**2, a**2 * la, 1.0, a**4],
        [b**2, b**2 * lb, 1.0, b**4],
        [b**2, b**2 * (2.0 + lb), 1.0, 9.0 * b**4],
        [-a**2 * mu + alpha * a**3,
         a**3 * alpha - a**2 * mu * la + a**3 * alpha * la,
         3.0 * mu - a * alpha,
         3.0 * a**5 * alpha + 3.0 * a**4 * mu],
    ])
    return float(np.linalg.det(m))


#: thinnest gap (b - a)/a the determinant oracle accepts: it agrees with the
#: exact mu_c to 4.2e-9 there, 2.4e-8 at 1e-3 and 3.5e-4 at 1e-4
ORACLE_MIN_GAP = 2e-3


def mu_c_oracle(params: DomainParams) -> float:
    """Critical viscosity as the root of the determinant, affine in mu.

    The determinant's values at the ends of (1e-6 a alpha, 10 a alpha) fix
    the line and so its root; they must differ in sign. Independent of the
    closed form. Its basis is near-dependent as b -> a, so a gap below
    ORACLE_MIN_GAP raises ThinGap.
    """
    gap = (params.b - params.a) / params.a
    if gap < ORACLE_MIN_GAP:
        raise ThinGap(f"gap (b - a)/a = {gap:.3g} is below {ORACLE_MIN_GAP}, "
                      f"where the determinant oracle loses its digits")
    lo = 1e-6 * params.a * params.alpha
    hi = 10.0 * params.a * params.alpha
    f_lo, f_hi = det_condition(params, lo), det_condition(params, hi)
    if np.sign(f_lo) == np.sign(f_hi):
        raise NoBracket("determinant has no sign change in (1e-6 a alpha, 10 a alpha)")
    return float(lo - f_lo * (hi - lo) / (f_hi - f_lo))


def gamma_n(params: DomainParams, n: int, grid: RadialGrid) -> float:
    """Variational constant: minimum of int r (Delta_n Psi)^2 dr / Psi'(a)^2
    over profiles vanishing at both radii.

    The quadratic form restricted to the Dirichlet subspace is positive
    definite, and the denominator is rank one, so the minimum is
    1 / (d^T M^{-1} d) with d the Psi'(a) functional.
    """
    if n < 1:
        raise ValueError("gamma_n is defined for n >= 1")
    N = grid.N
    B = laplacian_n(grid, n)[:, 1:N]  # interior columns: Psi(a)=Psi(b)=0
    M = B.T @ (grid.weights[:, None] * B)
    d = grid.d1[N, 1:N]
    y = np.linalg.solve(M, d)
    return float(1.0 / (d @ y))


#: the variational constants gamma_1..gamma_N_GAMMA that critical_result reports
N_GAMMA = 5


@dataclass(frozen=True)
class CriticalResult:
    """Closed-form and oracle critical viscosities plus gamma_1..gamma_N_GAMMA."""

    mu_c_closed: float
    mu_c_oracle: float
    gamma: tuple[float, ...]

    @property
    def discrepancy(self) -> float:
        return abs(self.mu_c_closed - self.mu_c_oracle) / abs(self.mu_c_closed)


def critical_result(params: DomainParams, grid: RadialGrid) -> CriticalResult:
    return CriticalResult(
        mu_c_closed=mu_c_closed(params),
        mu_c_oracle=mu_c_oracle(params),
        gamma=tuple(gamma_n(params, n, grid) for n in range(1, N_GAMMA + 1)),
    )
