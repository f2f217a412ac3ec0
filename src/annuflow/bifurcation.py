"""Center-manifold reduction at the critical viscosity.

Builds the leading eigenpair of the generalized problem
mu Delta_1^2 Psi = lambda Delta_1 Psi, solves the quadratic manifold
coefficient G11, assembles the cubic (Lyapunov) coefficient l of the
reduced amplitude equation

    dz/dt = lambda_1 z + l z |z|^2,

classifies the pitchfork, and constructs the bifurcated streamfunction

    psi_s = s Psi_1 e^{i theta} + c.c. + s^2 G11 e^{2 i theta} + c.c.

with |s| = sqrt(-lambda_1 / l) when the branch exists.

The eigenfunction is normalized to unit L^2(r dr) norm with Psi_1'(a) > 0;
l scales with the square of the normalization, but the physical bifurcated
field does not, and only normalization-invariant quantities are asserted.

The projection onto the critical mode is taken in the velocity (energy)
pairing <u, v> = int grad-pairing, which for profiles vanishing at both
radii reduces to -int (Delta_n F) conj(G) r dr. The linearized operator is
self-adjoint in that pairing, so it is the one in which the critical-mode
projection is exact; the plain-L^2 variant is kept as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .critical import mu_c_closed
from .domain import DomainParams, ModalField, PhysicalField, synthesize_lattice
from .errors import DegenerateCoefficient, EigSolverFailure, GridMismatch
from .spectral import (
    RadialGrid,
    generalized_eig,
    laplacian_n,
    mode_pencil,
    radial_integral,
    solve_bvp,
)


def eig_cap(params: DomainParams, mu: float) -> float:
    """Spurious-eigenvalue cutoff for row-replaced generalized problems."""
    return 1e6 * mu / (params.b - params.a) ** 2


@dataclass(frozen=True)
class EigenResult:
    """Leading growth rate and its unit-norm mode-1 eigenfunction."""

    lambda1: float
    psi1: ModalField
    mu: float


def mode_energies(params: DomainParams, psi: np.ndarray, grid: RadialGrid,
                  n: int | np.ndarray = 1) -> tuple:
    """Radial energy functionals (E3, E1, E2) of a mode-n profile.

    With v = (-i n psi / r, psi'), E3 = int |v|^2 r dr is the kinetic
    energy, E1 the gradient energy plus the outer-boundary tangential
    term, and E2 the inner-boundary tangential term. The field
    psi e^{i n theta} + c.c. carries 4 pi times each. Stacked profiles,
    one per row, with ``n`` a column of their wavenumbers give one array
    of values per functional.
    """
    r = grid.nodes
    d1 = grid.d1
    vr = -1j * n * psi / r
    vt = (d1 @ psi.T).T
    E3 = ((np.abs(vr) ** 2 + np.abs(vt) ** 2) @ grid.weights).real
    g1 = (d1 @ vr.T).T
    g2 = (d1 @ vt.T).T
    g3 = (1j * n * vr - vt) / r
    g4 = (1j * n * vt + vr) / r
    E1 = ((np.abs(g1) ** 2 + np.abs(g2) ** 2
           + np.abs(g3) ** 2 + np.abs(g4) ** 2) @ grid.weights).real
    E1 += np.abs(vt[..., 0]) ** 2
    E2 = params.a * np.abs(vt[..., -1]) ** 2
    return E3, E1, E2


def energy_rayleigh(params: DomainParams, mu: float, psi: np.ndarray,
                    grid: RadialGrid, n: int = 1) -> float:
    """Variational growth rate of a mode-n profile.

    lambda = (-mu E1 + (alpha - mu/a) E2) / E3 with the functionals of
    :func:`mode_energies`. For an eigenfunction this is the eigenvalue,
    accurate to second order in the eigenvector error (the operator is
    self-adjoint in this pairing), so it is used to polish the value
    returned by the dense eigensolver.
    """
    E3, E1, E2 = mode_energies(params, psi, grid, n)
    return float((-mu * E1 + (params.alpha - mu / params.a) * E2) / E3)


def leading_eigenpair(params: DomainParams, mu: float, grid: RadialGrid) -> EigenResult:
    """Largest-real-part eigenpair of mu Delta_1^2 Psi = lambda Delta_1 Psi.

    Boundary rows are the Dirichlet pair plus the slip/stress-free pair
    with alpha/mu evaluated at the requested viscosity. The eigenvalue is
    polished by the variational quotient of the computed eigenvector.
    """
    lam, vec = generalized_eig(mode_pencil(grid, params, mu, 1),
                               eig_cap(params, mu))[0]
    if abs(lam.imag) > 1e-8 * (1.0 + abs(lam.real)):
        raise EigSolverFailure(f"leading eigenvalue is not real: {lam}")
    psi = _normalize(vec.values, grid)
    polished = energy_rayleigh(params, mu, psi, grid)
    scale = params.a * params.alpha / (grid.b - grid.a) ** 2
    if abs(polished - lam.real) > 1e-2 * (abs(lam.real) + scale):
        raise EigSolverFailure(
            f"eigenvalue {lam.real} inconsistent with its variational "
            f"quotient {polished}")
    return EigenResult(lambda1=polished, psi1=ModalField(1, psi), mu=mu)


def _normalize(values: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Unit L^2(r dr) norm, phase rotated so Psi'(a) is real positive."""
    v = values / np.sqrt(radial_integral(grid, np.abs(values) ** 2).real)
    slope = grid.d1[grid.N, :] @ v
    if abs(slope) > 0:
        v = v * (np.conj(slope) / abs(slope))
    return v


def interaction(f: ModalField, g: ModalField, grid: RadialGrid) -> ModalField:
    """Advection bilinear form on modal profiles.

    G(f, g) at wavenumber n_f + n_g with radial profile
    i (n_f F / r (Delta_{n_g} G)' - n_g F' / r Delta_{n_g} G).
    Vanishes identically when G is Delta_{n_g}-harmonic.
    """
    if len(f) != grid.N + 1 or len(g) != grid.N + 1:
        raise GridMismatch("interaction operands on different grids")
    r = grid.nodes
    F, G = f.values, g.values
    om = laplacian_n(grid, g.n) @ G
    profile = 1j * (f.n * F / r * (grid.d1 @ om) - g.n * (grid.d1 @ F) / r * om)
    return ModalField(f.n + g.n, profile)


def ainv(fld: ModalField, grid: RadialGrid) -> ModalField:
    """Invert the modal Laplacian with homogeneous Dirichlet data.

    This is the streamfunction-space A^{-1}: for n != 0 the phase-space
    constraint at the radii forces the profile to vanish there, so the
    solve runs on the interior nodes.
    """
    x = np.zeros(grid.N + 1, complex)
    x[1:-1] = np.linalg.solve(laplacian_n(grid, fld.n)[1:-1, 1:-1],
                              fld.values[1:-1])
    return ModalField(fld.n, x)


def solve_G11(params: DomainParams, mu: float, eig: EigenResult,
              grid: RadialGrid) -> ModalField:
    """The quadratic center-manifold coefficient G11 (g12 = 0 and
    g22 = conj(g11)): mu Delta_2^2 G11 - 2 lambda_1 Delta_2 G11 =
    -G(psi1, psi1), with the mode-2 pencil's boundary rows."""
    quad = interaction(eig.psi1, eig.psi1, grid)
    p = mode_pencil(grid, params, mu, 2)
    return solve_bvp(p.matrix - 2.0 * eig.lambda1 * p.mass,
                     ModalField(2, -quad.values))


def lyapunov_coeff(psi1: ModalField, g11: ModalField, grid: RadialGrid) -> float:
    """Cubic coefficient of the reduced amplitude equation (real part)."""
    l, _ = lyapunov_coeff_full(psi1, g11, grid)
    return l


def lyapunov_coeff_full(psi1: ModalField, g11: ModalField,
                        grid: RadialGrid) -> tuple[float, float]:
    """Lyapunov coefficient and its (diagnostic) imaginary residue.

    l = <A^{-1} G(conj(psi1), g11) + A^{-1} G(g11, conj(psi1)), psi1>
        / <psi1, psi1>
    in the velocity pairing; integrating by parts against the eigenfunction
    (which vanishes at both radii) turns the numerator into a plain
    r-weighted integral of the interaction profiles, with
    <psi1, psi1> = -int (Delta_1 Psi_1) conj(Psi_1) r dr.
    """
    t1 = interaction(psi1.conj(), g11, grid)
    t2 = interaction(g11, psi1.conj(), grid)
    total = t1.values + t2.values
    num = -radial_integral(grid, total * np.conj(psi1.values))
    L1 = laplacian_n(grid, 1)
    den = -radial_integral(grid, (L1 @ psi1.values) * np.conj(psi1.values))
    val = num / den
    return float(val.real), float(val.imag)


def lyapunov_coeff_plain(psi1: ModalField, g11: ModalField,
                         grid: RadialGrid) -> float:
    """Diagnostic variant using the plain L^2(r dr) pairing for the projection."""
    t1 = ainv(interaction(psi1.conj(), g11, grid), grid)
    t2 = ainv(interaction(g11, psi1.conj(), grid), grid)
    num = radial_integral(grid, (t1.values + t2.values) * np.conj(psi1.values))
    den = radial_integral(grid, np.abs(psi1.values) ** 2)
    return float((num / den).real)


class Classification(str, Enum):
    SUPERCRITICAL = "Supercritical"
    SUBCRITICAL = "Subcritical"
    DEGENERATE = "Degenerate"


def degeneracy_tol(params: DomainParams) -> float:
    """Dead zone for sign(l): 1e-10 of the natural coefficient scale."""
    return 1e-10 * params.a * params.alpha / (params.b - params.a) ** 4


@dataclass(frozen=True)
class BifurcationReport:
    """Pitchfork classification with the bifurcated-state constructor."""

    lambda1: float
    l: float
    classification: Classification
    amplitude: float | None
    mu: float
    psi1: ModalField = field(repr=False)
    g11: ModalField = field(repr=False)

    def _coeffs(self, s: complex) -> np.ndarray:
        """Profiles of n = 1, 2 at phase point s, as rows."""
        return np.array([s * self.psi1.values, s**2 * self.g11.values])

    def psi_s(self, s: complex, ntheta: int = 128) -> PhysicalField:
        """Bifurcated streamfunction on the physical lattice at phase s."""
        return PhysicalField(synthesize_lattice(self._coeffs(s), ntheta))

    def velocity(self, s: complex, grid: RadialGrid,
                 ntheta: int = 128) -> tuple[np.ndarray, np.ndarray]:
        """Polar velocity components (v_r, v_theta) of the bifurcated state."""
        return lattice_velocity(self._coeffs(s), grid, ntheta)


def lattice_velocity(coeffs: np.ndarray, grid: RadialGrid,
                     ntheta: int) -> tuple[np.ndarray, np.ndarray]:
    """(v_r, v_theta) on the (r, theta) lattice of the streamfunction
    sum_n (c_n e^{i n theta} + c.c.), with c_n in row n - 1 of ``coeffs``:
    v_r = -(1/r) d psi / d theta and v_theta = d psi / dr, as in
    :func:`mode_energies`."""
    n = np.arange(1, len(coeffs) + 1)[:, None]
    return (synthesize_lattice(-1j * n * coeffs / grid.nodes, ntheta),
            synthesize_lattice(coeffs @ grid.d1.T, ntheta))


def classify_and_build(params: DomainParams, mu: float, eig: EigenResult,
                       l: float, g11: ModalField) -> BifurcationReport:
    """Classify the pitchfork by sign(l) and attach the branch constructor.

    The amplitude |s| = sqrt(-lambda_1 / l) is defined only when lambda_1
    and l have opposite signs (the side of mu_c where the branch lives).
    """
    tol = degeneracy_tol(params)
    if abs(l) <= tol:
        raise DegenerateCoefficient(f"|l| = {abs(l)} below tolerance {tol}")
    cls = Classification.SUPERCRITICAL if l < 0 else Classification.SUBCRITICAL
    amplitude = None
    if eig.lambda1 != 0.0 and np.sign(eig.lambda1) != np.sign(l):
        amplitude = float(np.sqrt(-eig.lambda1 / l))
    return BifurcationReport(lambda1=eig.lambda1, l=l, classification=cls,
                             amplitude=amplitude, mu=mu,
                             psi1=eig.psi1, g11=g11)


def reduction(params: DomainParams, mu: float,
              grid: RadialGrid) -> tuple[EigenResult, ModalField, float]:
    """The reduction chain: leading eigenpair, G11, then l (unclassified).

    The closed-form mu_c is exact, so lambda_1 must be positive below it
    and negative above it; a lambda_1 of the other sign means the grid
    does not resolve the problem, and raises EigSolverFailure.
    """
    eig = leading_eigenpair(params, mu, grid)
    muc = mu_c_closed(params)
    if eig.lambda1 * (muc - mu) < 0:
        raise EigSolverFailure(
            f"lambda1 = {eig.lambda1} has the wrong sign for mu = {mu} and "
            f"mu_c = {muc}: the N = {grid.N} grid does not resolve the problem")
    g11 = solve_G11(params, mu, eig, grid)
    return eig, g11, lyapunov_coeff(eig.psi1, g11, grid)


def bifurcation_report(params: DomainParams, mu: float,
                       grid: RadialGrid) -> BifurcationReport:
    """One-call pipeline: eigenpair, G11, l, classification."""
    eig, g11, l = reduction(params, mu, grid)
    return classify_and_build(params, mu, eig, l, g11)
