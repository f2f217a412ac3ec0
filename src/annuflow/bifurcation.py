"""Center-manifold reduction at the critical viscosity.

One chain, :func:`bifurcation_report`, builds the leading eigenpair of the
generalized problem mu Delta_1^2 Psi = lambda Delta_1 Psi, solves the
quadratic manifold coefficient G11, assembles the cubic (Lyapunov)
coefficient l of the reduced amplitude equation

    dz/dt = lambda_1 z + l z |z|^2,

classifies the pitchfork, and constructs the bifurcated streamfunction

    psi_s = s Psi_1 e^{i theta} + c.c. + s^2 G11 e^{2 i theta} + c.c.

with |s| = sqrt(-lambda_1 / l) when the branch exists.

Every profile is a complex array over the radial nodes, its wavenumber an
argument of the function that needs it; Psi_1 and G11 come back read-only.
Psi_1 has unit L^2(r dr) norm and Psi_1'(a) > 0; l scales with the square
of that normalization, but the physical bifurcated field does not.

The projection onto the critical mode is taken in the velocity (energy)
pairing <u, v> = int grad-pairing, which for profiles vanishing at both
radii reduces to -int (Delta_n F) conj(G) r dr. The linearized operator is
self-adjoint in that pairing, so it is the one in which the critical-mode
projection is exact. At mu = mu_c, l has a closed form on the span of
r^k (ln r)^m; the tests compare it with this module's l there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .critical import mu_c_closed
from .domain import DomainParams, PhysicalField, synthesize_lattice, synthesize_physical
from .errors import DegenerateCoefficient, EigSolverFailure, GridMismatch
from .spectral import (
    RadialGrid,
    eigenvector,
    laplacian_n,
    mode_pencil,
    solve_bvp,
)


@dataclass(frozen=True)
class EigenResult:
    """Leading growth rate and its unit-norm mode-1 eigenfunction."""

    lambda1: float
    psi1: np.ndarray
    mu: float


def modal_velocity(coeffs: np.ndarray, grid: RadialGrid,
                   n: int | np.ndarray) -> tuple:
    """The velocity (v_r, v_theta) = (-i n psi / r, psi') of mode-n
    profiles, one per row of ``coeffs``."""
    return -1j * n * coeffs / grid.nodes, coeffs @ grid.d1.T


def kinetic_energy(psi: np.ndarray, grid: RadialGrid,
                   n: int | np.ndarray = 1) -> np.ndarray:
    """E3 of :func:`mode_energies` alone, without the gradient fields."""
    vr, vt = modal_velocity(psi, grid, n)
    return (np.abs(vr) ** 2 + np.abs(vt) ** 2) @ grid.weights


def mode_energies(params: DomainParams, psi: np.ndarray, grid: RadialGrid,
                  n: int | np.ndarray = 1) -> tuple:
    """Radial energy functionals (E3, E1, E2) of a mode-n profile.

    With v = (v_r, v_theta) of :func:`modal_velocity`, E3 = int |v|^2 r dr
    is the kinetic energy, E1 the gradient energy
    int (|v_r'|^2 + |v_theta'|^2 + |(i n v_r - v_theta)/r|^2
    + |(i n v_theta + v_r)/r|^2) r dr plus the outer-boundary tangential
    term |v_theta(b)|^2, and E2 = a |v_theta(a)|^2 the inner-boundary
    tangential term. The field psi e^{i n theta} + c.c. carries 4 pi times
    each. Stacked profiles, one per row, with ``n`` a column of their
    wavenumbers give one array of values per functional.
    """
    r, d1, w = grid.nodes, grid.d1, grid.weights
    vr, vt = modal_velocity(psi, grid, n)
    grads = (vr @ d1.T, vt @ d1.T, (1j * n * vr - vt) / r,
             (1j * n * vt + vr) / r)
    E3 = (np.abs(vr) ** 2 + np.abs(vt) ** 2) @ w
    E1 = sum(np.abs(g) ** 2 for g in grads) @ w + np.abs(vt[..., 0]) ** 2
    E2 = params.a * np.abs(vt[..., -1]) ** 2
    return E3, E1, E2


def energy_growth(params: DomainParams, mu: float, E1, E2):
    """The right side of the linear energy balance
    d/dt (E3/2) = -mu E1 + (alpha - mu/a) E2."""
    return -mu * E1 + (params.alpha - mu / params.a) * E2


def energy_rayleigh(params: DomainParams, mu: float, psi: np.ndarray,
                    grid: RadialGrid) -> float:
    """Variational growth rate of a mode-1 profile.

    lambda = :func:`energy_growth` / E3 with the functionals of
    :func:`mode_energies`. For an eigenfunction this is the eigenvalue,
    accurate to second order in the eigenvector error (the operator is
    self-adjoint in this pairing), so it polishes the eigenvalue of the
    collocation eigenvector.
    """
    E3, E1, E2 = mode_energies(params, psi, grid)
    return float(energy_growth(params, mu, E1, E2) / E3)


def energy_pencil(params: DomainParams, mu: float,
                  grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """The symmetric pencil (A, B) of :func:`energy_rayleigh` on the mode-1
    profiles that vanish at both radii: A = :func:`energy_growth` and
    B = E3, :func:`mode_energies`' functionals over the interior nodes.
    For n = 1 each field of :func:`mode_energies` is a fixed matrix of the
    interior operator columns d1_i = d1[:, 1:-1] and d2_i = d2[:, 1:-1], so
    with W = diag(weights) each functional is a sum of Gram products:

        E3 = d1_i^T W d1_i + diag(w_i / r_i^2)
        E1 = (d1_i / r_i)^T W (d1_i / r_i) + d2_i^T W d2_i + 2 C^T W C
             + d1_i[0] (x) d1_i[0]
        E2 = a d1_i[N] (x) d1_i[N]

    where C = (I_i / r - d1_i) / r, rows scaled, is the last two gradient
    fields up to sign. B is positive definite and E1 positive semidefinite,
    and E2 = a |Psi'(a)|^2 has rank one, so by Courant-Fischer the pencil
    has at most one positive eigenvalue, and its largest eigenvalue is the
    leading growth rate."""
    r, w = grid.nodes, grid.weights
    d1 = grid.d1[:, 1:-1]

    def gram(m):
        return (m * w[:, None]).T @ m

    c = (np.eye(grid.N + 1)[:, 1:-1] / r[:, None] - d1) / r[:, None]
    E1 = (gram(d1 / r[1:-1]) + gram(grid.d2[:, 1:-1]) + 2.0 * gram(c)
          + np.outer(d1[0], d1[0]))
    E2 = params.a * np.outer(d1[-1], d1[-1])
    E3 = gram(d1) + np.diag(w[1:-1] / r[1:-1] ** 2)
    return energy_growth(params, mu, E1, E2), E3


#: largest accepted gap between the polished lambda_1 and the energy
#: pencil's, relative to |lambda_1| + a alpha / (b - a)^2: resolved inputs
#: read 2.1e-6 at most (N = 48, b/a = 3, 0.1 mu_c), and b/a = 1000 at
#: N = 48 and 96, at and just above mu_c, reads 0.5 to 13
EIGEN_CONSISTENCY_RTOL = 1e-5


def leading_eigenpair(params: DomainParams, mu: float, grid: RadialGrid) -> EigenResult:
    """Largest eigenpair of mu Delta_1^2 Psi = lambda Delta_1 Psi.

    The eigenvalue is the largest of :func:`energy_pencil`, which LAPACK
    computes alone (sygvx); the eigenvector comes from inverse iteration
    on the collocation pencil (Dirichlet pair plus the slip/stress-free
    pair with alpha/mu at the requested viscosity) shifted at that
    eigenvalue, and the eigenvalue is then polished by the eigenvector's
    variational quotient. Two discretizations of one problem must agree,
    so EigSolverFailure is raised when the polished lambda_1 has not the
    sign of mu_c - mu (mu_c_closed is exact to rounding; never at mu = mu_c)
    or differs from the pencil's by more than EIGEN_CONSISTENCY_RTOL: the
    grid does not resolve the problem.
    """
    import scipy.linalg as sla

    A, B = energy_pencil(params, mu, grid)
    top = len(B) - 1
    try:
        lam = sla.eigh(A, B, eigvals_only=True, subset_by_index=[top, top])[0]
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigSolverFailure(str(exc)) from exc
    pencil = mode_pencil(grid, params, mu, 1)
    psi = _normalize(eigenvector(pencil, lam).astype(complex), grid)
    psi.setflags(write=False)
    polished = energy_rayleigh(params, mu, psi, grid)
    muc = mu_c_closed(params)
    if polished * (muc - mu) < 0:
        raise EigSolverFailure(
            f"lambda1 = {polished} has the wrong sign for mu = {mu} and "
            f"mu_c = {muc}: the N = {grid.N} grid does not resolve the problem")
    scale = params.a * params.alpha / (grid.b - grid.a) ** 2
    if abs(polished - lam) > EIGEN_CONSISTENCY_RTOL * (abs(lam) + scale):
        raise EigSolverFailure(
            f"collocation lambda1 = {polished} disagrees with the energy "
            f"pencil's {lam}: the N = {grid.N} grid does not resolve the problem")
    return EigenResult(lambda1=polished, psi1=psi, mu=mu)


def _normalize(values: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Unit L^2(r dr) norm, phase rotated so Psi'(a) is real positive."""
    v = values / np.sqrt(grid.weights @ np.abs(values) ** 2)
    slope = grid.d1[grid.N, :] @ v
    if abs(slope) > 0:
        v = v * (np.conj(slope) / abs(slope))
    return v


def interaction(f: np.ndarray, nf: int, g: np.ndarray, ng: int,
                grid: RadialGrid) -> np.ndarray:
    """Advection bilinear form on the profiles f of mode nf and g of mode ng.

    G(f, g) is the mode nf + ng profile i (nf f / r (Delta_ng g)'
    - ng f' / r Delta_ng g); it vanishes when g is Delta_ng-harmonic.
    """
    if len(f) != grid.N + 1 or len(g) != grid.N + 1:
        raise GridMismatch("interaction operands on different grids")
    r = grid.nodes
    om = laplacian_n(grid, ng) @ g
    return 1j * (nf * f / r * (grid.d1 @ om) - ng * (grid.d1 @ f) / r * om)


def solve_G11(params: DomainParams, mu: float, eig: EigenResult,
              grid: RadialGrid) -> np.ndarray:
    """The quadratic center-manifold coefficient G11 (g12 = 0 and
    g22 = conj(g11)): mu Delta_2^2 G11 - 2 lambda_1 Delta_2 G11 =
    -G(psi1, psi1), with the mode-2 pencil's boundary rows."""
    quad = interaction(eig.psi1, 1, eig.psi1, 1, grid)
    p = mode_pencil(grid, params, mu, 2)
    g11 = solve_bvp(p.matrix - 2.0 * eig.lambda1 * p.mass, -quad)
    g11.setflags(write=False)
    return g11


def lyapunov_coeff(psi1: np.ndarray, g11: np.ndarray,
                   grid: RadialGrid) -> tuple[float, float]:
    """Cubic coefficient l of the reduced amplitude equation and its
    (diagnostic) imaginary residue.

    l = <A^{-1} G(conj(psi1), g11) + A^{-1} G(g11, conj(psi1)), psi1>
        / <psi1, psi1>
    in the velocity pairing; integrating by parts against the eigenfunction
    (which vanishes at both radii) turns the numerator into a plain
    r-weighted integral of the interaction profiles, with
    <psi1, psi1> = -int (Delta_1 Psi_1) conj(Psi_1) r dr.
    """
    c = np.conj(psi1)
    total = interaction(c, -1, g11, 2, grid) + interaction(g11, 2, c, -1, grid)
    # Python complex division: numpy's rounds l differently in the last ulps
    num = -complex(grid.weights @ (total * c))
    den = -complex(grid.weights @ ((laplacian_n(grid, 1) @ psi1) * c))
    val = num / den
    return float(val.real), float(val.imag)


class Classification(str, Enum):
    SUPERCRITICAL = "Supercritical"
    SUBCRITICAL = "Subcritical"


@dataclass(frozen=True)
class BifurcationReport:
    """Pitchfork classification with the bifurcated-state constructor."""

    lambda1: float
    l: float
    classification: Classification
    amplitude: float | None
    psi1: np.ndarray = field(repr=False)
    g11: np.ndarray = field(repr=False)

    def coeffs(self, s: complex) -> np.ndarray:
        """The modal rows of the bifurcated state at phase point s: row
        n - 1 is the profile of mode n = 1, 2."""
        return np.array([s * self.psi1, s**2 * self.g11])

    def psi_s(self, s: complex, ntheta: int = 128) -> PhysicalField:
        """Bifurcated streamfunction on the physical lattice at phase s."""
        return synthesize_physical(self.coeffs(s), ntheta)


def lattice_velocity(coeffs: np.ndarray, grid: RadialGrid,
                     ntheta: int) -> tuple[np.ndarray, np.ndarray]:
    """(v_r, v_theta) on the (r, theta) lattice of the streamfunction
    sum_n (c_n e^{i n theta} + c.c.), with c_n in row n - 1 of ``coeffs``:
    v_r = -(1/r) d psi / d theta and v_theta = d psi / dr, the rows of
    :func:`modal_velocity`."""
    n = np.arange(1, len(coeffs) + 1)[:, None]
    return tuple(synthesize_lattice(
        np.stack(modal_velocity(coeffs, grid, n)), ntheta))


def classify_and_build(params: DomainParams, eig: EigenResult, l: float,
                       g11: np.ndarray) -> BifurcationReport:
    """Classify the pitchfork by sign(l) and attach the branch constructor.

    The amplitude |s| = sqrt(-lambda_1 / l) is defined only when lambda_1
    and l have opposite signs (the side of mu_c where the branch lives).
    """
    # dead zone for sign(l): 1e-10 of the natural coefficient scale
    tol = 1e-10 * params.a * params.alpha / (params.b - params.a) ** 4
    if abs(l) <= tol:
        raise DegenerateCoefficient(f"|l| = {abs(l)} below tolerance {tol}")
    cls = Classification.SUPERCRITICAL if l < 0 else Classification.SUBCRITICAL
    amplitude = None
    if eig.lambda1 != 0.0 and np.sign(eig.lambda1) != np.sign(l):
        amplitude = float(np.sqrt(-eig.lambda1 / l))
    return BifurcationReport(lambda1=eig.lambda1, l=l, classification=cls,
                             amplitude=amplitude, psi1=eig.psi1, g11=g11)


def bifurcation_report(params: DomainParams, mu: float,
                       grid: RadialGrid) -> BifurcationReport:
    """The one reduction chain: eigenpair, G11, l, classification."""
    eig = leading_eigenpair(params, mu, grid)
    g11 = solve_G11(params, mu, eig, grid)
    l, _ = lyapunov_coeff(eig.psi1, g11, grid)
    return classify_and_build(params, eig, l, g11)
