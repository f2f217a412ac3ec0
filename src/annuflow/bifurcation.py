"""Center-manifold reduction at the critical viscosity.

One chain, :func:`bifurcation_report`, builds the leading eigenpair of the
generalized problem mu Delta_1^2 Psi = lambda Delta_1 Psi, solves the
quadratic manifold coefficient G11, assembles the cubic (Lyapunov)
coefficient l of the reduced amplitude equation

    dz/dt = lambda_1 z + l z |z|^2,

classifies the pitchfork, and constructs the bifurcated streamfunction

    psi_s = s Psi_1 e^{i theta} + s^2 i g e^{2 i theta} + c.c.

with |s| = sqrt(-lambda_1 / l) when the branch exists.

Every operator here is real, and so is the reduction: Psi_1 is a real
profile over the radial nodes, the advection of real profiles is i times
a real one, so G11 = i g with g real, and l is real. The module stores
Psi_1 and g, read-only. Psi_1 has unit L^2(r dr) norm and Psi_1'(a) > 0;
l scales with the square of that normalization, but the physical
bifurcated field does not.

The projection onto the critical mode is taken in the velocity (energy)
pairing <u, v> = int grad-pairing, which for real profiles vanishing at
both radii reduces to -int (Delta_n F) G r dr. The linearized operator is
self-adjoint in that pairing, so it is the one in which the critical-mode
projection is exact. At mu = mu_c, l has a closed form on the span of
r^k (ln r)^m; the tests compare it with this module's l there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .critical import mu_c_closed
from .domain import DomainParams, PhysicalField, synthesize_physical
from .errors import DegenerateCoefficient, EigSolverFailure, GridMismatch
from .spectral import RadialGrid, eigenvector, mode_pencil, solve_bvp


@dataclass(frozen=True)
class EigenResult:
    """Leading growth rate and its real, unit-norm mode-1 eigenfunction."""

    lambda1: float
    psi1: np.ndarray
    mu: float

    def __post_init__(self):
        if np.asarray(self.psi1).dtype.kind != "f" or np.ndim(self.psi1) != 1:
            raise GridMismatch("psi1 must be a real 1-D profile")


def velocity_factor(grid: RadialGrid, n: int | np.ndarray) -> np.ndarray:
    """f such that z[..., ::-1, :] * f, the planes swapped, is -i n z / r;
    ``n`` is a wavenumber or a column of them, one per mode of z."""
    return np.stack([n / grid.nodes, -n / grid.nodes], axis=-2)


def modal_velocity(planes: np.ndarray, grid: RadialGrid, factor: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """The planes of (v_r, v_theta) = (-i n psi / r, psi') of mode-n planes
    (..., 2, N+1), stacked on a new first axis (into ``out`` if given);
    ``factor`` is :func:`velocity_factor`. v_theta is one product X d1^T
    per block of planes shaped like ``factor``: axes that lead factor's
    hold a batch, and each member gets the bits of its own call (BLAS's
    rounding depends on a product's row count)."""
    if out is None:
        out = np.empty((2, *planes.shape))
    np.multiply(planes[..., ::-1, :], factor, out=out[0])
    n1 = planes.shape[-1]
    lead = planes.shape[:-factor.ndim]
    np.matmul(planes.reshape(*lead, -1, n1), grid.d1.T, out=out[1].reshape(*lead, -1, n1))
    return out


def mode_energies(params: DomainParams, planes: np.ndarray, grid: RadialGrid,
                  factor: np.ndarray) -> tuple:
    """Radial energy functionals (E3, E1, E2) of mode-n planes (..., 2, N+1).

    With v = (v_r, v_theta) of :func:`modal_velocity`, E3 = int |v|^2 r dr
    is the kinetic energy, E1 the gradient energy
    int (|v_r'|^2 + |v_theta'|^2 + |(i n v_r - v_theta)/r|^2
    + |(i n v_theta + v_r)/r|^2) r dr plus the outer-boundary tangential
    term |v_theta(b)|^2, and E2 = a |v_theta(a)|^2 the inner-boundary
    tangential term. The field psi e^{i n theta} + c.c. carries 4 pi times
    each; ``factor`` is the modes' :func:`velocity_factor`. The velocity of
    v gives v' and -i n v / r, so the last two gradient fields are, up to
    sign, -i n v_r / r + v_theta / r and -i n v_theta / r - v_r / r.
    """
    vr, vt = v = modal_velocity(planes, grid, factor)
    # factor[None] spans both components of v, so they share one product
    (in_vr, in_vt), dv = modal_velocity(v, grid, factor[None])
    grads = (*dv, in_vr + vt / grid.nodes, in_vt - vr / grid.nodes)
    vt2 = (vt * vt).sum(axis=-2)
    E1 = sum((g * g).sum(axis=-2) for g in grads) @ grid.weights + vt2[..., 0]
    return mode_kinetic_energy(v, grid), E1, params.a * vt2[..., -1]


def mode_kinetic_energy(v: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """E3 = int |v|^2 r dr of each mode of the :func:`modal_velocity` planes v."""
    squares = (v * v).sum(axis=-2)
    return (squares[0] + squares[1]) @ grid.weights


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
    planes = np.stack([psi, np.zeros_like(psi)])
    E3, E1, E2 = mode_energies(params, planes, grid, velocity_factor(grid, 1))
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
    fields up to sign. The first product of E1 is that of E3 divided by
    r_i r_j, so three matrix products build the pencil. B is positive
    definite and E1 positive semidefinite, and E2 = a |Psi'(a)|^2 has rank
    one, so by Courant-Fischer the pencil has at most one positive
    eigenvalue, and its largest eigenvalue is the leading growth rate."""
    r, w = grid.nodes, grid.weights
    ri, d1 = r[1:-1], grid.d1[:, 1:-1]

    def gram(m, weight=w):
        return (m * weight[:, None]).T @ m

    k = np.arange(grid.N - 1)
    c = d1 / -r[:, None]
    c[k + 1, k] += 1.0 / ri**2
    E1 = gram(c, 2.0 * w)
    del c  # a lower peak: glibc then keeps, not trims, the heap between calls
    E1 += gram(grid.d2[:, 1:-1])
    E3 = gram(d1)
    E1 += E3 / np.outer(ri, ri)
    E1 += np.outer(d1[0], d1[0])
    A = energy_growth(params, mu, E1, np.outer(params.a * d1[-1], d1[-1]))
    E3.flat[::len(E3) + 1] += w[1:-1] / ri**2
    return A, E3


#: largest accepted gap between the polished lambda_1 and the energy
#: pencil's, relative to |lambda_1| + a alpha / (b - a)^2: resolved inputs
#: read 2.1e-6 at most (N = 48, b/a = 3, 0.1 mu_c), and b/a = 1000 at
#: N = 48 and 96, at and just above mu_c, reads 0.5 to 13
EIGEN_CONSISTENCY_RTOL = 1e-5


def leading_eigenpair(params: DomainParams, mu: float, grid: RadialGrid) -> EigenResult:
    """Largest eigenpair of mu Delta_1^2 Psi = lambda Delta_1 Psi.

    The eigenvalue is the largest of :func:`energy_pencil`, by Cholesky
    whitening and numpy's eigvalsh; the eigenvector comes from inverse iteration
    on the collocation pencil (Dirichlet pair plus the slip/stress-free
    pair with alpha/mu at the requested viscosity) shifted at that
    eigenvalue, and the eigenvalue is then polished by the eigenvector's
    variational quotient. Two discretizations of one problem must agree,
    so EigSolverFailure is raised when the polished lambda_1 has not the
    sign of mu_c - mu (mu_c_closed is exact to rounding; never at mu = mu_c)
    or differs from the pencil's by more than EIGEN_CONSISTENCY_RTOL: the
    grid does not resolve the problem.
    """
    lam = _top_eigenvalue(*energy_pencil(params, mu, grid))
    pencil = mode_pencil(grid, params, mu, 1)
    psi = _normalize(eigenvector(pencil, lam), grid)
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


def _top_eigenvalue(A: np.ndarray, B: np.ndarray) -> float:
    """Largest eigenvalue of the symmetric-definite pencil (A, B): that of
    L^-1 A L^-T with B = L L^T (Golub & Van Loan, Matrix Computations,
    4th ed., 8.7)."""
    try:
        Li = np.linalg.cholesky(B)
        _invert_lower_in_place(Li)
        return float(np.linalg.eigvalsh(Li @ A @ Li.T)[-1])
    except np.linalg.LinAlgError as exc:
        raise EigSolverFailure(f"energy pencil: {exc}") from exc


def _invert_lower_in_place(L: np.ndarray) -> None:
    """Overwrite the lower-triangular L with its inverse, by 2 x 2 blocks:
    [[L11, 0], [L21, L22]]^-1 = [[L11^-1, 0], [-L22^-1 L21 L11^-1, L22^-1]],
    recursively down to 32 rows. numpy has no triangular inverse, and its
    general one (an LU and n solves) takes about 3.5 times as long at 95."""
    if len(L) <= 32:
        L[...] = np.linalg.inv(L)
        return
    h = len(L) // 2
    _invert_lower_in_place(L[:h, :h])
    _invert_lower_in_place(L[h:, h:])
    L[h:, :h] = -L[h:, h:] @ L[h:, :h] @ L[:h, :h]


def _normalize(values: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """Unit L^2(r dr) norm, sign flipped so Psi'(a) > 0."""
    v = values / np.sqrt(grid.weights @ values**2)
    return -v if grid.d1[grid.N] @ v < 0 else v


def interaction(f: np.ndarray, nf: int, g: np.ndarray, ng: int,
                grid: RadialGrid) -> np.ndarray:
    """Advection bilinear form on the real profiles f of mode nf and g of
    mode ng: G(f, g) = i h is the mode nf + ng profile with the real bracket
    h = nf f / r (Delta_ng g)' - ng f' / r Delta_ng g, which this returns;
    it vanishes when g is Delta_ng-harmonic.
    """
    if any(p.dtype.kind != "f" or p.shape != (grid.N + 1,) for p in (f, g)):
        raise GridMismatch("interaction takes real profiles on its grid")
    r = grid.nodes
    # omega = Delta_ng g = g'' + g' / r - ng^2 g / r^2, without the matrix
    om = grid.d2 @ g + (grid.d1 @ g) / r - ng**2 * g / r**2
    return nf * f / r * (grid.d1 @ om) - ng * (grid.d1 @ f) / r * om


def solve_G11(params: DomainParams, mu: float, eig: EigenResult,
              grid: RadialGrid) -> np.ndarray:
    """The real g of the quadratic center-manifold coefficient G11 = i g
    (g12 = 0 and g22 = conj(G11)): mu Delta_2^2 g - 2 lambda_1 Delta_2 g =
    -h(Psi_1, Psi_1), the :func:`interaction` bracket, with the mode-2
    pencil's boundary rows."""
    quad = interaction(eig.psi1, 1, eig.psi1, 1, grid)
    g = solve_bvp(mode_pencil(grid, params, mu, 2).shifted(2.0 * eig.lambda1), -quad)
    g.setflags(write=False)
    return g


def lyapunov_coeff(psi1: np.ndarray, g: np.ndarray, grid: RadialGrid) -> float:
    """Cubic coefficient l of the reduced amplitude equation, for the real
    Psi_1 and the g of G11 = i g.

    l = <A^{-1} G(conj(Psi_1), G11) + A^{-1} G(G11, conj(Psi_1)), Psi_1>
        / <Psi_1, Psi_1>
    in the velocity pairing; integrating by parts against the eigenfunction
    (which vanishes at both radii) turns the numerator into a plain
    r-weighted integral of the interaction profiles. Both factors of i
    cancel, so with the brackets h of :func:`interaction`

    l = int (h(Psi_1, -1; g, 2) + h(g, 2; Psi_1, -1)) Psi_1 r dr / E3,

    with E3 = <Psi_1, Psi_1> by :func:`mode_kinetic_energy`.
    """
    total = interaction(psi1, -1, g, 2, grid) + interaction(g, 2, psi1, -1, grid)
    num = grid.weights @ (total * psi1)
    v = modal_velocity(np.stack([psi1, np.zeros_like(psi1)]), grid, velocity_factor(grid, 1))
    return float(num / mode_kinetic_energy(v, grid))


class Classification(str, Enum):
    SUPERCRITICAL = "Supercritical"
    SUBCRITICAL = "Subcritical"


@dataclass(frozen=True)
class BifurcationReport:
    """Pitchfork classification with the bifurcated-state constructor;
    ``g11`` holds the real g of G11 = i g."""

    lambda1: float
    l: float
    classification: Classification
    amplitude: float | None
    psi1: np.ndarray = field(repr=False)
    g11: np.ndarray = field(repr=False)

    def coeffs(self, s: complex) -> np.ndarray:
        """The (2, 2, N+1) modal planes of the bifurcated state at phase
        point s: row 0 holds mode 1, s Psi_1, and row 1 mode 2, s^2 i g."""
        s2 = s**2
        return np.array([np.outer([s.real, s.imag], self.psi1),
                         np.outer([-s2.imag, s2.real], self.g11)])

    def psi_s(self, s: complex, ntheta: int = 128) -> PhysicalField:
        """Bifurcated streamfunction on the physical lattice at phase s."""
        return synthesize_physical(self.coeffs(s), ntheta)


#: bifurcate's and sweep's default mu = mu_c (1 + DEFAULT_MU_OFFSET)
DEFAULT_MU_OFFSET = -1e-4


def classify_and_build(params: DomainParams, eig: EigenResult, l: float,
                       g11: np.ndarray) -> BifurcationReport:
    """Classify the pitchfork by sign(l) and attach the branch constructor.

    At fixed b/a and mu / mu_c, l scales as 1 / (alpha a^5), so the class
    depends on those two alone, and so does the dead zone: |l| <= 1e-10 /
    (alpha a (b - a)^4), 3e-12 to 2e-11 of |l| at mu_c, raises
    DegenerateCoefficient. The amplitude |s| = sqrt(-lambda_1 / l) is
    defined only when lambda_1 and l have opposite signs (the side of mu_c
    where the branch lives).
    """
    tol = 1e-10 / (params.alpha * params.a * (params.b - params.a) ** 4)
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
    l = lyapunov_coeff(eig.psi1, g11, grid)
    return classify_and_build(params, eig, l, g11)
