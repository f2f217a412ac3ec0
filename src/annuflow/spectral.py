"""Radial discretization on [a, b].

Chebyshev-Gauss-Lobatto collocation mapped affinely to the annulus radii,
dense differentiation matrices, the modal operators

    Delta_n = d^2/dr^2 + (1/r) d/dr - n^2/r^2,

and Clenshaw-Curtis quadrature with the polar r-weight folded in. The
boundary conditions enter every mode-n system in one place,
:func:`mode_pencil`: mu Delta_n^2 with the four slip and stress-free rows
in BC_ROWS, against Delta_n with those rows zeroed. The generalized
eigenvalue solve, the boundary value solve and the simulator's implicit
matrices all start from that pencil. The solves run on numpy's LAPACK;
only :func:`generalized_eig`, which needs QZ and which no command calls,
imports scipy.linalg, in its own body.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .domain import DomainParams
from .errors import (
    EigSolverFailure,
    GridMismatch,
    InvalidPhysics,
    SingularSystem,
    TooCoarse,
)

#: condition-number threshold above which a BVP solve is reported singular
COND_LIMIT = 1e12

#: fewest Chebyshev intervals a radial grid may have
MIN_N = 8


@functools.lru_cache(maxsize=16)
def _cheb_matrix(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Lobatto nodes on [-1, 1] and the collocation derivative matrix,
    computed once per N and read-only."""
    n = np.arange(N + 1)
    x = np.cos(np.pi * n / N)
    c = np.hstack([2.0, np.ones(N - 1), 2.0]) * (-1.0) ** n
    X = np.tile(x, (N + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))
    for m in (x, D):
        m.setflags(write=False)
    return x, D


@functools.lru_cache(maxsize=16)
def _clencurt_weights(N: int) -> np.ndarray:
    """Clenshaw-Curtis weights for the Gauss-Lobatto nodes on [-1, 1],
    computed once per N and read-only."""
    theta = np.pi * np.arange(N + 1) / N
    w = np.zeros(N + 1)
    ii = np.arange(1, N)
    v = np.ones(N - 1)
    if N % 2 == 0:
        w[0] = w[N] = 1.0 / (N**2 - 1)
        for k in range(1, N // 2):
            v -= 2.0 * np.cos(2 * k * theta[ii]) / (4 * k**2 - 1)
        v -= np.cos(N * theta[ii]) / (N**2 - 1)
    else:
        w[0] = w[N] = 1.0 / N**2
        for k in range(1, (N - 1) // 2 + 1):
            v -= 2.0 * np.cos(2 * k * theta[ii]) / (4 * k**2 - 1)
    w[ii] = 2.0 * v / N
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class RadialGrid:
    """Collocation grid r_0 = b > ... > r_N = a with derivative operators.

    ``weights`` carry the polar measure: ``weights @ f`` approximates
    the integral of f(r) r dr over [a, b].
    """

    a: float
    b: float
    N: int
    nodes: np.ndarray = field(repr=False)
    d1: np.ndarray = field(repr=False)
    d2: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def build_grid(a: float, b: float, N: int) -> RadialGrid:
    """Build the mapped Gauss-Lobatto grid with N+1 nodes on [a, b]."""
    if N < MIN_N:
        raise TooCoarse(f"need N >= {MIN_N}, got {N}")
    if not a < b:
        raise GridMismatch(f"need a < b, got a={a}, b={b}")
    x, D = _cheb_matrix(N)
    half = (b - a) / 2.0
    nodes = (a + b) / 2.0 + half * x
    d1 = D / half
    d2 = d1 @ d1
    weights = _clencurt_weights(N) * half * nodes
    for m in (nodes, d1, d2, weights):
        m.setflags(write=False)
    return RadialGrid(a=float(a), b=float(b), N=N, nodes=nodes,
                      d1=d1, d2=d2, weights=weights)


def laplacian_n(grid: RadialGrid, n: int) -> np.ndarray:
    """The modal Laplacian Delta_n on the grid."""
    r = grid.nodes
    lap = (1.0 / r)[:, None] * grid.d1
    lap += grid.d2
    lap.flat[::len(lap) + 1] -= n**2 / r**2
    return lap


#: matrix rows that carry the boundary conditions: 0, 1 at r = b, N-1, N at r = a
BC_ROWS = [0, 1, -2, -1]


def navier_slip_bcs(grid: RadialGrid, params: DomainParams, mu: float) -> np.ndarray:
    """The (4, N+1) boundary rows, for the matrix rows BC_ROWS:

    Psi = 0 and the stress-free row Psi'' + Psi'/b = 0 at r = b,
    the Navier-slip row Psi'' - (1/a - alpha/mu) Psi' = 0 and Psi = 0 at r = a.
    """
    N = grid.N
    rows = np.zeros((4, N + 1))
    rows[0, 0] = 1.0
    rows[1, :] = grid.d2[0, :] + grid.d1[0, :] / grid.b
    rows[2, :] = grid.d2[N, :] - (1.0 / grid.a - params.alpha / mu) * grid.d1[N, :]
    rows[3, N] = 1.0
    return rows


@dataclass(frozen=True)
class ModePencil:
    """Mode n's ``matrix`` mu Delta_n^2, rows BC_ROWS replaced by
    :func:`navier_slip_bcs`, against its ``mass`` Delta_n, those rows zeroed:
    the eigenproblem, the G11 solve (matrix - 2 lambda_1 mass) and the
    simulator's implicit matrices (mass -+ dt/2 matrix) all use it."""

    matrix: np.ndarray = field(repr=False)
    mass: np.ndarray = field(repr=False)

    def shifted(self, lam: float) -> np.ndarray:
        """A new array matrix - lam mass."""
        out = self.mass * -lam
        out += self.matrix
        return out


def mode_pencil(grid: RadialGrid, params: DomainParams, mu: float,
                n: int) -> ModePencil:
    """Mode n's :class:`ModePencil` at viscosity mu; InvalidPhysics unless mu > 0."""
    if not mu > 0:
        raise InvalidPhysics(f"viscosity must be positive, got mu={mu}")
    mass = laplacian_n(grid, n)
    matrix = mass @ mass
    matrix *= mu
    matrix[BC_ROWS] = navier_slip_bcs(grid, params, mu)
    mass[BC_ROWS] = 0.0
    for m in (matrix, mass):
        m.setflags(write=False)
    return ModePencil(matrix=matrix, mass=mass)


def _row_scale(matrix: np.ndarray) -> np.ndarray:
    """The max-norm of each row of ``matrix``, by which the solves below
    divide it. Boundary rows are O(1) while interior rows grow like N^8:
    unscaled, the condition number reflects row scaling rather than a
    shift near an eigenvalue, and the LU loses the interior digits."""
    scale = np.maximum(matrix.max(axis=1), -matrix.min(axis=1))
    if not np.all(scale > 0):
        raise SingularSystem("operator has an identically zero row")
    return scale


def solve_bvp(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve matrix x = rhs (real), whose boundary rows BC_ROWS (e.g. of a
    shifted :class:`ModePencil`) take homogeneous data, with the inverse of
    the row-scaled matrix S. That inverse also gives S's exact
    infinity-norm condition number |S| |S^-1|, never below LAPACK gecon's
    estimate of it (on G11 matrices the estimate is exact to rounding, and
    0.65-0.78 times the 2-norm number in thin gaps). Raises SingularSystem
    when it exceeds COND_LIMIT, which typically signals a shift sitting on
    an eigenvalue."""
    f = np.array(rhs, dtype=float)
    f[BC_ROWS] = 0.0
    scale = _row_scale(matrix)
    scaled = matrix / scale[:, None]
    try:
        inv = np.linalg.inv(scaled)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"boundary value problem is singular: {exc}") from exc
    x = inv @ (f / scale)
    cond = (np.abs(scaled, out=scaled).sum(axis=1).max()
            * np.abs(inv, out=inv).sum(axis=1).max())
    if not cond <= COND_LIMIT:
        raise SingularSystem(
            "boundary value problem is numerically singular "
            "(shift may sit on an eigenvalue)")
    return x


def generalized_eig(pencil: ModePencil, cap: float) -> np.ndarray:
    """Finite eigenvalues of matrix x = lambda mass x, sorted by descending
    real part. The zero boundary rows of ``mass`` park the spurious
    eigenvalues at infinity; anything with |lambda| above ``cap`` is
    discarded as row-replacement debris. :func:`eigenvector` gives the
    eigenvector of any of them. It needs scipy, which only the ``test``
    extra installs: no command calls it."""
    import scipy.linalg as sla

    try:
        lam = sla.eigvals(pencil.matrix, pencil.mass)
    except sla.LinAlgError as exc:  # pragma: no cover
        raise EigSolverFailure(str(exc)) from exc
    lam = lam[np.isfinite(lam) & (np.abs(lam) < cap)]
    if not len(lam):
        raise EigSolverFailure("all eigenvalues filtered as spurious")
    return lam[np.argsort(-lam.real)]


#: inverse-iteration solves per eigenvector: for the leading mode 1 at
#: b/a in [1.05, 15], N <= 128, a third solve moves the vector by at most
#: 2.1e-10 of its maximum and a fourth by rounding (1e-12) only
INVERSE_ITERATIONS = 3


def _inverse_iteration(pencil: ModePencil, shift: float) -> np.ndarray:
    scaled = pencil.shifted(shift)
    scale = _row_scale(scaled)
    scaled /= scale[:, None]
    x = np.ones(pencil.mass.shape[0])
    for _ in range(INVERSE_ITERATIONS):
        x = np.linalg.solve(scaled, (pencil.mass @ x) / scale)
        x /= np.abs(x).max()
    return x


def eigenvector(pencil: ModePencil, lam: float) -> np.ndarray:
    """Eigenvector of matrix x = lam mass x for a real eigenvalue ``lam``
    (e.g. the largest of :func:`annuflow.bifurcation.energy_pencil`), by
    inverse iteration: solves of (matrix - lam mass) x_new = mass x with the
    row-equilibrated shifted matrix. Every iterate meets the homogeneous
    boundary rows. A shift on which the LU meets an exact zero pivot is an
    eigenvalue to working precision: it is moved by a few ulps of the
    shifted matrix, and the iteration runs once more."""
    try:
        x = _inverse_iteration(pencil, lam)
    except np.linalg.LinAlgError:
        nudge = (4.0 * np.finfo(float).eps * np.abs(pencil.matrix).max()
                 / np.abs(pencil.mass).max())
        try:
            x = _inverse_iteration(pencil, lam + nudge)
        except np.linalg.LinAlgError as exc:
            raise EigSolverFailure(
                f"shifted matrix singular at {lam} and {lam + nudge}") from exc
    if not np.all(np.isfinite(x)):
        raise EigSolverFailure(f"inverse iteration at {lam} did not converge")
    return x
