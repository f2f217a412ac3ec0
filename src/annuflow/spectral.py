"""Radial discretization on [a, b].

Chebyshev-Gauss-Lobatto collocation mapped affinely to the annulus radii,
dense differentiation matrices, the modal operators

    Delta_n = d^2/dr^2 + (1/r) d/dr - n^2/r^2,

Clenshaw-Curtis quadrature with the polar r-weight folded in, boundary
condition imposition by row replacement, boundary value solves, and the
generalized eigenvalue solve for the linearized operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .domain import DomainParams, ModalField
from .errors import (
    EigSolverFailure,
    GridMismatch,
    SingularSystem,
    TooCoarse,
)

#: condition-number threshold above which a BVP solve is reported singular
COND_LIMIT = 1e12


def _cheb_matrix(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Lobatto nodes on [-1, 1] and the collocation derivative matrix."""
    n = np.arange(N + 1)
    x = np.cos(np.pi * n / N)
    c = np.hstack([2.0, np.ones(N - 1), 2.0]) * (-1.0) ** n
    X = np.tile(x, (N + 1, 1)).T
    dX = X - X.T
    D = np.outer(c, 1.0 / c) / (dX + np.eye(N + 1))
    D -= np.diag(D.sum(axis=1))
    return x, D


def _clencurt_weights(N: int) -> np.ndarray:
    """Clenshaw-Curtis weights for the Gauss-Lobatto nodes on [-1, 1]."""
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
    if N < 8:
        raise TooCoarse(f"need N >= 8, got {N}")
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


@dataclass(frozen=True)
class ModalOperator:
    """Dense discretization of Delta_n (order 1) or Delta_n^2 (order 2)."""

    n: int
    matrix: np.ndarray = field(repr=False)
    order: int = 1


def laplacian_n(grid: RadialGrid, n: int) -> ModalOperator:
    """The modal Laplacian Delta_n on the grid."""
    r = grid.nodes
    mat = grid.d2 + (1.0 / r)[:, None] * grid.d1 - np.diag(n**2 / r**2)
    return ModalOperator(n=n, matrix=mat, order=1)


def bilaplacian_n(grid: RadialGrid, n: int) -> ModalOperator:
    """Delta_n^2, composed as a matrix square of the modal Laplacian."""
    L = laplacian_n(grid, n).matrix
    return ModalOperator(n=n, matrix=L @ L, order=2)


@dataclass(frozen=True)
class BoundaryConditionSet:
    """Four boundary rows and the matrix rows they replace.

    Row order matches ``indices``: the replaced rows are the two nearest
    each endpoint (0, 1 at r = b and N-1, N at r = a).
    """

    rows: np.ndarray = field(repr=False)
    indices: tuple[int, ...] = (0, 1, -2, -1)


def navier_slip_bcs(grid: RadialGrid, params: DomainParams,
                    mu: float | None = None) -> BoundaryConditionSet:
    """Dirichlet rows at both radii plus the two second-order rows:

    stress-free outer boundary  Psi'' + Psi'/b = 0 at r = b,
    Navier-slip inner boundary  Psi'' - (1/a - alpha/mu) Psi' = 0 at r = a.
    """
    if mu is None:
        mu = params.mu
    N = grid.N
    rows = np.zeros((4, N + 1))
    rows[0, 0] = 1.0
    rows[1, :] = grid.d2[0, :] + grid.d1[0, :] / grid.b
    rows[2, :] = grid.d2[N, :] - (1.0 / grid.a - params.alpha / mu) * grid.d1[N, :]
    rows[3, N] = 1.0
    rows.setflags(write=False)
    return BoundaryConditionSet(rows=rows)


def dirichlet_bcs(grid: RadialGrid) -> BoundaryConditionSet:
    """Plain Dirichlet rows at r = a and r = b (for second-order solves)."""
    N = grid.N
    rows = np.zeros((2, N + 1))
    rows[0, 0] = 1.0
    rows[1, N] = 1.0
    rows.setflags(write=False)
    return BoundaryConditionSet(rows=rows, indices=(0, -1))


def _impose(matrix: np.ndarray, bcs: BoundaryConditionSet) -> np.ndarray:
    out = matrix.copy()
    out[list(bcs.indices)] = bcs.rows
    return out


def solve_bvp(op: ModalOperator | np.ndarray, rhs: ModalField,
              bcs: BoundaryConditionSet) -> ModalField:
    """Solve op x = rhs with boundary rows substituted into the matrix.

    ``op`` may carry a spectral shift already (e.g. mu Delta_n^2 - 2 lambda
    Delta_n); only its matrix is used. Raises SingularSystem when the
    row-replaced matrix is numerically singular, which typically signals a
    shift sitting on an eigenvalue.
    """
    mat = op.matrix if isinstance(op, ModalOperator) else op
    n = getattr(op, "n", rhs.n)
    A = _impose(mat, bcs)
    f = rhs.values.copy()
    f[list(bcs.indices)] = 0.0
    # row-equilibrate before conditioning: boundary rows are O(1) while
    # interior high-order rows grow like N^8, so the raw condition number
    # reflects row scaling, not proximity to a resonant shift
    scale = np.abs(A).max(axis=1)
    if not np.all(scale > 0):
        raise SingularSystem("operator has an identically zero row")
    As = A / scale[:, None]
    if np.linalg.cond(As) > COND_LIMIT:
        raise SingularSystem(
            "boundary value problem is numerically singular "
            "(shift may sit on an eigenvalue)")
    x = np.linalg.solve(As, f / scale)
    return ModalField(n, x)


def generalized_eig(Aop: ModalOperator, Bop: ModalOperator,
                    bcs: BoundaryConditionSet,
                    cap: float | None = None) -> list[tuple[complex, ModalField]]:
    """Finite eigenpairs of A x = lambda B x with boundary rows on A.

    Boundary rows are substituted into A with companion zero rows on B,
    which parks the spurious pairs at infinity; anything with |lambda|
    above ``cap`` is discarded as row-replacement debris. Eigenvalues are
    returned sorted by descending real part.
    """
    if Aop.n != Bop.n:
        raise GridMismatch("operators built for different wavenumbers")
    A = _impose(Aop.matrix, bcs)
    B = Bop.matrix.copy()
    B[list(bcs.indices)] = 0.0
    try:
        lam, V = sla.eig(A, B)
    except sla.LinAlgError as exc:  # pragma: no cover
        raise EigSolverFailure(str(exc)) from exc
    if cap is None:
        cap = 1e6
    keep = np.isfinite(lam) & (np.abs(lam) < cap)
    if not keep.any():
        raise EigSolverFailure("all eigenvalues filtered as spurious")
    lam, V = lam[keep], V[:, keep]
    order = np.argsort(-lam.real)
    return [(complex(lam[i]), ModalField(Aop.n, V[:, i])) for i in order]


def inner_product(f: ModalField, g: ModalField, grid: RadialGrid) -> complex:
    """L^2 pairing on the annulus in polar form.

    2 pi * integral of f conj(g) r dr when the wavenumbers match; exactly
    zero otherwise (angular orthogonality of e^{i n theta}).
    """
    if len(f) != grid.N + 1 or len(g) != grid.N + 1:
        raise GridMismatch("field length does not match grid")
    if f.n != g.n:
        return 0.0 + 0.0j
    return 2.0 * np.pi * complex(grid.weights @ (f.values * np.conj(g.values)))


def radial_integral(grid: RadialGrid, values: np.ndarray) -> complex:
    """Integral of values(r) r dr over [a, b] by the grid quadrature."""
    return complex(grid.weights @ values)
