import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

import annuflow as af
from annuflow.bifurcation import modal_velocity, velocity_factor


def as_planes(rows: np.ndarray) -> np.ndarray:
    """The real (..., 2, nr) planes (real, imaginary part) of complex
    profiles (..., nr), the layout of every set of modes."""
    return np.stack([np.real(rows), np.imag(rows)], axis=-2)


def rows(planes: np.ndarray) -> np.ndarray:
    """The complex (K, N+1) modal rows of real (K, 2, N+1) planes, the
    inverse of as_planes."""
    return planes[:, 0] + 1j * planes[:, 1]


def lattice_velocity(planes: np.ndarray, grid, ntheta: int) -> np.ndarray:
    """(v_r, v_theta) on the (r, theta) lattice of the modes whose planes
    are given (row n - 1 holds mode n), as the field dump forms them: the
    planes of modal_velocity through synthesize_lattice."""
    n = np.arange(1, len(planes) + 1)[:, None]
    return af.synthesize_lattice(
        modal_velocity(planes, grid, velocity_factor(grid, n)), ntheta)


def _row_by_row_field_csv(nodes, theta, fields) -> bytes:
    """A field dump as one "{:.17g}" template formats it, row by row: the
    header, then r, theta and the three (N+1, ntheta) lattices of
    ``fields`` at each (r, theta), r outer, CRLF line ends."""
    r, th = np.meshgrid(nodes, theta, indexing="ij")
    row = ",".join(["{:.17g}"] * 5).format
    lines = ["r,theta,psi,v_r,v_theta"]
    lines += [row(*v) for v in zip(*(c.ravel().tolist() for c in (r, th, *fields)))]
    return ("\r\n".join(lines) + "\r\n").encode()


@pytest.fixture(scope="session")
def field_csv_reference():
    """The per-row formatter whose bytes write_field_csv must reproduce."""
    return _row_by_row_field_csv


@pytest.fixture(scope="session")
def params135():
    return af.validate(1.0, 3.0, 5.0, 1.0)


@pytest.fixture(scope="session")
def muc135(params135):
    return af.mu_c_closed(params135)


@pytest.fixture(scope="session")
def grid64():
    return af.build_grid(1.0, 3.0, 64)


@pytest.fixture(scope="session")
def grid48():
    return af.build_grid(1.0, 3.0, 48)


@pytest.fixture(scope="session")
def grid32():
    return af.build_grid(1.0, 3.0, 32)


@pytest.fixture(scope="session")
def eig_099(params135, muc135, grid48):
    mu = 0.99 * muc135
    pr = af.validate(1.0, 3.0, 5.0, mu)
    return pr, mu, af.leading_eigenpair(pr, mu, grid48)


@pytest.fixture(scope="session")
def report_099(eig_099, grid48):
    pr, mu, eig = eig_099
    mc = af.solve_G11(pr, mu, eig, grid48)
    l = af.lyapunov_coeff(eig.psi1, mc, grid48)
    return af.classify_and_build(pr, eig, l, mc)


def _bilaplacian(grid, n: int) -> np.ndarray:
    """Delta_n^2 as the matrix square of the modal Laplacian."""
    L = af.laplacian_n(grid, n)
    return L @ L


@pytest.fixture(scope="session")
def bilaplacian_n():
    """Delta_n^2, whose interior rows mode_pencil scales by mu."""
    return _bilaplacian


def _literal_lattice_sum(coeffs: np.ndarray, ntheta: int) -> np.ndarray:
    """sum_{n=1}^{M} (c_n e^{i n theta} + c.c.) on the lattice, summed term by
    term over every mode and every angle; row n - 1 of ``coeffs`` is c_n."""
    theta = af.theta_lattice(ntheta)
    out = np.zeros((coeffs.shape[1], ntheta))
    for n, c in enumerate(coeffs, start=1):
        for j in range(ntheta):
            out[:, j] += 2.0 * np.real(c * np.exp(1j * n * theta[j]))
    return out


@pytest.fixture(scope="session")
def lattice_reference():
    """The literal double sum that the lattice transform must reproduce."""
    return _literal_lattice_sum


def _literal_advection(psi: np.ndarray, grid, K: int, dtype=complex) -> np.ndarray:
    """Modes n <= K of -v . grad omega as the literal sum over every mode
    pair (n1, n2), n1 + n2 = n, with n1 and n2 in +-1..len(psi); row n - 1
    of ``psi`` is the profile of mode n, and rows above K of the result are 0.
    The sum runs in ``dtype`` (np.clongdouble for a reference whose own
    rounding stays well below float64's) on the float64 matrices."""
    r, d1 = grid.nodes, grid.d1
    prof, dprof, om, dom = {}, {}, {}, {}
    for n, c in enumerate(np.asarray(psi, dtype), start=1):
        o = af.laplacian_n(grid, n) @ c
        prof[n], dprof[n], om[n], dom[n] = c, d1 @ c, o, d1 @ o
        for d in (prof, dprof, om, dom):
            d[-n] = np.conj(d[n])
    out = np.zeros(psi.shape, dtype)
    for n1 in prof:
        for n2 in prof:
            n = n1 + n2
            if 1 <= n <= K:
                out[n - 1] += 1j * (n1 * prof[n1] / r * dom[n2]
                                    - n2 * dprof[n1] / r * om[n2])
    return out


@pytest.fixture(scope="session")
def advection_reference():
    """The mode-pair convolution that the simulator's lattice advection replaces."""
    return _literal_advection


def _implicit_solve(sim, psi: np.ndarray, force: np.ndarray) -> np.ndarray:
    """The Crank-Nicolson update by one LU solve per mode: row n - 1 solves
    (mass - dt/2 matrix) x = (mass + dt/2 matrix) psi_n + dt force_n with
    mode n's pencil, its boundary rows replaced by the pencil's unit-scale
    rows and their data zeroed."""
    out = np.empty_like(psi)
    for n, (c, f) in enumerate(zip(psi, force), start=1):
        p = af.mode_pencil(sim.grid, sim.params, sim.mu, n)
        lhs = p.mass - 0.5 * sim.dt * p.matrix
        lhs[af.BC_ROWS] = p.matrix[af.BC_ROWS]
        rhs = (p.mass + 0.5 * sim.dt * p.matrix) @ c + sim.dt * f
        rhs[af.BC_ROWS] = 0.0
        out[n - 1] = lu_solve(lu_factor(lhs), rhs)
    return out


@pytest.fixture(scope="session")
def implicit_reference():
    """The per-mode LU solve that the simulator's precomputed propagators replace."""
    return _implicit_solve


def _cell_by_cell_walk(values, xs, ys, level):
    """Marching squares one cell at a time, in row-major order: each cell
    classifies its four corners, builds its edge table and interpolation,
    and splits a saddle by an explicit test of the cell-centre average."""
    def edge_point(p0, p1, f0, f1):
        t = 0.5 if f1 == f0 else (level - f0) / (f1 - f0)
        return (p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1]))

    nr, nt = values.shape
    segs = []
    for i in range(nr - 1):
        for j in range(nt - 1):
            f = (values[i, j], values[i, j + 1], values[i + 1, j + 1], values[i + 1, j])
            p = ((xs[i, j], ys[i, j]), (xs[i, j + 1], ys[i, j + 1]),
                 (xs[i + 1, j + 1], ys[i + 1, j + 1]), (xs[i + 1, j], ys[i + 1, j]))
            code = sum(1 << k for k in range(4) if f[k] > level)
            if code in (0, 15):
                continue
            # edges: 0 between corners 0-1, 1 between 1-2, 2 between 2-3, 3 between 3-0
            def pt(e):
                k0, k1 = e, (e + 1) % 4
                return edge_point(p[k0], p[k1], f[k0], f[k1])
            table = {
                1: [(3, 0)], 2: [(0, 1)], 3: [(3, 1)], 4: [(1, 2)],
                6: [(0, 2)], 7: [(3, 2)], 8: [(2, 3)], 9: [(2, 0)],
                11: [(2, 1)], 12: [(1, 3)], 13: [(1, 0)], 14: [(0, 3)],
            }
            if code in (5, 10):
                center = 0.25 * sum(f)
                if (center > level) == (code == 5):
                    pairs = [(3, 0), (1, 2)]
                else:
                    pairs = [(0, 1), (2, 3)]
            else:
                pairs = table[code]
            for e0, e1 in pairs:
                segs.append((pt(e0), pt(e1)))
    return segs


@pytest.fixture(scope="session")
def marching_reference():
    """The per-cell walk that the table-driven marching_squares replaces."""
    return _cell_by_cell_walk
