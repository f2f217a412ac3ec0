import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

import annuflow as af


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
    l, _ = af.lyapunov_coeff(eig.psi1, mc, grid48)
    return af.classify_and_build(pr, eig, l, mc)


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
    """The literal double sum that the FFT lattice transform must reproduce."""
    return _literal_lattice_sum


def _literal_advection(psi: np.ndarray, grid, K: int) -> np.ndarray:
    """Modes n <= K of -v . grad omega as the literal sum over every mode
    pair (n1, n2), n1 + n2 = n, with n1 and n2 in +-1..M; row n - 1 of
    ``psi`` is the profile of mode n, and rows above K of the result are 0."""
    r, d1 = grid.nodes, grid.d1
    prof, dprof, om, dom = {}, {}, {}, {}
    for n, c in enumerate(psi, start=1):
        o = af.laplacian_n(grid, n) @ c
        prof[n], dprof[n], om[n], dom[n] = c, d1 @ c, o, d1 @ o
        for d in (prof, dprof, om, dom):
            d[-n] = np.conj(d[n])
    out = np.zeros_like(psi)
    for n1 in prof:
        for n2 in prof:
            n = n1 + n2
            if 1 <= n <= K:
                out[n - 1] += 1j * (n1 * prof[n1] / r * dom[n2]
                                    - n2 * dprof[n1] / r * om[n2])
    return out


@pytest.fixture(scope="session")
def advection_reference():
    """The mode-pair convolution that the simulator's FFT advection replaces."""
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
