import sys

import numpy as np
import pytest

import annuflow as af
from annuflow.bifurcation import DEFAULT_MU_OFFSET
from annuflow.spectral import _cheb_matrix, _cheb_transform


class TestGrid:
    def test_nodes_span_interval(self, grid32):
        assert grid32.nodes[0] == pytest.approx(3.0)
        assert grid32.nodes[-1] == pytest.approx(1.0)
        assert np.all(np.diff(grid32.nodes) < 0)

    def test_too_coarse(self):
        with pytest.raises(af.TooCoarse):
            af.build_grid(1, 3, 4)

    def test_bad_interval(self):
        with pytest.raises(af.GridMismatch):
            af.build_grid(3, 1, 32)

    def test_derivative_exact_on_polynomials(self, grid32):
        r = grid32.nodes
        assert np.allclose(grid32.d1 @ r**5, 5 * r**4, atol=1e-9)
        assert np.allclose(grid32.d2 @ r**5, 20 * r**3, atol=1e-7)

    def test_quadrature_weights_carry_r(self, grid32):
        # weights @ f approximates int f(r) r dr
        assert grid32.weights @ np.ones_like(grid32.nodes) == pytest.approx(4.0)
        assert grid32.weights @ grid32.nodes == pytest.approx(26.0 / 3.0)

    @pytest.mark.parametrize("N", [9, 25, 49, 48])
    def test_quadrature_exact_to_degree_N(self, N):
        # Clenshaw-Curtis on N + 1 nodes integrates degree N exactly; odd N
        # takes the other branch of the weights (measured 4.9e-16 at most)
        g = af.build_grid(1.0, 3.0, N)
        for k in range(N):
            exact = (3.0 ** (k + 2) - 1.0) / (k + 2)
            assert abs(g.weights @ g.nodes**k - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("N", [8, 48, 96])
    def test_cheb_transform_maps_T_k_to_e_k(self, N):
        # the nodes' values of T_k are the k-th unit coefficient vector
        # (measured 6.7e-15 at most, at N = 96)
        x, _ = _cheb_matrix(N)
        transform = _cheb_transform(N)
        assert not transform.flags.writeable
        for k in range(N + 1):
            coeffs = transform @ np.polynomial.chebyshev.Chebyshev.basis(k)(x)
            assert np.abs(coeffs - np.eye(N + 1)[k]).max() <= 1e-13


class TestOperators:
    def test_laplacian_annihilates_harmonics(self, grid64):
        # Delta_n kills r^n and r^{-n}
        r = grid64.nodes
        for n in (1, 2, 3):
            L = af.laplacian_n(grid64, n)
            assert np.abs(L @ r**n).max() < 1e-8 * np.abs(r**n).max()
            assert np.abs(L @ r**(-float(n))).max() < 1e-7

    def test_bilaplacian_kernel_to_grid_accuracy(self, grid64, bilaplacian_n):
        # The four closed-form solutions of Delta_1^2 u = 0 are annihilated
        # to grid accuracy: the matrix has entries ~1e11, so the achievable
        # floor is the rounding of the matrix-vector product, eps * |B| |u|.
        r = grid64.nodes
        B = bilaplacian_n(grid64, 1)
        for u in (r**3, r, r * np.log(r), 1.0 / r):
            floor = np.finfo(float).eps * (np.abs(B) @ np.abs(u)).max()
            assert np.abs(B @ u).max() < 10 * floor


class TestBoundaryRows:
    def test_navier_slip_rows_act_correctly(self, grid32, params135):
        rows = af.navier_slip_bcs(grid32, params135, mu=2.0)
        r = grid32.nodes
        u = r**2  # u'' = 2, u' = 2r
        vals = rows @ u
        assert vals[0] == pytest.approx(9.0)          # u(b) = 9
        assert vals[1] == pytest.approx(2 + 6 / 3.0)  # u'' + u'/b at b
        assert vals[2] == pytest.approx(2 - (1 - 5 / 2.0) * 2)  # slip row at a
        assert vals[3] == pytest.approx(1.0)          # u(a) = 1

    def test_singular_system_detected(self, grid32):
        with pytest.raises(af.SingularSystem):
            af.solve_bvp(np.zeros((grid32.N + 1, grid32.N + 1)),
                         np.ones(grid32.N + 1))

    def test_shift_on_an_eigenvalue_is_singular(self, grid48, params135):
        # the condition estimate is 1.9e15 at the eigenvalue and 7.2e9 at a
        # shift 1e-3 of it away
        p = af.mode_pencil(grid48, params135, 2.0, 1)
        lam = af.generalized_eig(p, 1e6 * 2.0 / 4.0)[0].real
        rhs = np.ones(grid48.N + 1)
        with pytest.raises(af.SingularSystem):
            af.solve_bvp(p.matrix - lam * p.mass, rhs)
        shifted = p.matrix - (lam + 1e-3 * abs(lam)) * p.mass
        x = af.solve_bvp(shifted, rhs)
        rhs[af.BC_ROWS] = 0.0
        assert np.abs(shifted @ x - rhs).max() <= 1e-12 * np.abs(shifted).max()


class TestEigenvector:
    def test_inverse_iteration_is_the_literal_solve_loop(self, grid48, params135,
                                                         monkeypatch):
        # the vector is the literal inverse iteration of numpy's solve on
        # the row-scaled shifted matrix, bit for bit, and neither it nor
        # solve_bvp imports scipy.linalg
        mu = 2.0
        p = af.mode_pencil(grid48, params135, mu, 1)
        lam = af.leading_eigenpair(params135, mu, grid48).lambda1
        shifted = p.matrix - lam * p.mass
        scale = np.abs(shifted).max(axis=1)
        x = np.ones(grid48.N + 1)
        for _ in range(af.spectral.INVERSE_ITERATIONS):
            x = np.linalg.solve(shifted / scale[:, None], (p.mass @ x) / scale)
            x /= np.abs(x).max()
        monkeypatch.setitem(sys.modules, "scipy.linalg", None)
        assert np.array_equal(af.eigenvector(p, lam), x)
        af.solve_bvp(p.matrix - 2.0 * lam * p.mass, np.ones(grid48.N + 1))

    def test_exactly_singular_shift_is_moved(self, grid48, params135, monkeypatch):
        # numpy's solve raises on an exact zero pivot, where LAPACK getrf
        # carries on; such a shift is an eigenvalue to working precision,
        # so the iteration runs once more at a shift a few ulps away
        p = af.mode_pencil(grid48, params135, 2.0, 1)
        lam = af.leading_eigenpair(params135, 2.0, grid48).lambda1
        solve, matrices = np.linalg.solve, []

        def singular_at_lam(a, b):
            matrices.append(a.copy())
            if len(matrices) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_at_lam)
        x = af.eigenvector(p, lam)
        monkeypatch.setattr(np.linalg, "solve", solve)
        assert len(matrices) == 1 + af.spectral.INVERSE_ITERATIONS
        assert not np.array_equal(matrices[0], matrices[1])
        assert np.abs(x - af.eigenvector(p, lam)).max() <= 1e-9

    def test_singular_after_the_move_is_a_solver_failure(self, grid48, params135,
                                                         monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        p = af.mode_pencil(grid48, params135, 2.0, 1)
        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(af.EigSolverFailure, match="singular"):
            af.eigenvector(p, 0.01)


class TestConditionNumber:
    @pytest.mark.parametrize("N", [48, 96])
    @pytest.mark.parametrize("b", [1.05, 3.0, 15.0])
    def test_no_looser_than_gecon(self, b, N, monkeypatch):
        # solve_bvp's condition number is the exact infinity-norm one of
        # the row-scaled matrix, never below LAPACK gecon's estimate of it
        # but for rounding: on these G11 matrices the estimate is the exact
        # norm, and the two computed numbers differ by 3.3e-9 relative at
        # most (2.0e-6 at b/a = 1.01, N = 128, condition number 2.1e12); a
        # COND_LIMIT 1e-4 below the estimate rejects the matrix, and the
        # number is within a factor 10 of the estimate
        import scipy.linalg as sla

        params = af.validate(1.0, b, 5.0)
        grid = af.build_grid(1.0, b, N)
        mu = af.mu_c_closed(params) * (1.0 + DEFAULT_MU_OFFSET)
        lam = af.leading_eigenpair(params, mu, grid).lambda1
        shifted = af.mode_pencil(grid, params, mu, 2).shifted(2.0 * lam)
        scaled = shifted / np.abs(shifted).max(axis=1)[:, None]
        lu, _ = sla.lu_factor(scaled)
        rcond, info = sla.lapack.dgecon(lu, np.abs(scaled).sum(axis=1).max(), norm="I")
        assert info == 0
        rhs = np.ones(grid.N + 1)
        monkeypatch.setattr(af.spectral, "COND_LIMIT", (1.0 - 1e-4) / rcond)
        with pytest.raises(af.SingularSystem):
            af.solve_bvp(shifted, rhs)
        monkeypatch.setattr(af.spectral, "COND_LIMIT", 10.0 / rcond)
        af.solve_bvp(shifted, rhs)

    def test_exactly_singular_matrix_is_a_singular_system(self, grid32):
        # two equal rows: numpy's inverse raises LinAlgError, reported as
        # the typed error
        m = np.eye(grid32.N + 1)
        m[1] = m[2] = 1.0
        with pytest.raises(af.SingularSystem, match="singular"):
            af.solve_bvp(m, np.ones(grid32.N + 1))


class TestModePencil:
    def test_boundary_rows_only_in_bc_rows(self, grid32, params135, bilaplacian_n):
        mu = 2.0
        rows = af.navier_slip_bcs(grid32, params135, mu)
        interior = slice(2, -2)
        for n in (1, 2, 3):
            p = af.mode_pencil(grid32, params135, mu, n)
            assert np.array_equal(p.matrix[af.BC_ROWS], rows)
            assert np.all(p.mass[af.BC_ROWS] == 0.0)
            assert np.array_equal(p.matrix[interior],
                                  (mu * bilaplacian_n(grid32, n))[interior])
            assert np.array_equal(p.mass[interior], af.laplacian_n(grid32, n)[interior])

    @pytest.mark.parametrize("mu", [0.0, -1e-4, np.nan])
    def test_nonpositive_viscosity_rejected(self, grid32, params135, mu):
        # DomainParams holds no viscosity, so the pencil checks the one it is
        # given, also one derived from mu_c (negative where mu_c_closed cancels)
        with pytest.raises(af.InvalidPhysics, match="viscosity"):
            af.mode_pencil(grid32, params135, mu, 1)


class TestInnerProduct:
    def test_r_weighted_value(self, grid32):
        ones = np.ones(grid32.N + 1, complex)
        # int_1^3 r dr = 4
        assert grid32.weights @ (ones * np.conj(ones)) == pytest.approx(4.0)


class TestGeneralizedEig:
    def test_sorted_descending(self, grid48, params135, muc135):
        mu = 2.0
        eigs = af.generalized_eig(af.mode_pencil(grid48, params135, mu, 1),
                                  1e6 * mu / 4.0)
        lams = [lam.real for lam in eigs]
        assert lams == sorted(lams, reverse=True)
        assert all(abs(lam) < 1e6 * mu / 4.0 for lam in eigs)
