import tracemalloc

import numpy as np
import pytest

import annuflow as af
from annuflow.bifurcation import modal_velocity, mode_kinetic_energy, velocity_factor
from conftest import as_planes, lattice_velocity


class TestLeadingEigenpair:
    def test_zero_crossing_at_mu_c(self, params135, muc135, grid64):
        pr = af.validate(1, 3, 5, muc135)
        eig = af.leading_eigenpair(pr, muc135, grid64)
        assert abs(eig.lambda1) < 1e-5

    def test_exchange_of_stability(self, params135, muc135, grid64):
        for factor, sign in ((0.9, 1), (1.1, -1)):
            mu = factor * muc135
            pr = af.validate(1, 3, 5, mu)
            eig = af.leading_eigenpair(pr, mu, grid64)
            assert np.sign(eig.lambda1) == sign

    def test_eigenvalue_decreasing_in_mu(self, muc135, grid64):
        h = 1e-3 * muc135
        lams = []
        for mu in (muc135 - h, muc135 + h):
            pr = af.validate(1, 3, 5, mu)
            lams.append(af.leading_eigenpair(pr, mu, grid64).lambda1)
        assert (lams[1] - lams[0]) / (2 * h) < 0

    def test_normalization(self, eig_099, grid48):
        _, _, eig = eig_099
        norm = grid48.weights @ np.abs(eig.psi1) ** 2
        assert norm == pytest.approx(1.0, rel=1e-12)
        assert grid48.d1[grid48.N, :] @ eig.psi1 > 0

    @pytest.mark.parametrize("psi", [np.full(49, 1 + 0.5j), np.ones((2, 49))],
                             ids=["complex", "2-D"])
    def test_eigen_result_takes_a_real_profile(self, psi):
        # a complex Psi_1 would lose its imaginary part where it is written
        # into a plane (init_from_mode), so it is refused where it enters
        with pytest.raises(af.GridMismatch):
            af.EigenResult(lambda1=0.1, psi1=psi, mu=1.0)

    def test_eigenfunction_satisfies_bcs(self, eig_099, grid48):
        pr, mu, eig = eig_099
        rows = af.navier_slip_bcs(grid48, pr, mu=mu)
        assert np.abs(rows @ eig.psi1).max() < 1e-8

    def test_grid_convergence(self, muc135, grid48, grid64):
        mu = 1.2
        pr = af.validate(1, 3, 5, mu)
        l48 = af.leading_eigenpair(pr, mu, grid48).lambda1
        l64 = af.leading_eigenpair(pr, mu, grid64).lambda1
        assert l48 == pytest.approx(l64, abs=1e-8)

    @pytest.mark.parametrize("b,alpha", [(3, 5), (9, 9)])
    def test_resolution_keeps_lambda1_digits(self, b, alpha):
        """At 0.9999 mu_c, N = 64, 96 and 128 agree with N = 48 to 8e-11
        relative at most; with QZ's eigenvector instead of inverse
        iteration's, N = 128 was off by 3.0e-8 at b = 3 and 7.0e-7 at b = 9."""
        pr = af.validate(1, b, alpha)
        mu = 0.9999 * af.mu_c_closed(pr)
        ref = af.leading_eigenpair(pr, mu, af.build_grid(1, b, 48)).lambda1
        for N in (64, 96, 128):
            lam = af.leading_eigenpair(pr, mu, af.build_grid(1, b, N)).lambda1
            assert lam == pytest.approx(ref, rel=1e-9, abs=0), N


class TestEnergyFunctionals:
    def test_mode_energies_match_complex_fields(self, params135, grid48):
        # the literal fields v = (-i n psi / r, psi') and their gradient
        rng = np.random.default_rng(3)
        psi = rng.standard_normal((4, 49)) + 1j * rng.standard_normal((4, 49))
        n = np.arange(1, 5)[:, None]
        r, d1, w = grid48.nodes, grid48.d1, grid48.weights
        vr = -1j * n * psi / r
        vt = psi @ d1.T
        grads = (vr @ d1.T, vt @ d1.T, (1j * n * vr - vt) / r,
                 (1j * n * vt + vr) / r)
        E3 = (np.abs(vr) ** 2 + np.abs(vt) ** 2) @ w
        E1 = sum(np.abs(g) ** 2 for g in grads) @ w + np.abs(vt[:, 0]) ** 2
        E2 = params135.a * np.abs(vt[:, -1]) ** 2
        for got, ref in zip(af.bifurcation.mode_energies(
                params135, as_planes(psi), grid48, velocity_factor(grid48, n)), (E3, E1, E2)):
            assert np.allclose(got, ref, rtol=1e-13, atol=0)

    def test_lattice_velocity_carries_the_kinetic_energy(self, params135, grid48):
        # the lattice quadrature of the field dump's velocity is the energy
        # functional 4 pi sum_n E3 of the same modal rows while the lattice
        # resolves |v|^2, whose modes reach 2M; at 2M angles the lattice
        # sees only the real part of the top mode (1.7e-2 apart here)
        M = 5
        rng = np.random.default_rng(5)
        c = rng.standard_normal((M, 49)) + 1j * rng.standard_normal((M, 49))
        n = np.arange(1, M + 1)[:, None]
        E3 = 4.0 * np.pi * af.bifurcation.mode_energies(
            params135, as_planes(c), grid48, velocity_factor(grid48, n))[0].sum()

        def gap(ntheta):
            vr, vt = lattice_velocity(as_planes(c), grid48, ntheta)
            quad = grid48.weights @ (vr**2 + vt**2).sum(axis=1) * 2 * np.pi / ntheta
            return abs(quad - E3) / E3

        for ntheta in (2 * M + 1, 2 * M + 2, 4 * M):
            assert gap(ntheta) <= 1e-13, ntheta
        assert gap(2 * M) > 1e-6

    def test_energy_pencil_is_the_rayleigh_quotient(self, params135, muc135,
                                                    grid48):
        # on a profile vanishing at both radii, the pencil's quadratic forms
        # are energy_rayleigh's numerator and denominator; summed in another
        # order, the second-derivative field rounds differently (7e-11)
        bf = af.bifurcation
        psi = np.sin(np.pi * (grid48.nodes - 1.0) / 2.0) * grid48.nodes
        psi[[0, -1]] = 0.0
        A, B = bf.energy_pencil(params135, muc135, grid48)
        x = psi[1:-1]
        assert (x @ A @ x) / (x @ B @ x) == pytest.approx(
            bf.energy_rayleigh(params135, muc135, psi, grid48),
            rel=1e-9)
        assert np.allclose(A, A.T, rtol=0, atol=1e-12 * np.abs(A).max())

    @pytest.mark.parametrize("N", (48, 96))
    @pytest.mark.parametrize("b", (1.05, 3, 15))
    def test_energy_pencil_grams_are_the_functionals(self, b, N):
        # the pencil's quadratic forms on psi = [0, x, 0] are mode_energies'
        # functionals of psi; at mu_c they agree to 7.3e-15 (E3) and 1.3e-14
        # (E1, E2) relative at most
        params = af.validate(1, b, 5)
        mu = af.mu_c_closed(params)
        grid = af.build_grid(1, b, N)
        x = np.random.default_rng(N).standard_normal((4, N - 1))
        psi = np.pad(x, ((0, 0), (1, 1)))
        A, B = af.bifurcation.energy_pencil(params, mu, grid)
        E3, E1, E2 = af.bifurcation.mode_energies(params, as_planes(psi), grid,
                                                  velocity_factor(grid, 1))
        slip = params.alpha - mu / params.a
        assert np.allclose(np.einsum("ki,ij,kj->k", x, B, x), E3,
                           rtol=1e-13, atol=0)
        assert np.all(np.abs(np.einsum("ki,ij,kj->k", x, A, x)
                             - (-mu * E1 + slip * E2))
                      <= 1e-13 * (mu * E1 + abs(slip) * E2))

    def test_energy_pencil_allocates_no_stacked_fields(self):
        # one call's peak, in units of an (N+1)^2 float array, reads 6.75
        # with one Gram product per field; stacking the six fields into one
        # array before the product reads 14.6
        params = af.validate(1, 3, 5)
        mu = af.mu_c_closed(params)
        grid = af.build_grid(1, 3, 96)
        af.bifurcation.energy_pencil(params, mu, grid)
        tracemalloc.start()
        try:
            af.bifurcation.energy_pencil(params, mu, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 97**2 * 8


class TestInteraction:
    def test_wavenumbers_add(self, report_099, grid48, advection_reference):
        # the reduction's quadratic terms are modes 2 (= 1 + 1) and
        # 1 (= -1 + 2) of the simulator's advection of the rows
        # [psi1, G11] = [psi1, i g], summed in long double: G(psi1, psi1)
        # = i h, and the cross terms, with G11 = i g, are -h. Relative to
        # the reference's max, the vector-form Delta_n reads 1.1e-12 (quad)
        # and 4.7e-13 (cross), the matrix form 1.2e-12 and 2.8e-13; n in
        # place of n^2 in Delta_n reads 6.0e-3 (cross), and a flipped sign
        # of one of h's terms 2.0 (quad)
        psi1, g = report_099.psi1, report_099.g11
        ref = advection_reference(np.array([psi1, 1j * g]), grid48, 2,
                                  dtype=np.clongdouble)
        quad = 1j * af.interaction(psi1, 1, psi1, 1, grid48)
        cross = -(af.interaction(psi1, -1, g, 2, grid48)
                  + af.interaction(g, 2, psi1, -1, grid48))
        scale = np.abs(ref).max()
        assert np.abs(quad - ref[1]).max() <= 5e-12 * scale
        assert np.abs(cross - ref[0]).max() <= 5e-12 * scale

    def test_vanishes_on_harmonic_second_argument(self, grid32):
        # Delta_2 r^2 = 0, so the advected vorticity is zero
        out = af.interaction(np.sin(grid32.nodes), 1, grid32.nodes ** 2, 2, grid32)
        assert np.abs(out).max() < 1e-6

    def test_grid_mismatch(self, grid32):
        f = np.ones(5)
        with pytest.raises(af.GridMismatch):
            af.interaction(f, 1, f, 1, grid32)

    @pytest.mark.parametrize("which", [0, 1])
    def test_complex_profile_rejected(self, grid32, which):
        # the reduction is real: a complex operand would lose its imaginary
        # part in the G11 solve, so it is refused, in lyapunov_coeff too
        ops = [np.ones(grid32.N + 1), np.ones(grid32.N + 1)]
        ops[which] = ops[which] * (1 + 0.5j)
        with pytest.raises(af.GridMismatch):
            af.interaction(ops[0], 1, ops[1], 1, grid32)
        with pytest.raises(af.GridMismatch):
            af.lyapunov_coeff(*ops, grid32)


class TestManifold:
    def test_g11_satisfies_bcs(self, eig_099, grid48):
        pr, mu, eig = eig_099
        g11 = af.solve_G11(pr, mu, eig, grid48)
        rows = af.navier_slip_bcs(grid48, pr, mu=mu)
        scale = np.abs(g11).max()
        assert np.abs(rows @ g11).max() < 1e-8 * max(scale, 1.0)
        assert g11.shape == (grid48.N + 1,)

    def test_g11_solves_shifted_equation(self, eig_099, grid48):
        pr, mu, eig = eig_099
        g11 = af.solve_G11(pr, mu, eig, grid48)
        L2 = af.laplacian_n(grid48, 2)
        lhs = mu * (L2 @ L2) @ g11 - 2 * eig.lambda1 * L2 @ g11
        rhs = -af.interaction(eig.psi1, 1, eig.psi1, 1, grid48)
        interior = slice(4, grid48.N - 3)
        assert np.allclose(lhs[interior], rhs[interior],
                           atol=1e-6 * np.abs(rhs[interior]).max())

    @pytest.mark.parametrize("b,N,singular", [
        (1.001, 48, True), (1.01, 96, True), (1.001, 24, False), (1.01, 48, False)])
    def test_thin_gap_at_mu_c_singular_as_n_grows(self, b, N, singular):
        # the G11 matrix at mu_c loses conditioning as N grows in thin gaps
        # (its condition number rises past COND_LIMIT), which the exact
        # condition number of numpy's inverse reports as gecon's estimate did
        params = af.validate(1.0, b, 5.0)
        mu, grid = af.mu_c_closed(params), af.build_grid(1.0, b, N)
        if singular:
            with pytest.raises(af.SingularSystem):
                af.bifurcation_report(params, mu, grid)
        else:
            assert af.bifurcation_report(params, mu, grid).l < 0


class TestLyapunovCoefficient:
    def test_negative_at_reference_point(self, eig_099, report_099):
        assert report_099.l < 0
        assert report_099.classification is af.Classification.SUPERCRITICAL

    def test_reduction_is_real(self, report_099):
        assert report_099.psi1.dtype == report_099.g11.dtype == np.float64
        assert type(report_099.l) is float

    def test_denominator_is_the_kinetic_energy(self, report_099, grid48):
        # <Psi_1, Psi_1> is Psi_1's E3, the one mode_kinetic_energy; the
        # Laplacian form -int (Delta_1 Psi_1) Psi_1 r dr, equal by parts,
        # agrees to rounding
        psi, g = report_099.psi1, report_099.g11
        num = grid48.weights @ ((af.interaction(psi, -1, g, 2, grid48)
                                 + af.interaction(g, 2, psi, -1, grid48)) * psi)
        planes = np.stack([psi, np.zeros_like(psi)])
        E3 = mode_kinetic_energy(modal_velocity(planes, grid48, velocity_factor(grid48, 1)),
                                 grid48)
        assert report_099.l == num / E3
        by_parts = -(grid48.weights @ ((af.laplacian_n(grid48, 1) @ psi) * psi))
        assert E3 == pytest.approx(by_parts, rel=1e-12)

    def test_resolution_stable(self, muc135, grid48, grid64):
        mu = 0.99 * muc135
        pr = af.validate(1, 3, 5, mu)
        ls = []
        for grid in (grid48, grid64):
            eig = af.leading_eigenpair(pr, mu, grid)
            mc = af.solve_G11(pr, mu, eig, grid)
            ls.append(af.lyapunov_coeff(eig.psi1, mc, grid))
        assert ls[0] == pytest.approx(ls[1], rel=1e-6)

    def test_odd_N_matches_even(self, params135, muc135, grid48):
        # N = 49 takes the odd branch of the quadrature weights; at bifurcate's
        # default mu the reports agree to 6.0e-12 (lambda1) and 7.6e-11 (l)
        mu = muc135 * (1.0 - 1e-4)
        even = af.bifurcation_report(params135, mu, grid48)
        odd = af.bifurcation_report(params135, mu, af.build_grid(1.0, 3.0, 49))
        assert odd.lambda1 == pytest.approx(even.lambda1, rel=1e-10)
        assert odd.l == pytest.approx(even.l, rel=1e-9)


class TestClassification:
    def test_degenerate_raises(self, eig_099):
        pr, mu, eig = eig_099
        g11 = np.zeros(5)
        with pytest.raises(af.DegenerateCoefficient):
            af.classify_and_build(pr, eig, 0.0, g11)

    @pytest.mark.parametrize("a", [1.0, 2.0])
    @pytest.mark.parametrize("alpha", [5.0, 1e6])
    def test_dead_zone_takes_the_scale_of_l(self, eig_099, a, alpha):
        # l scales as 1 / (alpha a^5) at fixed b/a, and the dead zone with it
        _, _, eig = eig_099
        pr = af.validate(a, 3 * a, alpha)
        tol = 1e-10 / (alpha * a * (2 * a) ** 4)
        g11 = np.zeros(5)
        for sign in (-1.0, 1.0):
            with pytest.raises(af.DegenerateCoefficient):
                af.classify_and_build(pr, eig, sign * 0.5 * tol, g11)
            rep = af.classify_and_build(pr, eig, sign * 2.0 * tol, g11)
            assert rep.classification is (af.Classification.SUPERCRITICAL
                                          if sign < 0 else
                                          af.Classification.SUBCRITICAL)

    def test_amplitude_from_rate_ratio(self, eig_099, report_099):
        _, _, eig = eig_099
        assert report_099.amplitude == pytest.approx(
            np.sqrt(-eig.lambda1 / report_099.l))

    def test_no_amplitude_on_wrong_side(self, muc135, grid48):
        mu = 1.05 * muc135
        pr = af.validate(1, 3, 5, mu)
        rep = af.bifurcation_report(pr, mu, grid48)
        assert rep.lambda1 < 0 and rep.l < 0
        assert rep.amplitude is None


class TestBifurcatedState:
    def test_rotational_family(self, report_099, grid48):
        # psi_s at phase-rotated s equals the rotated field
        rep = report_099
        s = rep.amplitude
        ntheta = 64
        base = rep.psi_s(s, ntheta).values
        shift = ntheta // 4  # theta0 = pi/2
        # psi_s(s e^{i theta0}) evaluated at theta_j equals psi_s(s) at
        # theta_j + theta0, i.e. the lattice rolled backwards
        rot = rep.psi_s(s * np.exp(1j * np.pi / 2), ntheta).values
        assert np.abs(np.roll(base, -shift, axis=1) - rot).max() < 1e-8

    def test_normalization_invariance(self, eig_099, grid48, report_099):
        # rescaling the eigenfunction must not change the physical state
        pr, mu, eig = eig_099
        c = -1.7
        scaled = af.EigenResult(lambda1=eig.lambda1,
                                psi1=c * eig.psi1, mu=mu)
        mc = af.solve_G11(pr, mu, scaled, grid48)
        l = af.lyapunov_coeff(scaled.psi1, mc, grid48)
        rep2 = af.classify_and_build(pr, scaled, l, mc)
        f1 = report_099.psi_s(report_099.amplitude, 64).values
        # Psi_1 is real, so the scaled eigenvector's only extra phase is
        # the sign of c, which the family parameter must cancel
        f2 = rep2.psi_s(np.sign(c) * rep2.amplitude, 64).values
        assert np.abs(f1 - f2).max() < 1e-8 * np.abs(f1).max()

    @pytest.mark.parametrize("ntheta", [4, 7, 64])
    def test_velocity_matches_literal_sum(self, report_099, grid48, ntheta,
                                          lattice_reference):
        rep = report_099
        s = rep.amplitude * np.exp(0.4j)
        c = np.array([s * rep.psi1, s**2 * 1j * rep.g11])
        n = np.array([[1], [2]])
        vr, vt = lattice_velocity(rep.coeffs(s), grid48, ntheta)
        ref_r = lattice_reference(-1j * n * c / grid48.nodes, ntheta)
        ref_t = lattice_reference(np.array([grid48.d1 @ ck for ck in c]), ntheta)
        assert np.abs(vr - ref_r).max() <= 1e-13 * np.abs(ref_r).max()
        assert np.abs(vt - ref_t).max() <= 1e-13 * np.abs(ref_t).max()
        psi = rep.psi_s(s, ntheta).values
        ref = lattice_reference(c, ntheta)
        assert np.abs(psi - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_velocity_divergence_free(self, report_099, grid48):
        # incompressibility in polar form: d(r v_r)/dr + d v_theta/d theta = 0
        rep = report_099
        ntheta = 64
        vr, vt = lattice_velocity(rep.coeffs(rep.amplitude), grid48, ntheta)
        r = grid48.nodes
        term1 = grid48.d1 @ (r[:, None] * vr)
        k = np.fft.fftfreq(ntheta, 1.0 / ntheta)
        term2 = np.real(np.fft.ifft(1j * k * np.fft.fft(vt, axis=1), axis=1))
        scale = np.abs(term1).max() + np.abs(term2).max()
        assert np.abs(term1 + term2).max() < 1e-8 * max(scale, 1.0)
