import numpy as np
import pytest

import annuflow as af
from annuflow.bifurcation import lyapunov_coeff_full, lyapunov_coeff_plain


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
        norm = af.radial_integral(grid48, np.abs(eig.psi1.values) ** 2).real
        assert norm == pytest.approx(1.0, rel=1e-12)
        slope = grid48.d1[grid48.N, :] @ eig.psi1.values
        assert slope.real > 0
        assert abs(slope.imag) < 1e-9 * abs(slope.real)

    def test_eigenfunction_satisfies_bcs(self, eig_099, grid48):
        pr, mu, eig = eig_099
        rows = af.navier_slip_bcs(grid48, pr, mu=mu)
        assert np.abs(rows @ eig.psi1.values).max() < 1e-8

    def test_grid_convergence(self, muc135, grid48, grid64):
        mu = 1.2
        pr = af.validate(1, 3, 5, mu)
        l48 = af.leading_eigenpair(pr, mu, grid48).lambda1
        l64 = af.leading_eigenpair(pr, mu, grid64).lambda1
        assert l48 == pytest.approx(l64, abs=1e-8)


class TestInteraction:
    def test_wavenumbers_add(self, grid32):
        f = af.ModalField(1, grid32.nodes.astype(complex))
        g = af.ModalField(2, (grid32.nodes ** 2).astype(complex))
        assert af.interaction(f, g, grid32).n == 3

    def test_vanishes_on_harmonic_second_argument(self, grid32):
        # Delta_2 r^2 = 0, so the advected vorticity is zero
        f = af.ModalField(1, np.sin(grid32.nodes).astype(complex))
        g = af.ModalField(2, (grid32.nodes ** 2).astype(complex))
        out = af.interaction(f, g, grid32)
        assert np.abs(out.values).max() < 1e-6

    def test_grid_mismatch(self, grid32):
        f = af.ModalField(1, np.ones(5, complex))
        with pytest.raises(af.GridMismatch):
            af.interaction(f, f, grid32)


class TestManifold:
    def test_g11_satisfies_bcs(self, eig_099, grid48):
        pr, mu, eig = eig_099
        g11 = af.solve_G11(pr, mu, eig, grid48)
        rows = af.navier_slip_bcs(grid48, pr, mu=mu)
        scale = np.abs(g11.values).max()
        assert np.abs(rows @ g11.values).max() < 1e-8 * max(scale, 1.0)
        assert g11.n == 2

    def test_g11_solves_shifted_equation(self, eig_099, grid48):
        pr, mu, eig = eig_099
        g11 = af.solve_G11(pr, mu, eig, grid48)
        L2 = af.laplacian_n(grid48, 2)
        lhs = mu * (L2 @ L2) @ g11.values - 2 * eig.lambda1 * L2 @ g11.values
        rhs = -af.interaction(eig.psi1, eig.psi1, grid48).values
        interior = slice(4, grid48.N - 3)
        assert np.allclose(lhs[interior], rhs[interior],
                           atol=1e-6 * np.abs(rhs[interior]).max())


class TestLyapunovCoefficient:
    def test_negative_at_reference_point(self, eig_099, report_099):
        assert report_099.l < 0
        assert report_099.classification is af.Classification.SUPERCRITICAL

    def test_imaginary_residue_small(self, eig_099, grid48):
        pr, mu, eig = eig_099
        mc = af.solve_G11(pr, mu, eig, grid48)
        l, resid = lyapunov_coeff_full(eig.psi1, mc, grid48)
        assert abs(resid) < 1e-8 * abs(l)

    def test_plain_pairing_same_sign(self, eig_099, grid48):
        pr, mu, eig = eig_099
        mc = af.solve_G11(pr, mu, eig, grid48)
        l_plain = lyapunov_coeff_plain(eig.psi1, mc, grid48)
        l_energy = af.lyapunov_coeff(eig.psi1, mc, grid48)
        assert np.sign(l_plain) == np.sign(l_energy)

    def test_resolution_stable(self, muc135, grid48, grid64):
        mu = 0.99 * muc135
        pr = af.validate(1, 3, 5, mu)
        ls = []
        for grid in (grid48, grid64):
            eig = af.leading_eigenpair(pr, mu, grid)
            mc = af.solve_G11(pr, mu, eig, grid)
            ls.append(af.lyapunov_coeff(eig.psi1, mc, grid))
        assert ls[0] == pytest.approx(ls[1], rel=1e-6)


class TestClassification:
    def test_degenerate_raises(self, eig_099):
        pr, mu, eig = eig_099
        g11 = af.ModalField(2, np.zeros(5, complex))
        with pytest.raises(af.DegenerateCoefficient):
            af.classify_and_build(pr, mu, eig, 0.0, g11)

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
        c = 1.7 * np.exp(0.3j)
        scaled = af.EigenResult(lambda1=eig.lambda1,
                                psi1=af.ModalField(1, c * eig.psi1.values), mu=mu)
        mc = af.solve_G11(pr, mu, scaled, grid48)
        l = af.lyapunov_coeff(scaled.psi1, mc, grid48)
        rep2 = af.classify_and_build(pr, mu, scaled, l, mc)
        f1 = report_099.psi_s(report_099.amplitude, 64).values
        # the scaled eigenvector carries an extra phase angle(c) that the
        # family parameter must cancel
        f2 = rep2.psi_s(rep2.amplitude * np.exp(-1j * np.angle(c)), 64).values
        assert np.abs(f1 - f2).max() < 1e-8 * np.abs(f1).max()

    @pytest.mark.parametrize("ntheta", [4, 7, 64])
    def test_velocity_matches_literal_sum(self, report_099, grid48, ntheta,
                                          lattice_reference):
        rep = report_099
        s = rep.amplitude * np.exp(0.4j)
        c = np.array([s * rep.psi1.values, s**2 * rep.g11.values])
        n = np.array([[1], [2]])
        vr, vt = rep.velocity(s, grid48, ntheta)
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
        vr, vt = rep.velocity(rep.amplitude, grid48, ntheta)
        r = grid48.nodes
        term1 = grid48.d1 @ (r[:, None] * vr)
        k = np.fft.fftfreq(ntheta, 1.0 / ntheta)
        term2 = np.real(np.fft.ifft(1j * k * np.fft.fft(vt, axis=1), axis=1))
        scale = np.abs(term1).max() + np.abs(term2).max()
        assert np.abs(term1 + term2).max() < 1e-8 * max(scale, 1.0)
