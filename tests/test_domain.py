import numpy as np
import pytest

import annuflow as af
from annuflow.domain import RATIO_LIMIT


class TestValidate:
    def test_accepts_valid(self):
        p = af.validate(1, 3, 5, 2.0)
        assert p.a == 1.0 and p.b == 3.0 and p.alpha == 5.0
        assert p.sigma == 3.0

    @pytest.mark.parametrize("a,b", [(1, 1), (3, 1), (0, 1), (-1, 2)])
    def test_bad_geometry(self, a, b):
        with pytest.raises(af.InvalidGeometry):
            af.validate(a, b, 5, 1)

    def test_ratio_limit_is_where_the_fourth_power_overflows(self):
        below = float(np.nextafter(RATIO_LIMIT, 0.0))
        assert np.isfinite(below**4)
        with pytest.raises(OverflowError):
            RATIO_LIMIT**4
        assert af.validate(1.0, below, 5.0).sigma == below
        with pytest.raises(af.InvalidGeometry):
            af.validate(1.0, RATIO_LIMIT, 5.0)

    @pytest.mark.parametrize("alpha,mu", [(0, 1), (-1, 1), (5, 0), (5, -2),
                                          (np.nan, 1), (5, np.inf)])
    def test_bad_physics(self, alpha, mu):
        with pytest.raises(af.InvalidPhysics):
            af.validate(1, 3, alpha, mu)


class TestModalField:
    def test_values_read_only(self, eig_099, report_099):
        _, _, eig = eig_099
        for profile in (eig.psi1, report_099.g11):
            with pytest.raises(ValueError):
                profile[0] = 1.0


class TestSynthesize:
    @pytest.mark.parametrize("n,ntheta", [(2, 32), (2, 4), (3, 7)])
    def test_explicit_pair_sums_literally(self, n, ntheta):
        # (2, 4) puts the pair on the Nyquist bin, (3, 7) on the top bin of
        # an odd lattice, which has none
        c = np.array([0.3 + 0.4j])
        coeffs = np.zeros((n, 1), complex)
        coeffs[n - 1] = c
        phys = af.synthesize_physical(coeffs, ntheta)
        theta = af.theta_lattice(ntheta)
        expected = 2 * np.real(c[0] * np.exp(1j * n * theta))
        assert np.allclose(phys.values[0], expected)

    @pytest.mark.parametrize("ntheta", [4, 7, 8, 64])
    def test_lattice_transform_matches_literal_sum(self, ntheta, lattice_reference):
        # every resolvable mode populated, so even lattices fill the Nyquist bin
        rng = np.random.default_rng(ntheta)
        M = ntheta // 2
        coeffs = rng.normal(size=(M, 5)) + 1j * rng.normal(size=(M, 5))
        ref = lattice_reference(coeffs, ntheta)
        out = af.synthesize_lattice(coeffs, ntheta)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("n,ntheta", [(3, 5), (5, 8), (2, 3)])
    def test_unresolved_mode_rejected(self, n, ntheta):
        with pytest.raises(af.GridMismatch):
            af.synthesize_lattice(np.ones((n, 3)), ntheta)

    def test_round_trip_with_analyze(self):
        # the forward real FFT inverts the synthesis below the Nyquist bin,
        # which Simulator.step relies on to read back the advection
        rng = np.random.default_rng(7)
        ntheta = 32
        coeffs = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        back = np.fft.rfft(af.synthesize_lattice(coeffs, ntheta), axis=1) / ntheta
        assert np.allclose(back[:, 0], 0.0, atol=1e-12)
        for n, c in enumerate(coeffs, start=1):
            assert np.allclose(back[:, n], c, atol=1e-12)
