import numpy as np
import pytest

import annuflow as af
from annuflow.domain import RATIO_LIMIT, synthesis_table
from conftest import as_planes


class TestValidate:
    def test_accepts_valid(self):
        p = af.validate(1, 3, 5, 2.0)
        assert p.a == 1.0 and p.b == 3.0 and p.alpha == 5.0
        assert p.b / p.a == 3.0

    @pytest.mark.parametrize("a,b", [(1, 1), (3, 1), (0, 1), (-1, 2)])
    def test_bad_geometry(self, a, b):
        with pytest.raises(af.InvalidGeometry):
            af.validate(a, b, 5, 1)

    def test_ratio_limit_is_where_the_fourth_power_overflows(self):
        below = float(np.nextafter(RATIO_LIMIT, 0.0))
        assert np.isfinite(below**4)
        with pytest.raises(OverflowError):
            RATIO_LIMIT**4
        p = af.validate(1.0, below, 5.0)
        assert p.b / p.a == below
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
        phys = af.synthesize_physical(as_planes(coeffs), ntheta)
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
        out = af.synthesize_lattice(as_planes(coeffs), ntheta)
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("n,ntheta", [(3, 5), (5, 8), (2, 3)])
    def test_unresolved_mode_rejected(self, n, ntheta):
        with pytest.raises(af.GridMismatch):
            af.synthesize_lattice(np.ones((n, 2, 3)), ntheta)
        with pytest.raises(af.GridMismatch):
            af.synthesize_lattice(np.ones((4, n, 2, 3)), ntheta)

    def test_as_planes_takes_one_profile_or_a_stack(self):
        c = np.array([1 + 2j, 3 - 4j])
        assert np.array_equal(as_planes(c), [[1.0, 3.0], [2.0, -4.0]])
        assert np.array_equal(as_planes(np.stack([c, 2 * c])),
                              [as_planes(c), as_planes(2 * c)])
        assert as_planes(c.real).dtype == np.float64

    @pytest.mark.parametrize("shape", [(3, 5), (3, 2, 5), (4, 3, 2, 5)])
    def test_complex_rows_rejected(self, shape):
        # a set of modes is real planes, as a simulator state is: complex
        # rows raise, also where their shape would pass as planes
        with pytest.raises(af.GridMismatch):
            af.synthesize_lattice(np.ones(shape, complex), 8)

    @pytest.mark.parametrize("shape", [(3, 5), (3, 1, 5), (3, 3, 5), (4, 3, 3, 5)])
    def test_planes_axis_other_than_2_rejected(self, shape):
        with pytest.raises(af.GridMismatch):
            af.synthesize_lattice(np.ones(shape), 8)

    @pytest.mark.parametrize("ntheta", [4, 7, 8])
    def test_leading_axes_batch_the_transform(self, ntheta, lattice_reference):
        # a batch equals its per-slice calls bit for bit; even lattices
        # populate the Nyquist bin
        rng = np.random.default_rng(ntheta)
        shape = (3, 2, ntheta // 2, 5)
        coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        out = af.synthesize_lattice(as_planes(coeffs), ntheta)
        assert out.shape == (3, 2, 5, ntheta)
        for idx in np.ndindex(3, 2):
            assert np.array_equal(out[idx], af.synthesize_lattice(as_planes(coeffs[idx]), ntheta))
            ref = lattice_reference(coeffs[idx], ntheta)
            assert np.abs(out[idx] - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("ntheta", [4, 7, 8, 33, 64])
    def test_doubled_table_holds_the_table_on_its_even_rows(self, ntheta):
        # n j is reduced mod the lattice size in integers, so the angles a
        # lattice shares with a finer one get the same entries bit for bit
        M = ntheta // 2
        assert np.array_equal(synthesis_table(M, 2 * ntheta)[::2], synthesis_table(M, ntheta))

    @pytest.mark.parametrize("ntheta", [4, 8, 32, 64])
    def test_table_is_orthogonal_on_the_doubled_lattice(self, ntheta):
        # T^T / (2L) inverts the synthesis of the modes below L / 2 on L
        # angles: here L = 2 ntheta, and L = ntheta for the simulator's K
        # modes, whose analysis table reads back the advection this way
        L = 2 * ntheta
        T = synthesis_table(ntheta // 2, L)
        assert np.abs(T.T @ T / (2 * L) - np.eye(ntheta)).max() <= 1e-14
        T = synthesis_table((ntheta - 1) // 3, ntheta)
        assert np.abs(T.T @ T / (2 * ntheta) - np.eye(len(T.T))).max() <= 1e-14

    def test_round_trip_with_analyze(self):
        # the forward real FFT inverts the synthesis below the Nyquist bin:
        # the table product sums the same Fourier series as an inverse FFT
        rng = np.random.default_rng(7)
        ntheta = 32
        coeffs = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        back = np.fft.rfft(af.synthesize_lattice(as_planes(coeffs), ntheta), axis=1) / ntheta
        assert np.allclose(back[:, 0], 0.0, atol=1e-12)
        for n, c in enumerate(coeffs, start=1):
            assert np.allclose(back[:, n], c, atol=1e-12)
