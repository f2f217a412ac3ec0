import numpy as np
import pytest

import annuflow as af


class TestValidate:
    def test_accepts_valid(self):
        p = af.validate(1, 3, 5, 2.0)
        assert p.a == 1.0 and p.b == 3.0 and p.alpha == 5.0 and p.mu == 2.0
        assert p.sigma == 3.0

    @pytest.mark.parametrize("a,b", [(1, 1), (3, 1), (0, 1), (-1, 2)])
    def test_bad_geometry(self, a, b):
        with pytest.raises(af.InvalidGeometry):
            af.validate(a, b, 5, 1)

    @pytest.mark.parametrize("alpha,mu", [(0, 1), (-1, 1), (5, 0), (5, -2),
                                          (np.nan, 1), (5, np.inf)])
    def test_bad_physics(self, alpha, mu):
        with pytest.raises(af.InvalidPhysics):
            af.validate(1, 3, alpha, mu)


class TestModalField:
    def test_conj_flips_wavenumber(self):
        f = af.ModalField(2, np.array([1 + 2j, 3.0]))
        g = f.conj()
        assert g.n == -2
        assert np.allclose(g.values, [1 - 2j, 3.0])

    def test_values_read_only(self):
        f = af.ModalField(1, np.zeros(3))
        with pytest.raises(ValueError):
            f.values[0] = 1.0


class TestSynthesize:
    def test_lone_mode_gives_cosine(self):
        f = af.ModalField(1, np.ones(4))
        phys = af.synthesize_physical([f], 16)
        theta = af.theta_lattice(16)
        assert np.allclose(phys.values, np.cos(theta)[None, :])

    @pytest.mark.parametrize("n,ntheta", [(2, 32), (2, 4), (3, 7)])
    def test_explicit_pair_sums_literally(self, n, ntheta):
        # (2, 4) puts the pair on the Nyquist bin, (3, 7) on the top bin of
        # an odd lattice, which has none
        c = np.array([0.3 + 0.4j])
        f = af.ModalField(n, c)
        phys = af.synthesize_physical([f, f.conj()], ntheta)
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
        f = af.ModalField(n, np.ones(3))
        with pytest.raises(af.GridMismatch):
            af.synthesize_physical([f, f.conj()], ntheta)
        with pytest.raises(af.GridMismatch):
            af.synthesize_lattice(np.ones((n, 3)), ntheta)

    def test_non_conjugate_pair_rejected(self):
        f = af.ModalField(1, np.array([1.0 + 1j]))
        g = af.ModalField(-1, np.array([2.0]))
        with pytest.raises(af.GridMismatch):
            af.synthesize_physical([f, g], 8)

    def test_mismatched_grids_rejected(self):
        with pytest.raises(af.GridMismatch):
            af.synthesize_physical(
                [af.ModalField(1, np.ones(3)), af.ModalField(2, np.ones(4))], 8)

    def test_round_trip_with_analyze(self):
        rng = np.random.default_rng(7)
        modes = [af.ModalField(n, rng.normal(size=5) + 1j * rng.normal(size=5))
                 for n in (1, 2, 3)]
        phys = af.synthesize_physical(modes, 32)
        back = af.analyze_modal(phys, 3)
        assert np.allclose(back[0].values, 0.0, atol=1e-12)
        for orig, rec in zip(modes, back[1:]):
            assert rec.n == orig.n
            assert np.allclose(rec.values, orig.values, atol=1e-12)
