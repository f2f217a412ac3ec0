import numpy as np
import pytest
from mpmath import mp

import annuflow as af


class TestClosedForm:
    def test_reference_value(self, params135):
        assert af.mu_c_closed(params135) == pytest.approx(1.3404, abs=2e-4)

    def test_scales_linearly_in_alpha(self):
        m1 = af.mu_c_closed(af.validate(1, 3, 5, 1))
        m2 = af.mu_c_closed(af.validate(1, 3, 10, 1))
        assert m2 == pytest.approx(2 * m1, rel=1e-14)

    def test_scale_invariance_in_a(self):
        # mu_c depends on (a alpha, sigma) only
        m1 = af.mu_c_closed(af.validate(1, 3, 5, 1))
        m2 = af.mu_c_closed(af.validate(2, 6, 2.5, 1))
        assert m2 == pytest.approx(m1, rel=1e-14)

    def test_thin_and_wide_gaps_match_mpmath(self):
        """Within 1e-11 of the closed form at 50 digits for (b - a)/a from
        1e-12 to 1e4, the switch-over to the thin-gap series included; the
        float64 closed form alone is 65 times off at 1e-6 and returns
        a alpha / 2 = 2.5 at (1, 1.000000001, 5)."""
        gaps = np.concatenate([np.logspace(-12, 4, 161),
                               np.linspace(0.9, 1.1, 21) * af.critical.THIN_GAP])
        with mp.workdps(50):
            for a in (1.0, 0.37, 2.5):
                for gap in gaps:
                    b = a + a * gap
                    s = mp.mpf(b) / mp.mpf(a)
                    ref = a * 5 * (1 + 3 * s**4 - 4 * s**2 - 4 * s**4 * mp.log(s)) / (
                        2 * (s**4 - 1 - 4 * s**4 * mp.log(s)))
                    got = af.mu_c_closed(af.validate(a, b, 5))
                    assert abs(got - ref) / ref < 1e-11, (a, gap)
        b = 1.000000001
        thin = af.mu_c_closed(af.validate(1, b, 5))
        assert thin == pytest.approx(5 * (b - 1) / 3, rel=1e-8, abs=0)


class TestOracle:
    def test_agrees_with_closed_form(self, params135):
        muc = af.mu_c_closed(params135)
        assert abs(af.mu_c_oracle(params135) - muc) / muc < 1e-8

    def test_randomized_agreement(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            a = rng.uniform(1, 9)
            b = rng.uniform(a + 0.2, 10)
            alpha = rng.uniform(0.1, 20)
            p = af.validate(a, b, alpha, 1)
            muc = af.mu_c_closed(p)
            assert abs(af.mu_c_oracle(p) - muc) / muc < 1e-8

    def test_determinant_sign_change_at_root(self, params135):
        muc = af.mu_c_closed(params135)
        lo = af.det_condition(params135, 0.9 * muc)
        hi = af.det_condition(params135, 1.1 * muc)
        assert np.sign(lo) != np.sign(hi)

    def test_determinant_affine_in_mu(self, params135):
        # second difference of an affine function vanishes
        f = [af.det_condition(params135, m) for m in (1.0, 2.0, 3.0)]
        assert f[0] - 2 * f[1] + f[2] == pytest.approx(
            0.0, abs=1e-10 * max(abs(v) for v in f))


class TestGamma:
    def test_monotone_increasing(self, params135, grid64):
        g = [af.gamma_n(params135, n, grid64) for n in range(1, 6)]
        assert all(g[i] < g[i + 1] for i in range(4))

    def test_gamma1_matches_threshold_relation(self, params135, grid64):
        # at mu_c the slip coefficient balances: gamma_1 = a alpha / mu_c - 2
        muc = af.mu_c_closed(params135)
        g1 = af.gamma_n(params135, 1, grid64)
        assert g1 == pytest.approx(1 * 5 / muc - 2, rel=1e-8)

    def test_positive(self, params135, grid64):
        assert af.gamma_n(params135, 3, grid64) > 0

    def test_invalid_wavenumber(self, params135, grid64):
        with pytest.raises(ValueError):
            af.gamma_n(params135, 0, grid64)

    def test_resolution_stability(self, params135, grid48, grid64):
        g48 = af.gamma_n(params135, 2, grid48)
        g64 = af.gamma_n(params135, 2, grid64)
        assert g48 == pytest.approx(g64, rel=1e-8)


class TestCriticalResult:
    def test_bundle(self, params135, grid64):
        res = af.critical_result(params135, grid64)
        assert res.discrepancy < 1e-8
        assert len(res.gamma) == 5
