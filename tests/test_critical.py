import warnings

import numpy as np
import pytest
from mpmath import mp

import annuflow as af
from annuflow.domain import RATIO_LIMIT


class TestClosedForm:
    def test_reference_value(self, params135):
        assert af.mu_c_closed(params135) == pytest.approx(1.3404, abs=2e-4)

    def test_scales_linearly_in_alpha(self):
        m1 = af.mu_c_closed(af.validate(1, 3, 5, 1))
        m2 = af.mu_c_closed(af.validate(1, 3, 10, 1))
        assert m2 == pytest.approx(2 * m1, rel=1e-14)

    def test_scale_invariance_in_a(self):
        # mu_c depends on (a alpha, b / a) only
        m1 = af.mu_c_closed(af.validate(1, 3, 5, 1))
        m2 = af.mu_c_closed(af.validate(2, 6, 2.5, 1))
        assert m2 == pytest.approx(m1, rel=1e-14)

    def test_thin_and_wide_gaps_match_mpmath(self):
        """Within 1e-14 of the closed form at 90 digits for (b - a)/a from
        1e-12 to just below RATIO_LIMIT, gaps either side of 0.1 included
        (where a Taylor series once took over); the float64 closed form
        alone is 65 times off at 1e-6 and returns a alpha / 2 = 2.5 at
        (1, 1.000000001, 5)."""
        gaps = np.concatenate([np.logspace(-12, 4, 161),
                               np.linspace(0.9, 1.1, 21) * 0.1,
                               np.logspace(4.5, 77, 146),
                               [RATIO_LIMIT * (1 - 1e-12)]])
        with mp.workdps(90):
            for a in (1.0, 0.37, 2.5):
                for gap in gaps:
                    b = a + a * gap
                    s = mp.mpf(b) / mp.mpf(a)
                    ref = a * 5 * (1 + 3 * s**4 - 4 * s**2 - 4 * s**4 * mp.log(s)) / (
                        2 * (s**4 - 1 - 4 * s**4 * mp.log(s)))
                    got = af.mu_c_closed(af.validate(a, b, 5))
                    assert abs(got - ref) / ref < 1e-14, (a, gap)
        b = 1.000000001
        thin = af.mu_c_closed(af.validate(1, b, 5))
        assert thin == pytest.approx(5 * (b - 1) / 3, rel=1e-8, abs=0)

    def test_no_floating_point_warning_over_the_validated_range(self):
        # the closed form's (b/a)^4 once overflowed to a NaN from b/a = 3e76
        ratios = np.concatenate([1 + np.logspace(-15, 0, 31), np.logspace(0.5, 77, 154),
                                 [np.nextafter(RATIO_LIMIT, 0.0)]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in (1.0, 0.37, 2.5):
                for ratio in ratios:
                    p = af.validate(a, a * ratio, 5)
                    assert np.isfinite([af.mu_c_closed(p)] + [
                        af.gamma_n(p, n) for n in range(1, 6)]).all()


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


def _gamma_reference(b, n):
    """a^2 h_n(a)^2 / int_a^b h_n^2 r dr at a = 1 and 60 digits, from the
    antiderivative of h_n^2 r = r^{2n+1} - 2 b^{2n} r + b^{4n} r^{1-2n}."""
    with mp.workdps(60):
        b = mp.mpf(b)

        def F(r):
            tail = mp.log(r) if n == 1 else r ** (2 - 2 * n) / (2 - 2 * n)
            return r ** (2 * n + 2) / (2 * n + 2) - b ** (2 * n) * r**2 + b ** (4 * n) * tail
        return (1 - b ** (2 * n)) ** 2 / (F(b) - F(mp.mpf(1)))


class TestGamma:
    def test_monotone_increasing(self, params135):
        g = [af.gamma_n(params135, n) for n in range(1, 6)]
        assert all(g[i] < g[i + 1] for i in range(4))

    def test_gamma1_matches_threshold_relation(self, params135):
        # at mu_c the slip coefficient balances: gamma_1 = a alpha / mu_c - 2,
        # with mu_c from the determinant, which does not use gamma_1
        muc = af.mu_c_oracle(params135)
        g1 = af.gamma_n(params135, 1)
        assert g1 == pytest.approx(1 * 5 / muc - 2, rel=1e-8)

    def test_positive(self, params135):
        assert af.gamma_n(params135, 3) > 0

    def test_invalid_wavenumber(self, params135):
        with pytest.raises(ValueError):
            af.gamma_n(params135, 0)

    @pytest.mark.parametrize("b", [1.001, 1.05, 3, 15, 100, 1e4])
    def test_matches_mpmath_integral(self, b):
        p = af.validate(1, b, 5)
        for n in range(1, 6):
            ref = _gamma_reference(b, n)
            assert abs(af.gamma_n(p, n) - ref) / ref < 1e-14, n

