"""The Lyapunov coefficient against the exact oracle of ``exact_l``.

At mu = mu_c, l is a ratio of integrals of r^k (ln r)^m with closed forms
(see ``exact_l``). These tests check the oracle against its own defining
equations and the reference value at (1, 3, 5), map the sign of alpha * l over
b/a, and bound the error of the l that
``annuflow.bifurcation.bifurcation_report`` computes.

alpha * l depends on b/a alone (criterion 6), so the map at a = alpha = 1
is the whole answer to where the pitchfork is subcritical: nowhere on
[1.0001, 10^6]. Measured with 201 log-spaced b/a: 50- and 70-digit runs
agree to 5.7e-16 relative or better; alpha * l (b/a - 1)^4 = -4.822 at
b/a = 1.0001 and alpha * l (b/a)^4 lies in [-36.1, -34.4] for b/a >= 100.
"""

import numpy as np
import pytest
from mpmath import mp

import annuflow as af
from exact_l import boundary_rows, exact_reduction, monomial


def rel(x, ref) -> float:
    with mp.workdps(100):
        return float(abs(x - ref) / abs(ref))


def test_reference_point():
    # (1, 3, 5) is the repository's reference point (criteria 1 and 6)
    ex = exact_reduction(1, 3, 5)
    assert ex.l.imag == 0
    assert rel(ex.l.real, mp.mpf("-0.124664250088735")) < 1e-13
    assert rel(ex.mu_c, af.mu_c_closed(af.validate(1, 3, 5, 1))) < 1e-14
    # alpha * l is a function of b/a alone
    with mp.workdps(50):
        assert rel(5 * ex.l, exact_reduction(1, 3, 1).l) < 1e-40


def test_oracle_solves_its_defining_equations():
    ex = exact_reduction(1, 3, 5, dps=50)
    with mp.workdps(50):
        a, b = mp.mpf(1), mp.mpf(3)
        psi, g11, mu = ex.psi1, ex.g11, ex.mu_c

        def small(f, tol=mp.mpf(10) ** -40):
            return all(abs(c) < tol for c in f.terms.values())

        rows = [*boundary_rows(psi, a, b, 5 / mu), *boundary_rows(g11, a, b, 5 / mu)]
        assert all(abs(v) < 1e-40 for v in rows)
        assert small(psi.lap(1).lap(1))
        assert abs((psi * psi).rpow(1).integral(a, b) - 1) < 1e-40
        assert psi.d().at(a) > 0
        om = psi.lap(1)
        quad = (psi.rpow(-1) * om.d() - psi.d().rpow(-1) * om) * mp.mpc(0, 1)
        assert small(g11.lap(2).lap(2) * mu + quad)
        # the closed-form integral, k = -1 included, against quadrature
        f = monomial(-1, 2) + monomial(3, 1) * 2 + monomial(-3, 3)
        ref = mp.quad(lambda r: f.at(r), [a, b])
        assert abs(f.integral(a, b) - ref) < 1e-40


SIGMAS = np.logspace(np.log10(1.0001), 6.0, 201)


@pytest.fixture(scope="module")
def sign_map():
    """(b/a, l at 50 digits, l at 70 digits) with a = alpha = 1."""
    return [(s, exact_reduction(1.0, s, 1.0, 50).l,
             exact_reduction(1.0, s, 1.0, 70).l) for s in SIGMAS]


def test_supercritical_for_every_gap(sign_map):
    for s, l50, l70 in sign_map:
        assert l50.imag == 0 and l70.imag == 0, s
        assert l70.real < 0, s
        assert rel(l50, l70) <= 1e-10, s


def test_asymptotes(sign_map):
    s, _, l = sign_map[0]
    assert float(l.real) * (s - 1) ** 4 == pytest.approx(-4.82, rel=1e-3)
    wide = [float(l.real) * s**4 for s, _, l in sign_map if s >= 100]
    assert all(-36.5 < v < -34 for v in wide)


@pytest.mark.parametrize("b,N,bound", [
    pytest.param(b, N, bound, id=f"{b}" if N == 48 else f"{b}-N{N}")
    for N, bound in ((48, 1e-5), (96, 1e-6))
    for b in (1.05, 1.2, 2, 3, 5, 10, 15)])
def test_reduction_matches_oracle(b, N, bound):
    """At mu = mu_c the largest error is 1.3e-6 at N = 48 (b = 15) and
    1.2e-7 at N = 96 (b = 1.05). With QZ's eigenvector instead of inverse
    iteration's, the N = 96 errors were 7.9e-5, 2.2e-5 and 1.4e-6 at
    b = 1.05, 1.2 and 3."""
    params = af.validate(1, b, 5, 1)
    muc = af.mu_c_closed(params)
    l = af.bifurcation_report(af.validate(1, b, 5, muc), muc,
                              af.build_grid(1, b, N)).l
    assert rel(l, exact_reduction(1, b, 5).l.real) <= bound


def test_unresolved_gap_shows_as_discrepancy():
    """At b/a = 1000 and N = 48 the collocation eigenpair is unresolved:
    taken as it is, it gives l = +6.3e-13 against the exact -7.1e-12
    (error 1.09). lambda_1 (mu_c - mu) is 0 at mu = mu_c, so the sign gate
    cannot see it, but the energy pencil's lambda_1 disagrees with the
    collocation one, and leading_eigenpair raises."""
    params = af.validate(1, 1000, 5, 1)
    muc = af.mu_c_closed(params)
    with pytest.raises(af.EigSolverFailure, match="energy pencil"):
        af.bifurcation_report(params, muc, af.build_grid(1, 1000, 48))
