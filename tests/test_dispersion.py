"""The leading eigenvalue against the Bessel dispersion relation of
``dispersion`` and against dense QZ.

``leading_eigenpair`` takes lambda_1 from the symmetric energy pencil and
polishes it on the collocation eigenvector. At b/a in {1.05, 3, 9},
mu/mu_c in {0.9, 0.99, 0.9999, 1.0001, 1.1, 2} and N in {48, 96}, it
matched the dispersion value to 7.2e-11 relative at most, and QZ's leading
eigenvalue, polished the same way, to 2.8e-11.
"""

import functools

import numpy as np
import pytest
import scipy.linalg as sla

import annuflow as af
from annuflow.bifurcation import energy_pencil, energy_rayleigh
from dispersion import leading_lambda, mu_c

GAPS = (1.05, 3, 9)
FACTORS = (0.9, 0.99, 0.9999, 1.0001, 1.1, 2)
POINTS = [pytest.param(b, f, N, id=f"{b}-{f}-N{N}")
          for b in GAPS for f in FACTORS for N in (48, 96)]


@functools.cache
def oracle(b, factor, n=64):
    params = af.validate(1, b, 5)
    mu = factor * af.mu_c_closed(params)
    return params, mu, leading_lambda(1, b, 5, mu, n)


@pytest.mark.parametrize("b", (1.05, 3, 15, 1000))
def test_k_to_zero_limit_is_mu_c(b):
    # measured 6.7e-16 relative at most
    assert mu_c(1, b, 5) == pytest.approx(
        af.mu_c_closed(af.validate(1, b, 5)), rel=1e-14)


@pytest.mark.parametrize("b,factor", [(b, f) for b in GAPS for f in FACTORS])
def test_oracle_quadrature_converged(b, factor):
    # 64 and 128 Gauss points: 7.2e-11 relative at most, so
    # the oracle is sharper than the 1e-9 bound it is used with
    ref = oracle(b, factor)[2]
    assert oracle(b, factor, 128)[2] == pytest.approx(ref, rel=2e-10, abs=0)


@pytest.mark.parametrize("b,factor,N", POINTS)
def test_leading_eigenpair_matches_dispersion(b, factor, N):
    params, mu, ref = oracle(b, factor)
    lam = af.leading_eigenpair(params, mu, af.build_grid(1, b, N)).lambda1
    assert lam == pytest.approx(ref, rel=1e-9, abs=0)


@pytest.mark.parametrize("b,factor,N", POINTS)
def test_leading_eigenpair_matches_qz(b, factor, N):
    params, mu, _ = oracle(b, factor)
    grid = af.build_grid(1, b, N)
    pencil = af.mode_pencil(grid, params, mu, 1)
    lam = af.generalized_eig(pencil, 1e6 * mu / (b - 1) ** 2)[0].real
    qz = energy_rayleigh(params, mu, af.eigenvector(pencil, lam), grid)
    got = af.leading_eigenpair(params, mu, grid).lambda1
    assert got == pytest.approx(qz, rel=1e-9, abs=0)


@pytest.mark.parametrize("b,N", [pytest.param(b, 48, id=f"{b}") for b in GAPS]
                         + [pytest.param(b, 96, id=f"{b}-N96") for b in GAPS])
def test_energy_pencil_has_one_positive_eigenvalue(b, N):
    # Courant-Fischer: E2 has rank one, so at most one eigenvalue is
    # positive, and it exists exactly below mu_c
    params = af.validate(1, b, 5)
    grid = af.build_grid(1, b, N)
    for factor, count in ((0.1, 1), (0.9, 1), (1.1, 0), (2, 0)):
        A, B = energy_pencil(params, factor * af.mu_c_closed(params), grid)
        assert np.sum(sla.eigh(A, B, eigvals_only=True) > 0) == count


@pytest.mark.parametrize("N", (48, 96))
@pytest.mark.parametrize("factor", (1.0, 1.0001))
def test_unresolved_wide_gap_raises(N, factor):
    # b/a = 1000 is not resolved at N <= 96: the collocation lambda_1 and the
    # energy pencil's differ by 0.52 (N = 48) and 12 (N = 96) in units of
    # |lambda_1| + a alpha / (b - a)^2, where resolved inputs read 2.1e-6
    params = af.validate(1, 1000, 5)
    mu = factor * af.mu_c_closed(params)
    with pytest.raises(af.EigSolverFailure, match="energy pencil"):
        af.leading_eigenpair(params, mu, af.build_grid(1, 1000, N))
